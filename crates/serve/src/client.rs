//! Clients for the serving-path protocol: blocking one-request-at-a-time
//! ([`CacheClient`]) and pipelined ([`PipelinedClient`]).
//!
//! Both speak the same id-carrying frames: every request allocates a
//! fresh [`RequestId`] from a per-connection counter and the server
//! echoes it on the response. The blocking client just checks the echo;
//! the pipelined client is *built* on it — with N requests in flight on
//! one connection, the id is what maps each response back to the request
//! (and its submit timestamp) it answers.

use bytes::Bytes;
use fresca_net::payload;
use fresca_net::{FramedStream, GetStatus, Message, NonBlockingFramedStream, PollRecv, RequestId};
use fresca_sim::SimDuration;
use minipoll::{Interest, PollSet};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::Duration;

/// Result of a staleness-bounded read as observed by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetOutcome {
    /// How the server resolved the read.
    pub status: GetStatus,
    /// Version served (0 when nothing was served).
    pub version: u64,
    /// The value served — a refcounted slice of the connection's receive
    /// buffer, decoded without copying (empty when nothing was served).
    pub value: Bytes,
    /// Age of the entry on the server's clock at serving time. For a
    /// refusal this is the age that exceeded the bound.
    pub age: SimDuration,
}

impl GetOutcome {
    /// True when a value was served (fresh or stale-within-bound).
    pub fn is_served(&self) -> bool {
        self.status.is_served()
    }

    /// Size of the value served, in bytes (0 when nothing was served).
    pub fn value_size(&self) -> u32 {
        self.value.len() as u32
    }
}

/// A snapshot of a server's wire-exported counters, as answered to a
/// `StatsReq` probe (see [`CacheClient::server_stats`]). The refetch
/// fields are cumulative counters (probe before/after and diff); the
/// slab fields are instantaneous gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerProbe {
    /// Origin refetches issued so far.
    pub refetches: u64,
    /// Bounded reads coalesced onto an in-flight refetch so far.
    pub refetch_coalesced: u64,
    /// Reads degraded because the origin was unreachable, so far.
    pub origin_errors: u64,
    /// Ops applied on a shard outside the decoding event loop's share.
    pub cross_core_forwards: u64,
    /// Live entries across all slab shards (gauge).
    pub slab_entries: u64,
    /// Allocated slab slots across all owned shards (gauge).
    pub slab_capacity: u64,
    /// The node's membership epoch at probe time (gauge; 0 = solo).
    pub epoch: u64,
    /// Entries installed by inbound key handoff streams so far.
    pub handoff_in: u64,
    /// Entries streamed out to new owners after membership changes.
    pub handoff_out: u64,
}

/// Deterministic exponential backoff with jitter for bounded
/// reconnects: attempt `n` sleeps `base · 2ⁿ⁻¹` (capped), scaled by a
/// jitter factor in `[0.5, 1.0)` drawn from a seeded SplitMix stream —
/// the same seed always produces the same retry timing, so chaos runs
/// stay reproducible. Attempt 0 is immediate (a node that just came
/// back should not wait out a full backoff step).
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    max_attempts: u32,
    state: u64,
}

impl Backoff {
    /// A policy sleeping `base · 2ⁿ⁻¹` (jittered, capped at `cap`)
    /// before retry `n`, giving up after `max_attempts` attempts.
    pub fn new(base: Duration, cap: Duration, max_attempts: u32, seed: u64) -> Self {
        Backoff { base, cap, max_attempts: max_attempts.max(1), state: payload::mix(seed) }
    }

    /// How many attempts this policy allows before giving up.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The (jittered) sleep before attempt `attempt` (0-based; attempt
    /// 0 is immediate). Advances the jitter stream.
    pub fn delay(&mut self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let exp = self.base.saturating_mul(1u32 << (attempt - 1).min(16));
        let capped = exp.min(self.cap);
        self.state = payload::mix(self.state);
        let jitter = 0.5 + 0.5 * (self.state >> 11) as f64 / (1u64 << 53) as f64;
        capped.mul_f64(jitter)
    }
}

/// A completed pipelined request, as handed back by
/// [`PipelinedClient::complete`] together with its [`RequestId`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A `GetReq` resolved.
    Get {
        /// Key the read was for.
        key: u64,
        /// How the server resolved it.
        outcome: GetOutcome,
    },
    /// A `PutReq` acknowledged.
    Put {
        /// Key the write was for.
        key: u64,
        /// Version the server assigned (monotone per key).
        version: u64,
    },
}

/// A blocking cache client: one TCP connection, one request in flight.
///
/// Simple and good enough for scripts and tests; load generation and
/// anything latency-sensitive under concurrency wants
/// [`PipelinedClient`].
#[derive(Debug)]
pub struct CacheClient {
    framed: FramedStream<TcpStream>,
    next_id: u64,
}

impl CacheClient {
    /// Connect to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(CacheClient { framed: FramedStream::new(stream), next_id: 0 })
    }

    fn alloc_id(&mut self) -> RequestId {
        self.next_id += 1;
        RequestId(self.next_id)
    }

    /// Write `key` with the given value bytes and an optional TTL.
    /// Returns the version the server assigned.
    pub fn put(
        &mut self,
        key: u64,
        value: impl Into<Bytes>,
        ttl: Option<SimDuration>,
    ) -> io::Result<u64> {
        let ttl = ttl.map_or(0, SimDuration::as_nanos);
        let id = self.alloc_id();
        self.framed.send(&Message::PutReq { id, key, value: value.into(), ttl })?;
        match self.must_recv()? {
            Message::PutResp { id: rid, key: k, version } if rid == id && k == key => Ok(version),
            other => Err(unexpected(&other)),
        }
    }

    /// Write `key` with the deterministic `len`-byte pattern payload
    /// (see [`fresca_net::payload`]) — what checksum-verifying readers
    /// expect. Returns the version the server assigned.
    pub fn put_pattern(
        &mut self,
        key: u64,
        len: u32,
        ttl: Option<SimDuration>,
    ) -> io::Result<u64> {
        self.put(key, fresca_net::payload::pattern(key, len as usize), ttl)
    }

    /// Read `key`, accepting data no staler than `max_staleness`
    /// (`None` = any age).
    pub fn get(
        &mut self,
        key: u64,
        max_staleness: Option<SimDuration>,
    ) -> io::Result<GetOutcome> {
        let bound = max_staleness.map_or(u64::MAX, SimDuration::as_nanos);
        let id = self.alloc_id();
        self.framed.send(&Message::GetReq { id, key, max_staleness: bound })?;
        match self.must_recv()? {
            Message::GetResp { id: rid, key: k, version, value, age, status }
                if rid == id && k == key =>
            {
                Ok(GetOutcome { status, version, value, age: SimDuration::from_nanos(age) })
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Probe the server's freshness-loop and serving-path counters
    /// (`StatsReq` → `StatsResp`). The refetch counters are zero on a
    /// server running without an origin; `cross_core_forwards` is zero
    /// on a single-event-loop server.
    pub fn server_stats(&mut self) -> io::Result<ServerProbe> {
        self.framed.send(&Message::StatsReq)?;
        match self.must_recv()? {
            Message::StatsResp {
                refetches,
                refetch_coalesced,
                origin_errors,
                cross_core_forwards,
                slab_entries,
                slab_capacity,
                epoch,
                handoff_in,
                handoff_out,
            } => Ok(ServerProbe {
                refetches,
                refetch_coalesced,
                origin_errors,
                cross_core_forwards,
                slab_entries,
                slab_capacity,
                epoch,
                handoff_in,
                handoff_out,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask the node for its current membership view (`RingReq` →
    /// `RingUpdate`): the epoch and member list clients rebuild their
    /// rings from after a reconnect or an epoch-change refusal.
    pub fn ring(&mut self) -> io::Result<(u64, Vec<String>)> {
        self.membership(&Message::RingReq)
    }

    /// Ask the node to add `node` to the ring (`JoinReq`). Answers with
    /// the view after the join — epoch bumped if the member was new,
    /// unchanged if the join was an idempotent retry.
    pub fn join(&mut self, node: &str) -> io::Result<(u64, Vec<String>)> {
        self.membership(&Message::JoinReq { node: node.to_string() })
    }

    /// Ask the node to remove `node` from the ring (`LeaveReq`).
    /// Answers with the view after the leave, like [`join`](Self::join).
    pub fn leave(&mut self, node: &str) -> io::Result<(u64, Vec<String>)> {
        self.membership(&Message::LeaveReq { node: node.to_string() })
    }

    /// Send a membership request; every one is answered with the view
    /// it leaves behind (`RingUpdate`).
    fn membership(&mut self, req: &Message) -> io::Result<(u64, Vec<String>)> {
        self.framed.send(req)?;
        match self.must_recv()? {
            Message::RingUpdate { epoch, members } => Ok((epoch, members)),
            other => Err(unexpected(&other)),
        }
    }

    fn must_recv(&mut self) -> io::Result<Message> {
        self.framed.recv()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }
}

/// A pipelined cache client: one TCP connection, many requests in flight.
///
/// `submit_*` only queues a request and returns its [`RequestId`]:
/// nothing touches the socket until [`flush`](PipelinedClient::flush),
/// [`try_complete`](PipelinedClient::try_complete) (non-blocking) or
/// [`complete`](PipelinedClient::complete) (blocking), each of which
/// first sends everything queued. So a burst of submits leaves in one
/// `writev`; a caller that waits for an answer by any other route (a
/// side channel, a counter) must call `flush` first. The server
/// answers in submission order on a given connection, but callers should
/// rely only on the echoed id — that is the wire contract.
///
/// ```
/// use fresca_serve::server::{self, ServerConfig};
/// use fresca_serve::{PipelinedClient, Response};
///
/// let handle = server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
/// let mut client = PipelinedClient::connect(handle.addr()).unwrap();
///
/// // Three requests in flight on one connection...
/// let put = client.submit_put(7, fresca_net::payload::pattern(7, 64), None).unwrap();
/// let hit = client.submit_get(7, None).unwrap();
/// let miss = client.submit_get(999, None).unwrap();
///
/// // ...completions come back matched by id.
/// let (id, resp) = client.complete().unwrap();
/// assert_eq!(id, put);
/// assert!(matches!(resp, Response::Put { key: 7, .. }));
/// let (id, resp) = client.complete().unwrap();
/// assert_eq!(id, hit);
/// assert!(matches!(resp, Response::Get { key: 7, outcome } if outcome.is_served()));
/// let (id, _) = client.complete().unwrap();
/// assert_eq!(id, miss);
/// assert_eq!(client.in_flight(), 0);
/// # handle.shutdown();
/// ```
#[derive(Debug)]
pub struct PipelinedClient {
    io: NonBlockingFramedStream<TcpStream>,
    fd: RawFd,
    poll: PollSet,
    next_id: u64,
    in_flight: usize,
}

impl PipelinedClient {
    /// Connect to a server; the socket is put into non-blocking mode.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let fd = stream.as_raw_fd();
        Ok(PipelinedClient {
            io: NonBlockingFramedStream::new(stream),
            fd,
            poll: PollSet::new(),
            next_id: 0,
            in_flight: 0,
        })
    }

    fn alloc_id(&mut self) -> RequestId {
        self.next_id += 1;
        RequestId(self.next_id)
    }

    /// Requests submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Queue a staleness-bounded read (`None` = any age) and return the
    /// id its response will carry. Only queues: the request is sent by
    /// the next [`flush`](PipelinedClient::flush) or completion call.
    pub fn submit_get(
        &mut self,
        key: u64,
        max_staleness: Option<SimDuration>,
    ) -> io::Result<RequestId> {
        let bound = max_staleness.map_or(u64::MAX, SimDuration::as_nanos);
        let id = self.alloc_id();
        self.io.queue(&Message::GetReq { id, key, max_staleness: bound });
        self.in_flight += 1;
        Ok(id)
    }

    /// Queue a write carrying the given value bytes and an optional
    /// TTL; returns the id its acknowledgement will carry. Only queues,
    /// like [`submit_get`](PipelinedClient::submit_get). Large payloads
    /// enter the connection's outbound segment queue as refcounted
    /// handles — queuing is O(header), not O(value).
    pub fn submit_put(
        &mut self,
        key: u64,
        value: impl Into<Bytes>,
        ttl: Option<SimDuration>,
    ) -> io::Result<RequestId> {
        let ttl = ttl.map_or(0, SimDuration::as_nanos);
        let id = self.alloc_id();
        self.io.queue(&Message::PutReq { id, key, value: value.into(), ttl });
        self.in_flight += 1;
        Ok(id)
    }

    /// Send queued requests, as many bytes as the socket accepts now,
    /// gathered into one `writev`. Never blocks: what does not fit goes
    /// out on a later `flush` or completion call.
    pub fn flush(&mut self) -> io::Result<()> {
        self.io.flush().map(drop)
    }

    /// Send what is queued, then collect one completion if a response is
    /// already available, without blocking. `Ok(None)` means nothing is
    /// ready right now (or nothing is in flight).
    pub fn try_complete(&mut self) -> io::Result<Option<(RequestId, Response)>> {
        if self.in_flight == 0 {
            return Ok(None);
        }
        self.io.flush()?;
        match self.io.poll_recv()? {
            PollRecv::Msg(msg) => {
                let done = decode_response(msg)?;
                self.in_flight -= 1;
                Ok(Some(done))
            }
            PollRecv::WouldBlock => Ok(None),
            PollRecv::Closed => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed with requests in flight",
            )),
        }
    }

    /// Block until one in-flight request completes. Errors with
    /// [`io::ErrorKind::InvalidInput`] when nothing is in flight.
    pub fn complete(&mut self) -> io::Result<(RequestId, Response)> {
        if self.in_flight == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "no requests in flight"));
        }
        loop {
            if let Some(done) = self.try_complete()? {
                return Ok(done);
            }
            // Park on `poll(2)` until the `interest` is met.
            let (fd, interest) = self.interest();
            self.poll.clear();
            self.poll.push(fd, interest);
            self.poll.poll(None)?;
        }
    }

    /// What to wait on for this connection: its descriptor, readable,
    /// and writable too while unsent request bytes are pending.
    pub(crate) fn interest(&self) -> (RawFd, Interest) {
        let mut interest = Interest::READABLE;
        if self.io.wants_write() {
            interest = interest.and(Interest::WRITABLE);
        }
        (self.fd, interest)
    }
}

fn decode_response(msg: Message) -> io::Result<(RequestId, Response)> {
    match msg {
        Message::GetResp { id, key, version, value, age, status } => Ok((
            id,
            Response::Get {
                key,
                outcome: GetOutcome {
                    status,
                    version,
                    value,
                    age: SimDuration::from_nanos(age),
                },
            },
        )),
        Message::PutResp { id, key, version } => Ok((id, Response::Put { key, version })),
        other => Err(unexpected(&other)),
    }
}

fn unexpected(msg: &Message) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unexpected response: {msg:?}"))
}
