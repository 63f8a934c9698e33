//! The event-driven TCP cache server, one reactor per core: the reactor
//! and the routing. What an op *does* once its key's shard is
//! locked — the freshness decision, the refetch table, version
//! allocation — is [`crate::datapath`], which this file only calls.
//!
//! A small poll-based reactor replaces the original thread-per-connection
//! design: one blocking accept thread hands sockets to a configurable
//! number of **event-loop threads**, each of which multiplexes all of its
//! connections over non-blocking I/O with a [`minipoll::PollSet`] (a
//! vendored `poll(2)` wrapper — no external runtime). One event-loop
//! thread comfortably sustains thousands of concurrent connections; the
//! thread count scales service capacity across cores, not connection
//! count.
//!
//! ## Shards under locks
//!
//! Each cache shard is one [`Owner`] behind its own mutex in
//! `Shared::owners`, and any loop serves any key. Every op is served
//! one way: `dispatch` describes it as an [`Op`], `route` locks the
//! shard holding its key, calls [`Owner::apply`], releases the lock and
//! queues the reply on the connection then and there. For counting,
//! shard `s` is in loop `s % L`'s share ([`Topology::owner_of`]): an op
//! applied on a shard outside the decoding loop's share is counted in
//! `cross_core_forwards`; it costs one lock, not a hand-off between
//! threads. A loop holds at most one shard lock at a time and never
//! across socket I/O, a handoff send or a mailbox post (fresca-lint R4
//! flags the blocking half of that).
//!
//! A loop's origin link is its own: the fetches its reads open leave
//! on it, and the `FetchResp`s that come back on it are installed under
//! their key's shard lock. A reader that joined a fetch another loop's
//! link carries is answered through that loop: the reply travels to
//! the reader's home loop's `Mailbox` (one mutex append + one self-pipe
//! wake byte per destination per tick — the same call the accept thread
//! deposits sockets through), matched by [`ReplyTo`]'s `(slot, token)`
//! so a recycled slot can never receive a stranger's reply.
//!
//! Late replies ride the tick exactly like local ones: a completion
//! (from a peer loop or an origin refetch) is only *queued* on its
//! connection, which is noted in a loop-local dirty list, and the
//! reactor flushes each dirty connection **once** at end of tick.
//! However many completions a wake-up brings for one connection, they
//! leave in one `writev` — counted, together with the flush that follows
//! `service`, in `reply_writes`.
//!
//! Per-key operation order is preserved end-to-end: a connection's
//! requests are decoded and applied in order, and same-key ops from
//! different connections are serialised by their shard's lock, under
//! which a version is allocated and installed in one step.
//!
//! Per connection the reactor keeps a [`NonBlockingFramedStream`]: reads
//! accumulate into the streaming codec until frames complete, responses
//! queue into an outbound buffer and drain as the socket accepts them, so
//! a slow reader never blocks the loop. Requests are processed in arrival
//! order per connection and each response echoes its request's
//! [`fresca_net::RequestId`], which is what lets clients pipeline many
//! requests on one connection and match responses by id (a read parked
//! on an origin refetch completes out of order with respect to later
//! ones).
//!
//! The same socket also accepts the **store path**: a store-push node
//! (see [`crate::push`]) sends batched `Invalidate { seq, keys }` /
//! `Update { seq, items }` frames. The receiving loop splits a batch by
//! shard, applies each part under its shard's lock, and answers
//! `Ack { seq }` in the same tick, after every part is applied — the
//! paper's write-triggered freshness pipeline running against a real
//! cache node instead of the simulator.
//!
//! ## The origin link
//!
//! With [`ServerConfig::origin`] set, each event loop keeps one
//! non-blocking connection to the origin, and an I/O-free `OriginLink`
//! with the keys whose `FetchResp` that link still owes. When
//! [`Owner::apply`] parks a read and hands back its key, the reading
//! loop queues the `FetchReq` on its own link and remembers the key;
//! the `FetchResp` goes to [`Owner::fetched`] on the key's shard, and
//! the replies it returns are delivered like any other late completion.
//! The event loop never blocks on the origin, nor dials it: parked
//! requests cost a table entry and unrelated keys keep serving. If a
//! link dies, the loop fails only the keys it carried
//! ([`Owner::fetch_failed`], one shard lock at a time), which answers
//! every reader parked on them their fallback. Once the backoff runs
//! out, a dial thread redials and posts the link to the loop's
//! `Mailbox`; until a later tick adopts it, reads that would open a
//! fetch degrade at once. Each loop also counts the reads it decodes
//! and sends the batch on its link as `ReadStats` frames.

use crate::datapath::{Applied, Counters, Op, OriginLink, Owner, ReplyTo, Topology};
use crate::handoff::{Handoff, Streamer};
use crate::mailbox::{LoopInbox, Mailbox};
use crate::membership::Membership;
use crate::ring::DEFAULT_VNODES;
pub use crate::stats::ServerStatsSnapshot;
use crate::ServeClock;
use fresca_cache::{CacheConfig, EvictionPolicy};
use fresca_net::{Message, NonBlockingFramedStream, PollRecv};
use minipoll::{Interest, PollSet, Readiness};
use parking_lot::Mutex;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Total cache capacity, divided across the shards, and the
    /// eviction policy every shard runs (see [`fresca_cache::slab`]).
    /// The default is ARC ([`EvictionPolicy::Adaptive`]): the policy the
    /// eviction sweep (`ablate_eviction --sweep`) chose.
    pub cache: CacheConfig,
    /// Number of cache shards (rounded up to a power of two). Each
    /// shard sits behind its own lock, and any event loop serves any
    /// shard; shard `s` counts as loop `s % event_loops`'s share only
    /// for `cross_core_forwards`.
    pub shards: usize,
    /// Number of event-loop threads. Connections are multiplexed onto
    /// them round-robin at accept time, and each loop applies the
    /// requests it decodes under the lock of their key's shard, so
    /// this is also the serving parallelism. Raise it to spread request
    /// processing across cores, not to admit more connections.
    pub event_loops: usize,
    /// Origin endpoint to refetch refused/missed keys through (see the
    /// module docs). `None` — the default — answers refusals and misses
    /// directly, exactly as before.
    pub origin: Option<SocketAddr>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cache: CacheConfig { eviction: EvictionPolicy::Adaptive, ..CacheConfig::default() },
            shards: 16,
            event_loops: 2,
            origin: None,
        }
    }
}

/// Everything an event loop needs to dispatch requests.
struct Shared {
    /// The node's counters, shared with every [`Owner`].
    counters: Arc<Counters>,
    clock: ServeClock,
    stop: AtomicBool,
    /// Graceful-shutdown mode: with `stop` set, event loops drain every
    /// queued reply and parked request before exiting instead of
    /// closing connections immediately.
    drain: AtomicBool,
    topo: Topology,
    /// One owner per shard, indexed by [`Topology::shard_of`]. Any loop
    /// locks the shard a key lives in to apply an op on it; at most one
    /// shard lock is held at a time, never across socket I/O.
    owners: Vec<Mutex<Owner>>,
    /// The epoch-stamped member list this node routes ownership by.
    /// Locked only for short view reads/updates on membership frames —
    /// never held across I/O or shard access.
    membership: Mutex<Membership>,
    /// The name this node appears under in member lists (its advertised
    /// address; defaults to the bound address).
    advertise: String,
    /// The thread that does the blocking membership I/O for the loops.
    streamer: Streamer,
    /// Where every loop's origin link dials ([`ServerConfig::origin`]).
    origin: Option<SocketAddr>,
}

impl Shared {
    fn snapshot(&self) -> ServerStatsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let c = &*self.counters;
        // Entries, slab slots and evictions, one shard lock at a time.
        let mut gauges = [0u64; 3];
        for owner in &self.owners {
            let part = owner.lock().gauges();
            for (sum, value) in gauges.iter_mut().zip(part) {
                *sum += value;
            }
        }
        ServerStatsSnapshot {
            gets: load(&c.gets),
            puts: load(&c.puts),
            fresh: load(&c.fresh),
            stale_served: load(&c.stale_served),
            refused: load(&c.refused),
            misses: load(&c.misses),
            push_batches: load(&c.push_batches),
            keys_invalidated: load(&c.keys_invalidated),
            keys_updated: load(&c.keys_updated),
            connections: load(&c.connections),
            open_connections: load(&c.open_connections),
            protocol_errors: load(&c.protocol_errors),
            refetches: load(&c.refetches),
            refetch_coalesced: load(&c.refetch_coalesced),
            origin_errors: load(&c.origin_errors),
            cross_core_forwards: load(&c.cross_core_forwards),
            reply_writes: load(&c.reply_writes),
            slab_entries: gauges[0],
            slab_capacity: gauges[1],
            evictions: gauges[2],
            epoch: self.membership.lock().epoch,
            handoff_in: load(&c.handoff_in),
            handoff_out: self.streamer.streamed(),
        }
    }
}

/// Accept-side handle to one event loop.
struct LoopHandle {
    mailbox: Arc<Mailbox>,
    join: JoinHandle<()>,
}

/// A running server. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::shutdown`] to stop the accept and event-loop threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_loop: Option<JoinHandle<()>>,
    loops: Vec<LoopHandle>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle").field("addr", &self.addr).finish_non_exhaustive()
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
/// serving in background threads. Returns once the listener is bound, so
/// clients may connect immediately. The node advertises itself in
/// member lists under its bound address; multi-node deployments whose
/// peers reach them under a different spelling use
/// [`spawn_with_identity`].
pub fn spawn<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> io::Result<ServerHandle> {
    spawn_with_identity(addr, config, None)
}

/// [`spawn`], with an explicit advertised name — the exact string this
/// node appears under in ring member lists. Every cluster participant
/// must spell a member identically (ring placement hashes the name), so
/// the advertised name is part of the cluster's configuration, not a
/// cosmetic label.
pub fn spawn_with_identity<A: ToSocketAddrs>(
    addr: A,
    config: ServerConfig,
    advertise: Option<String>,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let topo = Topology::new(config.shards, config.event_loops);
    let num_loops = topo.num_loops();
    let counters = Arc::new(Counters::default());
    let owners = (0..topo.total_shards())
        .map(|_| Mutex::new(Owner::new(topo, config.cache, Arc::clone(&counters))))
        .collect();
    let shared = Arc::new(Shared {
        counters,
        clock: ServeClock::start(),
        stop: AtomicBool::new(false),
        drain: AtomicBool::new(false),
        topo,
        owners,
        membership: Mutex::new(Membership::solo()),
        advertise: advertise.unwrap_or_else(|| addr.to_string()),
        streamer: Streamer::spawn(),
        origin: config.origin,
    });

    // Every loop's mailbox exists before any thread starts, so each
    // loop can carry a complete routing table of its peers from its
    // first tick.
    let (mailboxes, wake_rxs): (Vec<_>, Vec<_>) =
        (0..num_loops).map(|_| Mailbox::new()).collect::<io::Result<Vec<_>>>()?.into_iter().unzip();
    // Every loop's first origin link is dialed at once and waits in its
    // inbox, adopted on the loop's first tick ahead of any connection (so
    // the first refused read parks): one connect timeout, not one a loop.
    let dials: Vec<_> = mailboxes.iter().filter_map(|to| start_dial(config.origin?, to)).collect();
    for dial in dials {
        let _ = dial.join();
    }
    let loops: Vec<LoopHandle> = wake_rxs
        .into_iter()
        .enumerate()
        .map(|(loop_id, wake_rx)| {
            let (shared, peers) = (Arc::clone(&shared), mailboxes.clone());
            let event_loop = EventLoop::new(loop_id, wake_rx, peers, shared);
            LoopHandle {
                mailbox: Arc::clone(&mailboxes[loop_id]),
                join: std::thread::spawn(move || event_loop.run()),
            }
        })
        .collect();

    let accept_loop = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            let mut next = 0usize;
            for conn in listener.incoming() {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(conn) = conn else { continue };
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                shared.counters.open_connections.fetch_add(1, Ordering::Relaxed);
                mailboxes[next % mailboxes.len()].post(|inbox| inbox.conns.push(conn));
                next += 1;
            }
        })
    };

    Ok(ServerHandle { addr, shared, accept_loop: Some(accept_loop), loops })
}

impl ServerHandle {
    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.shared.snapshot()
    }

    /// Apply a backend-originated invalidation: mark `key`'s entry
    /// known-stale under its shard's lock. Returns `true` if the key was
    /// cached.
    pub fn invalidate(&self, key: u64) -> bool {
        let Some(owner) = self.shared.owners.get(self.shared.topo.shard_of(key)) else {
            return false;
        };
        owner.lock().invalidate(&[key]) > 0
    }

    /// The server's clock, for callers that want to interpret entry ages
    /// on the server's timeline.
    pub fn clock(&self) -> ServeClock {
        self.shared.clock
    }

    /// Number of event-loop threads serving connections.
    pub fn event_loops(&self) -> usize {
        self.loops.len()
    }

    /// The node's current membership view (epoch + member list).
    pub fn membership(&self) -> Membership {
        self.shared.membership.lock().clone()
    }

    /// The name this node advertises in ring member lists.
    pub fn advertise(&self) -> &str {
        &self.shared.advertise
    }

    /// Stop the server: the accept thread and every event-loop thread are
    /// joined, closing all established connections. Requests already
    /// received are answered before their connection closes only if their
    /// responses were already written; clients with requests in flight
    /// observe EOF.
    pub fn shutdown(mut self) -> ServerStatsSnapshot {
        self.stop_threads();
        self.shared.snapshot()
    }

    /// Stop the server *gracefully*: no new connections or requests are
    /// accepted, but every reply already queued and every read still
    /// parked on an origin refetch is answered and drained to the
    /// socket before its connection closes. This is what SIGTERM maps
    /// to in the `serve` binary — a killed node owes its clients every
    /// response for requests it already read.
    pub fn shutdown_graceful(mut self) -> ServerStatsSnapshot {
        self.shared.drain.store(true, Ordering::Release);
        self.stop_threads();
        self.shared.snapshot()
    }

    fn stop_threads(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_loop.take() {
            let _ = h.join();
        }
        for l in &self.loops {
            l.mailbox.wake();
        }
        for l in self.loops.drain(..) {
            let _ = l.join.join();
        }
    }
}

/// One registered connection: the framed transport plus the raw fd it
/// polls under.
struct Conn {
    io: NonBlockingFramedStream<TcpStream>,
    fd: RawFd,
    /// Loop-unique identity for this registration: the `token` of every
    /// [`ReplyTo`] that names this connection.
    token: u64,
    /// No more requests will be read (clean EOF — possibly a half-close
    /// — or a protocol violation), but replies already queued still
    /// drain before the connection is dropped. The blocking server
    /// answered every request it had read; the reactor keeps that
    /// property.
    closing: bool,
    /// Reads from this connection parked on an origin refetch, whose
    /// replies have not been queued yet. A closing connection drains
    /// these too before it is dropped — a half-closing client is owed
    /// every response, including the ones of fetches another loop's
    /// origin link carries.
    in_flight: u32,
    /// True once a `RingUpdate` arrived on this connection — the marker
    /// a handoff streamer sends before its `Update` batches. Updates on
    /// a handoff connection run in *install mode*: absent keys are
    /// installed instead of being counted as missed updates, which is
    /// what moves ownership of a key's bytes between nodes. Store-push
    /// connections never send `RingUpdate`, so their updates keep the
    /// paper's update-in-place semantics.
    handoff: bool,
}

/// How long an origin dial may take. It runs on a thread of its own:
/// at startup before any loop starts, later on a short-lived dial
/// thread, never on an event loop.
const ORIGIN_CONNECT_TIMEOUT: Duration = Duration::from_millis(100);

/// Read-side backpressure: while a connection has more than this many
/// unsent response bytes buffered, the reactor stops reading (and thus
/// accepting) further requests from it until the client drains its side.
/// Bounds per-connection server memory at roughly this plus one maximal
/// response.
const OUTBOUND_HIGH_WATER: usize = 1 << 20;

/// Fairness: at most this many requests are processed per connection per
/// poll tick, so one firehose connection cannot starve its event-loop
/// neighbours.
const MAX_FRAMES_PER_TICK: usize = 128;

/// Poll cadence while a graceful drain is in progress: the exit
/// condition (all connections server-wide answered and closed) is
/// global, so each loop re-checks it on this timer.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// How long a graceful drain waits for unresponsive peers before
/// closing whatever is left. Clients that read their sockets drain in
/// milliseconds; this bounds shutdown against ones that do not.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// What `dispatch` decided for one request.
enum Dispatch {
    /// Answer with this message.
    Reply(Message),
    /// No reply now: the read parked on an origin refetch and will be
    /// answered when the fetch completes or fails.
    Pending,
    /// Not a request this node answers — protocol error, close after
    /// draining what was already queued.
    Close,
}

/// One event-loop thread: the poll reactor of its connections and its
/// own origin link. Everything that touches a shard happens inside an
/// [`Owner`], under that shard's lock.
struct EventLoop {
    loop_id: usize,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    /// Every loop's mailbox, indexed by loop id (the self entry is this
    /// loop's own inbox).
    peers: Vec<Arc<Mailbox>>,
    /// Per-destination staging for late replies owed to peers'
    /// connections; posted to the peers' mailboxes (one lock + one wake
    /// each) at end of tick.
    outbox: Vec<Vec<(ReplyTo, Message)>>,
    /// Slot-indexed connection table; `None` slots are free and reused.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_token: u64,
    /// The non-blocking connection this loop refetches through, if up.
    link: Option<NonBlockingFramedStream<TcpStream>>,
    /// The link's bookkeeping (see [`OriginLink`]).
    origin: OriginLink,
    /// Slots whose connection had a late reply queued on an empty
    /// outbound queue this tick (see `deliver`); flushed once each
    /// and cleared at end of tick, so an entry never outlives the tick
    /// that pushed it.
    dirty: Vec<usize>,
    /// Set while a graceful-shutdown drain is in progress: no new
    /// reads, exit once every connection has received everything it is
    /// owed (or the drain grace period, counted from here, expires).
    draining_since: Option<Instant>,
}

impl EventLoop {
    fn new(
        loop_id: usize,
        wake_rx: UnixStream,
        peers: Vec<Arc<Mailbox>>,
        shared: Arc<Shared>,
    ) -> Self {
        EventLoop {
            loop_id,
            wake_rx,
            outbox: peers.iter().map(|_| Vec::new()).collect(),
            peers,
            conns: Vec::new(),
            free: Vec::new(),
            next_token: 0,
            link: None,
            origin: OriginLink::new(shared.origin.is_some()),
            shared,
            dirty: Vec::new(),
            draining_since: None,
        }
    }

    /// The reactor: multiplex every connection assigned to this loop
    /// over one `poll(2)` set. Index 0 of the set is always the wake
    /// pipe; the origin link (when configured and up) takes index 1;
    /// connection slots follow. The loop exits when the shared stop
    /// flag is set.
    fn run(mut self) {
        let wake_fd = self.wake_rx.as_raw_fd();
        let mut poll = PollSet::new();
        // poll index -> conn slot for this tick (index 0 is the wake pipe).
        let mut slot_of: Vec<usize> = Vec::new();
        // One read-scratch buffer shared by every connection on this loop:
        // it holds no per-stream state, so idle connections cost no
        // read-buffer memory.
        let mut scratch = vec![0u8; 64 * 1024];

        loop {
            poll.clear();
            slot_of.clear();
            poll.push(wake_fd, Interest::READABLE);
            // A connection has *backlog* when complete frames already sit in
            // its decoder (the per-tick budget cut servicing short) and it is
            // under the outbound high-water mark. Such connections must be
            // serviced this tick even if their descriptor never becomes
            // readable again, so backlog forces a zero-timeout poll.
            let mut backlog = false;
            // The origin link polls at index 1 when present: always for
            // reads (a FetchResp can arrive any tick), for writes while
            // frames are buffered outbound.
            if let Some(link) = &self.link {
                let mut interest = Interest::READABLE;
                if link.wants_write() {
                    interest = interest.and(Interest::WRITABLE);
                }
                backlog |= link.has_buffered_frame();
                poll.push(link.get_ref().as_raw_fd(), interest);
            }
            let link_polled = self.link.is_some();
            let base = 1 + usize::from(link_polled);
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                if conn.closing && !conn.io.wants_write() {
                    // Nothing left to read and nothing queued: the
                    // connection only waits on in-flight cross-core
                    // completions, which `deliver` queues and
                    // `flush_dirty` writes (dropping the connection after
                    // the last one) — polling its descriptor would just
                    // spin on writable readiness.
                    continue;
                }
                let reading = !conn.closing && conn.io.pending_out() <= OUTBOUND_HIGH_WATER;
                backlog |= reading && conn.io.has_buffered_frame();
                // Read interest only while under the outbound high-water
                // mark (a client that won't drain its responses doesn't get
                // to submit more requests) and not closing.
                let mut interest = if reading { Interest::READABLE } else { Interest::WRITABLE };
                if conn.io.wants_write() {
                    interest = interest.and(Interest::WRITABLE);
                }
                poll.push(conn.fd, interest);
                slot_of.push(slot);
            }
            let timeout = if backlog {
                Some(Duration::ZERO)
            } else if self.draining_since.is_some() {
                // While draining, wake on a short timer too: the exit
                // condition is global (every loop's connections gone),
                // which no local readiness event announces.
                Some(DRAIN_POLL)
            } else {
                None
            };
            if poll.poll(timeout).is_err() {
                // poll(2) only fails for ENOMEM/EFAULT/EINVAL; none are
                // recoverable from here.
                self.close_all();
                return;
            }

            // A downed origin link is redialled once its backoff has run
            // out, on a thread of its own: reads degrade at once until a
            // later tick adopts the link the dial posts.
            if let (Some(addr), None) = (self.shared.origin, &self.link) {
                if self.origin.dial_due(self.shared.clock.now()) {
                    start_dial(addr, &self.peers[self.loop_id]);
                }
            }

            if poll.readiness(0).readable() {
                // Drain the wake pipe (many wakes coalesce into one drain).
                let mut buf = [0u8; 64];
                while matches!(self.wake_rx.read(&mut buf), Ok(n) if n > 0) {}
                if self.shared.stop.load(Ordering::Acquire) {
                    if self.shared.drain.load(Ordering::Acquire) {
                        self.begin_drain();
                    } else {
                        self.close_all();
                        return;
                    }
                }
                // Take the whole inbox out under the lock, act after
                // releasing it: registration does syscalls per socket, and
                // neither the accept thread nor peer loops must stall on
                // the mutex during bursts.
                let LoopInbox { conns: arrivals, replies, dialed } =
                    std::mem::take(&mut *self.peers[self.loop_id].inbox.lock());
                if let Some(dialed) = dialed {
                    self.link = dialed.ok().map(NonBlockingFramedStream::new);
                    self.origin.dialed(self.link.is_some(), self.shared.clock.now());
                }
                for stream in arrivals {
                    self.next_token += 1;
                    match register(stream, self.next_token) {
                        // A draining loop reads no new requests, so an
                        // arrival — even one deposited in the same
                        // wake-up as the stop — is closed unread, as if
                        // it had connected a moment later: registered,
                        // it would idle through the whole drain grace.
                        Ok(conn) if self.draining_since.is_none() => match self.free.pop() {
                            Some(slot) => self.conns[slot] = Some(conn),
                            None => self.conns.push(Some(conn)),
                        },
                        _ => {
                            self.shared.counters.open_connections.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                }
                // Late replies from peers are queued before this tick's
                // new socket reads: they answer reads that have been
                // parked since at least the previous tick.
                for (to, reply) in replies {
                    self.deliver(to, &reply);
                }
            }

            // Drain origin FetchResps next: completed refetches answer
            // their parked readers before this tick's new requests are
            // serviced, so a just-installed key is immediately servable.
            if (link_polled && poll.readiness(1).any())
                || self.link.as_ref().is_some_and(|l| l.has_buffered_frame())
            {
                self.drain_origin(&mut scratch);
            }

            for (i, &slot) in slot_of.iter().enumerate() {
                let readiness = poll.readiness(base + i);
                // Registered slots stay populated for the whole tick; a
                // vacant slot here would be a reactor bug, but the serving
                // loop must not be able to panic — skip it instead. The
                // connection is moved out of its slot while being serviced
                // so the dispatch path can borrow the rest of the loop
                // freely.
                let Some(mut conn) = self.conns[slot].take() else { continue };
                if !readiness.any() && (conn.closing || !conn.io.has_buffered_frame()) {
                    self.conns[slot] = Some(conn);
                    continue;
                }
                let alive = self.service(&mut conn, slot, readiness, &mut scratch);
                self.conns[slot] = Some(conn);
                if alive {
                    self.flush_conn(slot);
                } else {
                    self.drop_conn(slot);
                }
            }

            // End of tick: push the owed read-count batch and any FetchReqs
            // queued while servicing connections. A write failure here is
            // an origin outage — fail every parked waiter to its fallback
            // and start the reconnect backoff.
            let read_stats = self.origin.read_stats();
            if let Some(link) = self.link.as_mut() {
                if let Some(batch) = read_stats {
                    link.queue(&batch);
                }
                if link.wants_write() && link.flush().is_err() {
                    self.origin_outage();
                }
            }
            // Then write out every late reply queued this tick and hand
            // this tick's cross-core batches to their loops (both after
            // the origin flush, which may have queued or staged fallback
            // replies).
            self.flush_dirty();
            self.flush_outboxes();

            // A draining loop exits once every connection — on every
            // loop, since this loop's origin link may still owe a peer's
            // client a reply — has been answered and dropped, or the
            // grace period for unresponsive peers expires.
            if self.draining_since.is_some() && self.drain_done() {
                self.close_all();
                return;
            }
        }
    }

    /// Enter graceful-drain mode: every connection stops reading new
    /// requests (marked closing) but keeps its queued replies and
    /// in-flight completions; fully-drained connections drop now.
    fn begin_drain(&mut self) {
        if self.draining_since.is_some() {
            return;
        }
        self.draining_since = Some(Instant::now());
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.closing = true;
                self.flush_conn(slot);
            }
        }
    }

    /// True when the drain has nothing left to wait for: every
    /// connection server-wide has been answered and closed, or the
    /// grace period expired (a peer that will not read its replies does
    /// not get to hold shutdown hostage forever).
    fn drain_done(&self) -> bool {
        if self.draining_since.is_some_and(|t| t.elapsed() >= DRAIN_GRACE) {
            return true;
        }
        self.shared.counters.open_connections.load(Ordering::Relaxed) == 0
    }

    /// Route a late reply to the connection it is owed to — directly
    /// into the local connection table when `to.home` is this loop,
    /// staged for the home loop's mailbox otherwise.
    fn stage_done(&mut self, to: ReplyTo, reply: Message) {
        if to.home == self.loop_id {
            self.deliver(to, &reply);
        } else if let Some(out) = self.outbox.get_mut(to.home) {
            out.push((to, reply));
        }
    }

    /// Hand every non-empty outbox batch to its destination loop: one
    /// post (one lock acquisition to append, one wake byte) each. Batch
    /// vectors are recycled to keep the steady state allocation-free.
    fn flush_outboxes(&mut self) {
        for (batch, peer) in self.outbox.iter_mut().zip(&self.peers) {
            if !batch.is_empty() {
                peer.post(|inbox| inbox.replies.append(batch));
            }
        }
    }

    /// Queue `reply` on the connection `to` names; `flush_dirty` writes
    /// it out at end of tick, together with every other late reply the
    /// tick brings for that connection. A queue that already holds
    /// bytes needs no dirty entry: either an earlier call this tick
    /// made one, or a would-block tail keeps the connection in the poll
    /// set with write interest and the tick's flush finishes it. Skips
    /// connections that closed (the slot token no longer matches).
    fn deliver(&mut self, to: ReplyTo, reply: &Message) {
        let Some(conn) = self.conns.get_mut(to.slot).and_then(Option::as_mut) else { return };
        if conn.token != to.token {
            return;
        }
        conn.in_flight = conn.in_flight.saturating_sub(1);
        if !conn.io.wants_write() {
            self.dirty.push(to.slot);
        }
        conn.io.queue(reply);
    }

    /// Push this tick's late replies toward their sockets: one flush
    /// per dirty connection. The tick's own flush may have written or
    /// dropped the connection since it was marked; both leave nothing
    /// to do here.
    fn flush_dirty(&mut self) {
        for i in 0..self.dirty.len() {
            self.flush_conn(self.dirty[i]);
        }
        self.dirty.clear();
    }

    /// Write out what `slot`'s connection has queued, then decide —
    /// here and nowhere else — whether it survives. A transport error
    /// drops it. So does the last reply byte of a *closing* connection
    /// (clean EOF, protocol violation or graceful drain: no more
    /// requests will be read) once nothing is in flight for it on
    /// another core or at the origin; a half-closing client is owed
    /// every response for what it sent. Leftover bytes keep write
    /// interest registered for the next tick. Counted in `reply_writes`
    /// when there was something to send.
    fn flush_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        if conn.io.wants_write() {
            self.shared.counters.reply_writes.fetch_add(1, Ordering::Relaxed);
        }
        let keep = match conn.io.flush() {
            Ok(_) => !conn.closing || conn.io.wants_write() || conn.in_flight > 0,
            Err(_) => false,
        };
        if !keep {
            self.drop_conn(slot);
        }
    }

    /// Close `slot`'s connection and free the slot for reuse.
    fn drop_conn(&mut self, slot: usize) {
        self.conns[slot] = None;
        self.free.push(slot);
        self.shared.counters.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Drain FetchResps from the origin link (bounded per tick, like any
    /// other connection), handing each to its key's owner and delivering
    /// the replies it returns for the readers parked on the key. Any
    /// transport error or protocol violation on the link is an outage.
    fn drain_origin(&mut self, scratch: &mut [u8]) {
        for _ in 0..MAX_FRAMES_PER_TICK {
            let Some(link) = self.link.as_mut() else { return };
            match link.poll_recv_with(scratch) {
                Ok(PollRecv::Msg(Message::FetchResp { key, version: _, value })) => {
                    self.origin.answered(key);
                    let now = self.shared.clock.now();
                    let shard = self.shared.topo.shard_of(key);
                    let replies = self.shared.owners[shard].lock().fetched(key, value, now);
                    for (to, reply) in replies {
                        self.stage_done(to, reply);
                    }
                }
                Ok(PollRecv::WouldBlock) => return,
                Ok(PollRecv::Msg(_)) | Ok(PollRecv::Closed) | Err(_) => {
                    self.origin_outage();
                    return;
                }
            }
        }
    }

    /// The origin connection died: drop the link, arm the reconnect
    /// backoff, and fail every fetch the link still owed, one shard lock
    /// at a time, delivering the fallback each parked reader is
    /// answered with.
    fn origin_outage(&mut self) {
        self.link = None;
        for key in self.origin.lost(self.shared.clock.now()) {
            let shard = self.shared.topo.shard_of(key);
            let replies = self.shared.owners[shard].lock().fetch_failed(key);
            for (to, reply) in replies {
                self.stage_done(to, reply);
            }
        }
    }

    /// Account for every connection this exiting loop force-closes: live
    /// slots plus sockets accepted but still waiting in the inbox (both
    /// were counted into `open_connections` at accept time).
    fn close_all(&self) {
        let waiting = self.peers[self.loop_id].inbox.lock().conns.len();
        let live = self.conns.iter().filter(|c| c.is_some()).count() + waiting;
        self.shared.counters.open_connections.fetch_sub(live as u64, Ordering::Relaxed);
    }

    /// Service one ready connection: decode complete frames (bounded per
    /// tick for fairness, and only while under the outbound high-water
    /// mark), dispatch, and queue replies for the caller's `flush_conn`
    /// to write. Returns `false` when the transport died and the
    /// connection should be dropped unflushed; a clean EOF or a protocol
    /// violation only marks it closing, so every already-queued reply
    /// still drains (a half-closing client receives its responses).
    fn service(
        &mut self,
        conn: &mut Conn,
        slot: usize,
        readiness: Readiness,
        scratch: &mut [u8],
    ) -> bool {
        if !conn.closing
            && (readiness.readable() || readiness.error() || conn.io.has_buffered_frame())
        {
            let mut budget = MAX_FRAMES_PER_TICK;
            while budget > 0 && conn.io.pending_out() <= OUTBOUND_HIGH_WATER {
                budget -= 1;
                match conn.io.poll_recv_with(scratch) {
                    Ok(PollRecv::Msg(msg)) => match self.dispatch(msg, conn, slot) {
                        Dispatch::Reply(reply) => conn.io.queue(&reply),
                        Dispatch::Pending => conn.in_flight += 1,
                        Dispatch::Close => {
                            // Not a request this node answers (neither
                            // serving-path nor store-path): the peer is
                            // confused or hostile either way; answer what
                            // preceded it, then close.
                            self.shared.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            conn.closing = true;
                            break;
                        }
                    },
                    Ok(PollRecv::WouldBlock) => break,
                    Ok(PollRecv::Closed) => {
                        // Clean EOF, possibly a half-close with responses
                        // still owed: stop reading, drain, then drop.
                        conn.closing = true;
                        break;
                    }
                    Err(e) => {
                        if e.kind() == io::ErrorKind::InvalidData {
                            // Codec violation: frames are length-delimited so
                            // the stream is still aligned; deliver the
                            // replies already queued before closing.
                            self.shared.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            conn.closing = true;
                            break;
                        }
                        // Reset or EOF mid-frame: transport weather, the
                        // peer is gone — nothing left to deliver to.
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Map one request onto the sharded cache; [`Dispatch::Close`]
    /// for messages that do not belong on a cache node's socket.
    /// Serving-path requests (`GetReq`, `PutReq`) come from clients,
    /// store-path batches (`Invalidate`, `Update`) from a store-push
    /// node: each is described as an [`Op`] (a batch as one per
    /// shard, acknowledged by `seq` once every part is applied) and
    /// handed to [`route`](Self::route). `StatsReq` comes from a load
    /// generator pinning down the refetch and forwarding counters.
    /// Membership frames (`RingReq`, `RingUpdate`, `JoinReq`,
    /// `LeaveReq`) are control-plane traffic on the same socket — see
    /// [`crate::membership`] for the adoption rules they follow.
    fn dispatch(&mut self, msg: Message, conn: &mut Conn, slot: usize) -> Dispatch {
        let to = ReplyTo { home: self.loop_id, slot, token: conn.token };
        match msg {
            Message::GetReq { id, key, max_staleness } => {
                self.shared.counters.gets.fetch_add(1, Ordering::Relaxed);
                let link = self.origin.read(key);
                self.route_request(key, to, Op::Get { id, key, max_staleness, link })
            }
            Message::StatsReq => {
                let snap = self.shared.snapshot();
                Dispatch::Reply(Message::StatsResp {
                    refetches: snap.refetches,
                    refetch_coalesced: snap.refetch_coalesced,
                    origin_errors: snap.origin_errors,
                    cross_core_forwards: snap.cross_core_forwards,
                    slab_entries: snap.slab_entries,
                    slab_capacity: snap.slab_capacity,
                    epoch: snap.epoch,
                    handoff_in: snap.handoff_in,
                    handoff_out: snap.handoff_out,
                })
            }
            Message::PutReq { id, key, value, ttl } => {
                self.shared.counters.puts.fetch_add(1, Ordering::Relaxed);
                self.route_request(key, to, Op::Put { id, key, value, ttl })
            }
            Message::Invalidate { seq, keys } => {
                // A store-pushed batch: every shard marks its share of
                // the keys stale, then the whole batch is acked by seq.
                self.route_batch(to, seq, keys, |&key| key, |keys| Op::InvalidateKeys { keys })
            }
            Message::Update { seq, items } => {
                // A store-pushed refresh batch: re-freshen every cached
                // entry in it, split by shard like an invalidation.
                // Handoff streams reuse the Update machinery in install
                // mode (see `Conn::handoff`): absent keys are installed,
                // moving ownership, instead of counting as missed
                // updates.
                let install = conn.handoff;
                self.route_batch(to, seq, items, |item| item.key, |items| Op::UpdateItems {
                    items,
                    install,
                })
            }
            // Answer with the current view, whatever it is — the reply a
            // client uses to (re)discover the ring after an epoch change
            // or a reconnect.
            Message::RingReq => self.membership_changed(None, None),
            Message::RingUpdate { epoch, members } => {
                // A peer (or handoff streamer) pushes its view: adopt
                // iff strictly newer, rebalance if adopted, and echo the
                // epoch we hold *after* processing. The sender of a
                // handoff stream announces itself this way, so the
                // connection flips into install mode either way.
                conn.handoff = true;
                let adopted = self.shared.membership.lock().adopt(epoch, &members);
                if adopted {
                    self.rebalance();
                }
                let now = self.shared.membership.lock().epoch;
                Dispatch::Reply(Message::RingAck { epoch: now })
            }
            Message::JoinReq { node } => {
                let changed = self.shared.membership.lock().apply_join(&node);
                self.membership_changed(changed, None)
            }
            Message::LeaveReq { node } => {
                let changed = self.shared.membership.lock().apply_leave(&node);
                // The departing node is the one member the new view no
                // longer names — and the one that must hear about the
                // change, because its rebalance is what streams every
                // key it owned over to the survivors.
                self.membership_changed(changed, Some(&node))
            }
            _ => Dispatch::Close,
        }
    }

    /// Finish a join/leave (or answer a `RingReq`, which changes
    /// nothing): on a view change, rebalance locally and broadcast the
    /// new view to every *other* member (via the handoff thread —
    /// announcing is blocking I/O and stays off the reactor), plus
    /// `departed` on a leave, so the leaver learns to hand its keys off.
    /// Either way the caller is answered with the current view.
    fn membership_changed(
        &mut self,
        changed: Option<(u64, Vec<String>)>,
        departed: Option<&str>,
    ) -> Dispatch {
        if let Some((epoch, members)) = changed {
            self.rebalance();
            for dest in members.iter().map(String::as_str).chain(departed) {
                if dest != self.shared.advertise {
                    self.shared.streamer.send(Handoff {
                        dest: dest.to_string(),
                        epoch,
                        members: members.clone(),
                        items: Vec::new(),
                    });
                }
            }
            return Dispatch::Reply(Message::RingUpdate { epoch, members });
        }
        let view = self.shared.membership.lock().clone();
        Dispatch::Reply(Message::RingUpdate { epoch: view.epoch, members: view.members })
    }

    /// Rescan every shard against the current membership view, one
    /// shard lock at a time: entries whose owner is now another
    /// node are removed ([`Owner::moved`]) and the servably fresh ones
    /// handed to the streamer thread, grouped per destination, after
    /// the lock is released. Handoff is an optimisation, not a
    /// correctness requirement: any key that fails to move is
    /// re-fetched or re-written at its new owner like any cold key.
    fn rebalance(&self) {
        let view = self.shared.membership.lock().clone();
        // Solo nodes (empty view) keep everything: there is no
        // "elsewhere" to stream to.
        let Some(ring) = view.ring(DEFAULT_VNODES) else { return };
        for owner in &self.shared.owners {
            let now = self.shared.clock.now();
            let moved = owner.lock().moved(&ring, &self.shared.advertise, now);
            for (dest, items) in moved {
                self.shared.streamer.send(Handoff {
                    dest,
                    epoch: view.epoch,
                    members: view.members.clone(),
                    items,
                });
            }
        }
    }

    /// Run `op`, whose keys all live in `key`'s shard, under that
    /// shard's lock on this thread (counted as a cross-core forward when
    /// the shard is outside this loop's share). The read that opens a
    /// fetch gets its `FetchReq` queued on this loop's own link, which
    /// then owes the shard the answer.
    fn route(&mut self, key: u64, to: ReplyTo, op: Op) -> Applied {
        let topo = self.shared.topo;
        if topo.owner_of(key) != self.loop_id {
            self.shared.counters.cross_core_forwards.fetch_add(1, Ordering::Relaxed);
        }
        // The clock is read after the op's socket read, so the op is
        // judged no earlier than it arrived — and before the lock, which
        // keeps the read out of the time the lock is held.
        let now = self.shared.clock.now();
        let applied = self.shared.owners[topo.shard_of(key)].lock().apply(to, op, now);
        if let Applied::Parked { fetch: Some(key) } = applied {
            // The owner only opens a fetch when told the link is up; the
            // if-let keeps this path structurally panic-free regardless.
            if let Some(link) = self.link.as_mut() {
                link.queue(&Message::FetchReq { key });
                self.origin.sent(key);
            }
        }
        applied
    }

    /// Route a client's single-key request: answered now unless the
    /// read parked.
    fn route_request(&mut self, key: u64, to: ReplyTo, op: Op) -> Dispatch {
        match self.route(key, to, op) {
            Applied::Reply(reply) => Dispatch::Reply(reply),
            _ => Dispatch::Pending,
        }
    }

    /// Split a store-push batch by shard, apply each non-empty part
    /// (`make_op` wraps one shard's share) and acknowledge the whole
    /// batch: every part is applied before the `Ack` is queued.
    fn route_batch<T>(
        &mut self,
        to: ReplyTo,
        seq: u64,
        items: Vec<T>,
        key_of: impl Fn(&T) -> u64,
        make_op: impl Fn(Vec<T>) -> Op,
    ) -> Dispatch {
        self.shared.counters.push_batches.fetch_add(1, Ordering::Relaxed);
        let mut parts: Vec<Vec<T>> = Vec::new();
        parts.resize_with(self.shared.topo.total_shards(), Vec::new);
        for item in items {
            if let Some(part) = parts.get_mut(self.shared.topo.shard_of(key_of(&item))) {
                part.push(item);
            }
        }
        for share in parts {
            if let Some(key) = share.first().map(&key_of) {
                self.route(key, to, make_op(share));
            }
        }
        Dispatch::Reply(Message::Ack { seq })
    }
}

/// Dial the origin on a thread of its own — the node's one `connect`
/// to it — which posts the link, or the error, to `to`'s loop. A thread
/// that cannot start is a failed dial. Only [`spawn`] joins the thread.
fn start_dial(addr: SocketAddr, to: &Arc<Mailbox>) -> Option<JoinHandle<()>> {
    let mailbox = Arc::clone(to);
    let dial = move || {
        let link = TcpStream::connect_timeout(&addr, ORIGIN_CONNECT_TIMEOUT).and_then(|stream| {
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            Ok(stream)
        });
        mailbox.post(|inbox| inbox.dialed = Some(link));
    };
    let spawned = std::thread::Builder::new().name("origin-dial".into()).spawn(dial);
    spawned.map_err(|e| to.post(|inbox| inbox.dialed = Some(Err(e)))).ok()
}

/// Put an accepted socket into non-blocking mode and wrap it for the
/// reactor.
fn register(stream: TcpStream, token: u64) -> io::Result<Conn> {
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let fd = stream.as_raw_fd();
    Ok(Conn {
        io: NonBlockingFramedStream::new(stream),
        fd,
        token,
        closing: false,
        in_flight: 0,
        handoff: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A socket deposited in a loop's inbox in the same wake-up as a
    /// graceful stop must not hold the drain for `DRAIN_GRACE`.
    #[test]
    fn arrival_in_the_same_wakeup_as_a_graceful_stop_does_not_hold_the_drain() {
        let config = ServerConfig { event_loops: 1, ..ServerConfig::default() };
        let handle = spawn("127.0.0.1:0", config).expect("bind");
        // What the accept thread does with a new socket, minus the wake
        // byte: the loop first sees the arrival when the stop wakes it.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        handle.shared.counters.open_connections.fetch_add(1, Ordering::Relaxed);
        handle.loops[0].mailbox.inbox.lock().conns.push(stream);

        let started = Instant::now();
        let stats = handle.shutdown_graceful();
        assert!(started.elapsed() < Duration::from_secs(1), "held for {:?}", started.elapsed());
        assert_eq!(stats.open_connections, 0);
    }
}
