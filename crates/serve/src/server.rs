//! The event-driven, thread-per-core TCP cache server: the reactor and
//! the routing. What an op *does* once it reaches the loop owning its
//! key — the freshness decision, the refetch table, version allocation
//! — is [`crate::datapath`], which this file only calls.
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
//! ## Thread-per-core ownership
//!
//! An event loop is two fields: the reactor state in this file and one
//! [`Owner`], the cache shards partitioned to this loop at startup,
//! touched by no other thread and behind no lock. Requests are
//! therefore routed *by key*, not just by connection, and every op on
//! owned keys is served one way: `dispatch` describes it as an [`Op`],
//! `route` finds the owner, and [`Owner::apply`] runs it and returns a
//! [`Completion`]. Local and forwarded ops differ only in where that
//! completion goes. When the owner is the loop the request arrived on,
//! `apply` runs inline and the reply is queued on the connection then
//! and there. Otherwise the op is **forwarded**: the home loop stages a
//! `CoreMsg::Op` into a per-destination outbox, posts the batch to the
//! owner's `Mailbox` at end of tick (one mutex append + one self-pipe
//! wake byte per destination — the same call the accept thread
//! deposits sockets through), and the request parks exactly like an
//! origin refetch does. The owner applies it and stages the completion
//! — the fully-formed reply — back to the home loop, which queues it on
//! the original connection, matched by [`ReplyTo`]'s `(slot, token)` so
//! a recycled slot can never receive a stranger's reply. The reactor
//! never blocks on a forward; counted in `cross_core_forwards`.
//!
//! Late replies ride the tick exactly like local ones: a completion
//! (from a peer loop, a finished store-push batch, or an origin
//! refetch) is only *queued* on its connection, which is noted in a
//! loop-local dirty list, and the reactor flushes each dirty connection
//! **once** at end of tick. However many completions a wake-up brings
//! for one connection, they leave in one `writev` — counted, together
//! with the flush that follows `service`, in `reply_writes`.
//!
//! Per-key operation order is preserved end-to-end: a connection's
//! requests are decoded in order, same-key operations always route to
//! the same owner, and the inbox queues are FIFO.
//!
//! Per connection the reactor keeps a [`NonBlockingFramedStream`]: reads
//! accumulate into the streaming codec until frames complete, responses
//! queue into an outbound buffer and drain as the socket accepts them, so
//! a slow reader never blocks the loop. Requests are processed in arrival
//! order per connection and each response echoes its request's
//! [`fresca_net::RequestId`], which is what lets clients pipeline many
//! requests on one connection and match responses by id (forwarded
//! requests may complete out of order with respect to later local ones,
//! exactly like parked refetches always could).
//!
//! The same socket also accepts the **store path**: a store-push node
//! (see [`crate::push`]) sends batched `Invalidate { seq, keys }` /
//! `Update { seq, items }` frames. The receiving loop splits a batch
//! into per-owner sub-batches, each routed like any other op (its own
//! share applied inline, the rest forwarded), and answers `Ack { seq }`
//! once every forwarded sub-batch's completion has come back — the paper's
//! write-triggered freshness pipeline running against a real cache node
//! instead of the simulator.
//!
//! ## The origin link
//!
//! With [`ServerConfig::origin`] set, each event loop keeps one
//! non-blocking connection to the origin. When [`Owner::apply`] parks a
//! read and hands back its key, the reactor queues the `FetchReq` on
//! that link; each `FetchResp` goes to [`Owner::fetched`], and the
//! replies it returns are delivered like any other late completion. The
//! event loop never blocks on the origin: parked requests cost a table
//! entry and unrelated keys keep serving. If the link dies the owner is
//! told ([`Owner::origin_lost`]) and answers every parked reader its
//! fallback; the reactor redials on a timer and tells the owner when
//! the link is back. The owner's batched read counts ride the same link
//! as `ReadStats` frames.

use crate::datapath::{Applied, Completion, Counters, Op, Owner, ReplyTo, Topology};
use crate::handoff::{Handoff, Streamer};
use crate::mailbox::{CoreMsg, LoopInbox, Mailbox};
use crate::membership::Membership;
use crate::ring::DEFAULT_VNODES;
use crate::stats::ServerStats;
pub use crate::stats::ServerStatsSnapshot;
use crate::ServeClock;
use fresca_cache::CacheConfig;
use fresca_net::{Message, NonBlockingFramedStream, PollRecv};
use minipoll::{Interest, PollSet, Readiness};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Total cache capacity, divided across the shards, and the
    /// eviction policy every shard runs (see [`fresca_cache::slab`]).
    pub cache: CacheConfig,
    /// Number of cache shards (rounded up to a power of two). Shards
    /// are partitioned across the event loops at startup; shard `s`
    /// is owned by loop `s % event_loops`.
    pub shards: usize,
    /// Number of event-loop threads. Connections are multiplexed onto
    /// them round-robin at accept time; *requests* are then routed by
    /// key to the loop owning the key's shard, so this is also the
    /// serving parallelism. Raise it to spread request processing
    /// across cores, not to admit more connections.
    pub event_loops: usize,
    /// Origin endpoint to refetch refused/missed keys through (see the
    /// module docs). `None` — the default — answers refusals and misses
    /// directly, exactly as before.
    pub origin: Option<SocketAddr>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cache: CacheConfig::default(),
            shards: 16,
            event_loops: 2,
            origin: None,
        }
    }
}

/// Everything an event loop needs to dispatch requests.
struct Shared {
    stats: ServerStats,
    /// The version counter and serving counters every loop's [`Owner`]
    /// shares.
    counters: Arc<Counters>,
    clock: ServeClock,
    stop: AtomicBool,
    /// Graceful-shutdown mode: with `stop` set, event loops drain every
    /// queued reply and in-flight forwarded request before exiting
    /// instead of closing connections immediately.
    drain: AtomicBool,
    topo: Topology,
    /// Per-loop slab gauges, published by each owner at end of tick and
    /// summed for stats and `StatsResp`.
    slab_entries: Vec<AtomicU64>,
    slab_capacity: Vec<AtomicU64>,
    /// The epoch-stamped member list this node routes ownership by.
    /// Locked only for short view reads/updates on membership frames —
    /// never held across I/O or shard access.
    membership: Mutex<Membership>,
    /// The name this node appears under in member lists (its advertised
    /// address; defaults to the bound address).
    advertise: String,
    /// The thread that does the blocking membership I/O for the loops.
    streamer: Streamer,
}

impl Shared {
    fn snapshot(&self) -> ServerStatsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let (s, c) = (&self.stats, &*self.counters);
        ServerStatsSnapshot {
            gets: load(&s.gets),
            puts: load(&s.puts),
            fresh: load(&c.fresh),
            stale_served: load(&c.stale_served),
            refused: load(&c.refused),
            misses: load(&c.misses),
            push_batches: load(&s.push_batches),
            keys_invalidated: load(&c.keys_invalidated),
            keys_updated: load(&c.keys_updated),
            connections: load(&s.connections),
            open_connections: load(&s.open_connections),
            protocol_errors: load(&s.protocol_errors),
            refetches: load(&c.refetches),
            refetch_coalesced: load(&c.refetch_coalesced),
            origin_errors: load(&c.origin_errors),
            cross_core_forwards: load(&s.cross_core_forwards),
            reply_writes: load(&s.reply_writes),
            slab_entries: self.slab_entries.iter().map(load).sum(),
            slab_capacity: self.slab_capacity.iter().map(load).sum(),
            epoch: self.membership.lock().epoch,
            handoff_in: load(&c.handoff_in),
            handoff_out: self.streamer.streamed(),
        }
    }

}

/// A store-push batch waiting on forwarded sub-batches; the `Ack` goes
/// out to `to` when `remaining` owners have reported back.
struct PendingBatch {
    seq: u64,
    to: ReplyTo,
    remaining: u32,
}

/// Accept-side handle to one event loop.
struct LoopHandle {
    mailbox: Arc<Mailbox>,
    join: JoinHandle<()>,
}

/// A running server. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::shutdown`] to stop the accept and event-loop threads.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_loop: Option<JoinHandle<()>>,
    loops: Vec<LoopHandle>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

impl std::fmt::Debug for LoopHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopHandle").finish_non_exhaustive()
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
    let shared = Arc::new(Shared {
        stats: ServerStats::default(),
        counters: Arc::default(),
        clock: ServeClock::start(),
        stop: AtomicBool::new(false),
        drain: AtomicBool::new(false),
        topo,
        slab_entries: (0..num_loops).map(|_| AtomicU64::new(0)).collect(),
        slab_capacity: (0..num_loops).map(|_| AtomicU64::new(0)).collect(),
        membership: Mutex::new(Membership::solo()),
        advertise: advertise.unwrap_or_else(|| addr.to_string()),
        streamer: Streamer::spawn(),
    });

    // Every loop's mailbox exists before any thread starts, so each
    // loop can carry a complete routing table of its peers from its
    // first tick.
    let (mailboxes, wake_rxs): (Vec<_>, Vec<_>) =
        (0..num_loops).map(|_| Mailbox::new()).collect::<io::Result<Vec<_>>>()?.into_iter().unzip();

    let loops: Vec<LoopHandle> = wake_rxs
        .into_iter()
        .enumerate()
        .map(|(loop_id, wake_rx)| {
            let (shared, peers) = (Arc::clone(&shared), mailboxes.clone());
            let join = std::thread::spawn(move || {
                EventLoop::new(loop_id, wake_rx, peers, shared, config).run();
            });
            LoopHandle { mailbox: Arc::clone(&mailboxes[loop_id]), join }
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
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                shared.stats.open_connections.fetch_add(1, Ordering::Relaxed);
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
    /// known-stale on the event loop owning its shard. Returns `true`
    /// if the key was cached. This is the operator-facing replacement
    /// for reaching into the (now loop-owned, unlocked) shards
    /// directly: it routes a control message through the owner's inbox
    /// and waits briefly for the answer.
    pub fn invalidate(&self, key: u64) -> bool {
        let Some(l) = self.loops.get(self.shared.topo.owner_of(key)) else { return false };
        let (tx, rx) = mpsc::channel();
        l.mailbox.post(|inbox| inbox.msgs.push(CoreMsg::Invalidate { key, reply: tx }));
        rx.recv_timeout(Duration::from_secs(5)).unwrap_or(false)
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
    /// accepted, but every reply already queued and every request still
    /// in flight (forwarded cross-core, parked on an origin refetch, or
    /// pending in a store-push batch) is answered and drained to the
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
    /// Requests read off this connection whose replies have not been
    /// queued yet: forwarded cross-core operations, pending store-push
    /// batches, and parked origin refetches. A closing connection
    /// drains these too before it is dropped — a half-closing client is
    /// owed every response, including the ones completing on another
    /// core.
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

/// Per-event-loop origin state: where the origin is, the link to it
/// (when up) and the redial backoff. What is parked on the link lives
/// with the [`Owner`].
struct OriginCtx {
    addr: SocketAddr,
    /// The non-blocking connection this event loop refetches through.
    link: Option<NonBlockingFramedStream<TcpStream>>,
    /// Don't re-attempt a failed connect before this instant.
    retry_at: Option<Instant>,
}

/// How long a (blocking, inline) origin connect attempt may take. Kept
/// short: it runs on the event-loop thread, at the top of a tick that
/// finds the link down and the retry timer expired.
const ORIGIN_CONNECT_TIMEOUT: Duration = Duration::from_millis(100);

/// Backoff between origin connect attempts. While it runs, refused and
/// missed reads degrade to their fallback replies immediately.
const ORIGIN_RETRY: Duration = Duration::from_secs(1);

impl OriginCtx {
    /// True when the origin link is up — connecting now if it is down
    /// and the retry backoff has expired. A failed attempt arms the
    /// backoff and returns false, so callers degrade immediately
    /// instead of queueing behind a dead endpoint.
    fn ensure_link(&mut self) -> bool {
        if self.link.is_some() {
            return true;
        }
        let now = Instant::now();
        if self.retry_at.is_some_and(|at| now < at) {
            return false;
        }
        match TcpStream::connect_timeout(&self.addr, ORIGIN_CONNECT_TIMEOUT)
            .and_then(|stream| {
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                Ok(stream)
            }) {
            Ok(stream) => {
                self.link = Some(NonBlockingFramedStream::new(stream));
                self.retry_at = None;
                true
            }
            Err(_) => {
                self.retry_at = Some(now + ORIGIN_RETRY);
                false
            }
        }
    }
}

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
    /// No reply now: the request was forwarded to its key's owner loop
    /// or parked on an in-flight origin refetch, and will be answered
    /// when the completion (or fetch) comes back.
    Pending,
    /// Not a request this node answers — protocol error, close after
    /// draining what was already queued.
    Close,
}

/// One event-loop thread: the poll reactor, and the [`Owner`] of the
/// slab shards partitioned to this loop. The reactor decides where an
/// op runs and where its completion goes; everything that touches a
/// shard happens inside `owner`, on this thread, behind no lock.
struct EventLoop {
    loop_id: usize,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    owner: Owner,
    /// Every loop's mailbox, indexed by loop id (the self entry is this
    /// loop's own inbox).
    peers: Vec<Arc<Mailbox>>,
    /// Per-destination staging for cross-core messages; posted to the
    /// peers' mailboxes (one lock + one wake each) at end of tick.
    outbox: Vec<Vec<CoreMsg>>,
    /// Slot-indexed connection table; `None` slots are free and reused.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_token: u64,
    origin: Option<OriginCtx>,
    /// Store-push batches waiting on forwarded sub-batches, by batch id.
    pending: HashMap<u64, PendingBatch>,
    next_batch: u64,
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
        config: ServerConfig,
    ) -> Self {
        let mut origin = config.origin.map(|addr| OriginCtx { addr, link: None, retry_at: None });
        let counters = Arc::clone(&shared.counters);
        let mut owner = Owner::new(loop_id, shared.topo, config.cache, counters, origin.is_some());
        if let Some(ctx) = &mut origin {
            // Dial the origin eagerly so the first refused read parks
            // instead of degrading while the link is still down.
            owner.origin_link(ctx.ensure_link());
        }
        EventLoop {
            loop_id,
            wake_rx,
            owner,
            outbox: peers.iter().map(|_| Vec::new()).collect(),
            peers,
            shared,
            conns: Vec::new(),
            free: Vec::new(),
            next_token: 0,
            origin,
            pending: HashMap::new(),
            next_batch: 0,
            dirty: Vec::new(),
            draining_since: None,
        }
    }

    /// The origin link, when this node has an origin and the link is up.
    fn link_mut(&mut self) -> Option<&mut NonBlockingFramedStream<TcpStream>> {
        self.origin.as_mut()?.link.as_mut()
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
            let link_polled = match self.link_mut() {
                Some(link) => {
                    let mut interest = Interest::READABLE;
                    if link.wants_write() {
                        interest = interest.and(Interest::WRITABLE);
                    }
                    backlog |= link.has_buffered_frame();
                    poll.push(link.get_ref().as_raw_fd(), interest);
                    true
                }
                None => false,
            };
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

            // A downed origin link is redialled here, once its backoff
            // has run out, and the owner told the outcome: a read
            // serviced below either parks on a live link or degrades
            // at once.
            if let Some(ctx) = self.origin.as_mut().filter(|ctx| ctx.link.is_none()) {
                self.owner.origin_link(ctx.ensure_link());
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
                let LoopInbox { conns: arrivals, msgs } =
                    std::mem::take(&mut *self.peers[self.loop_id].inbox.lock());
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
                            self.shared.stats.open_connections.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                }
                // Cross-core traffic is serviced before this tick's new
                // socket reads: completions answer requests that have
                // been pending since at least the previous tick, and
                // forwarded ops apply before any same-key op decoded
                // this tick (per-key FIFO).
                for msg in msgs {
                    self.handle_core_msg(msg);
                }
            }

            // Drain origin FetchResps next: completed refetches answer
            // their parked readers before this tick's new requests are
            // serviced, so a just-installed key is immediately servable.
            if link_polled {
                let buffered = self.link_mut().is_some_and(|l| l.has_buffered_frame());
                if poll.readiness(1).any() || buffered {
                    self.drain_origin(&mut scratch);
                }
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
            let read_stats = self.owner.read_stats();
            if let Some(link) = self.link_mut() {
                if let Some(batch) = read_stats {
                    link.queue(&batch);
                }
                if link.wants_write() && link.flush().is_err() {
                    self.origin_outage();
                }
            }
            // Then write out every late reply queued this tick and hand
            // this tick's cross-core batches to their owners (both after
            // the origin flush, which may have queued or staged fallback
            // replies), and publish the slab gauges.
            self.flush_dirty();
            self.flush_outboxes();
            self.publish_gauges();

            // A draining loop exits once every connection — on every
            // loop, since cross-core completions may still be owed to a
            // peer's client — has been answered and dropped, or the
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
        self.shared.stats.open_connections.load(Ordering::Relaxed) == 0
    }

    /// Stage a cross-core message for `dest`, delivered at end of tick.
    fn forward(&mut self, dest: usize, msg: CoreMsg) {
        if let Some(out) = self.outbox.get_mut(dest) {
            out.push(msg);
        }
    }

    /// Route a completion to the connection it is owed to — directly
    /// into the local connection table when `to.home` is this loop,
    /// staged as a cross-core message otherwise.
    fn stage_done(&mut self, to: ReplyTo, what: Completion) {
        let done = CoreMsg::Done { to, what };
        if to.home == self.loop_id {
            self.handle_core_msg(done);
        } else {
            self.forward(to.home, done);
        }
    }

    /// Hand every non-empty outbox batch to its destination loop: one
    /// post (one lock acquisition to append, one wake byte) each. Batch
    /// vectors are recycled to keep the steady state allocation-free.
    fn flush_outboxes(&mut self) {
        for (batch, peer) in self.outbox.iter_mut().zip(&self.peers) {
            if !batch.is_empty() {
                peer.post(|inbox| inbox.msgs.append(batch));
            }
        }
    }

    /// Publish this loop's slab occupancy into the shared per-loop
    /// gauges (summed by stats snapshots and `StatsResp`).
    fn publish_gauges(&self) {
        let (entries, capacity) = self.owner.gauges();
        if let Some(g) = self.shared.slab_entries.get(self.loop_id) {
            g.store(entries, Ordering::Relaxed);
        }
        if let Some(g) = self.shared.slab_capacity.get(self.loop_id) {
            g.store(capacity, Ordering::Relaxed);
        }
    }

    /// Apply one message from a peer loop (or the server handle).
    fn handle_core_msg(&mut self, msg: CoreMsg) {
        match msg {
            CoreMsg::Op { to, op } => {
                if let Some(what) = self.apply(to, op) {
                    self.stage_done(to, what);
                }
            }
            CoreMsg::Done { to, what } => match what {
                Completion::Reply(reply) => self.deliver(to, &reply),
                Completion::BatchPart { batch } => {
                    let finished = match self.pending.get_mut(&batch) {
                        Some(p) => {
                            p.remaining = p.remaining.saturating_sub(1);
                            p.remaining == 0
                        }
                        None => false,
                    };
                    if finished {
                        if let Some(p) = self.pending.remove(&batch) {
                            self.deliver(p.to, &Message::Ack { seq: p.seq });
                        }
                    }
                }
            },
            CoreMsg::Invalidate { key, reply } => {
                let _ = reply.send(self.owner.invalidate(&[key]) > 0);
            }
            CoreMsg::Rebalance => self.rebalance(),
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
            self.shared.stats.reply_writes.fetch_add(1, Ordering::Relaxed);
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
        self.shared.stats.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Drain FetchResps from the origin link (bounded per tick, like any
    /// other connection), handing each to the owner and delivering the
    /// replies it returns for the readers parked on the key. Any
    /// transport error or protocol violation on the link is an outage.
    fn drain_origin(&mut self, scratch: &mut [u8]) {
        for _ in 0..MAX_FRAMES_PER_TICK {
            let Some(link) = self.link_mut() else { return };
            match link.poll_recv_with(scratch) {
                Ok(PollRecv::Msg(Message::FetchResp { key, version: _, value })) => {
                    for (to, reply) in self.owner.fetched(key, value, self.shared.clock.now()) {
                        self.stage_done(to, Completion::Reply(reply));
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
    /// backoff, and deliver the fallback the owner answers every parked
    /// reader with.
    fn origin_outage(&mut self) {
        if let Some(ctx) = self.origin.as_mut() {
            ctx.link = None;
            ctx.retry_at = Some(Instant::now() + ORIGIN_RETRY);
        }
        for (to, reply) in self.owner.origin_lost() {
            self.stage_done(to, Completion::Reply(reply));
        }
    }

    /// Account for every connection this exiting loop force-closes: live
    /// slots plus sockets accepted but still waiting in the inbox (both
    /// were counted into `open_connections` at accept time).
    fn close_all(&self) {
        let waiting = self.peers[self.loop_id].inbox.lock().conns.len();
        let live = self.conns.iter().filter(|c| c.is_some()).count() + waiting;
        self.shared.stats.open_connections.fetch_sub(live as u64, Ordering::Relaxed);
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
                            self.shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
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
                            self.shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
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

    /// Map one request onto the partitioned cache; [`Dispatch::Close`]
    /// for messages that do not belong on a cache node's socket.
    /// Serving-path requests (`GetReq`, `PutReq`) come from clients,
    /// store-path batches (`Invalidate`, `Update`) from a store-push
    /// node: each is described as an [`Op`] (a batch as one per
    /// owner, acknowledged by `seq` once every sub-batch completes) and
    /// handed to [`route`](Self::route). `StatsReq` comes from a load
    /// generator pinning down the refetch and forwarding counters.
    /// Membership frames (`RingReq`, `RingUpdate`, `JoinReq`,
    /// `LeaveReq`) are control-plane traffic on the same socket — see
    /// [`crate::membership`] for the adoption rules they follow.
    fn dispatch(&mut self, msg: Message, conn: &mut Conn, slot: usize) -> Dispatch {
        let to = ReplyTo { home: self.loop_id, slot, token: conn.token };
        match msg {
            Message::GetReq { id, key, max_staleness } => {
                self.shared.stats.gets.fetch_add(1, Ordering::Relaxed);
                self.route_request(key, to, Op::Get { id, key, max_staleness })
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
                self.shared.stats.puts.fetch_add(1, Ordering::Relaxed);
                self.route_request(key, to, Op::Put { id, key, value, ttl })
            }
            Message::Invalidate { seq, keys } => {
                // A store-pushed batch: every owner marks its share of
                // the keys stale, and the whole batch is acked by seq
                // once every part reports back.
                self.route_batch(to, seq, keys, |&key| key, |batch, keys| {
                    Op::InvalidateKeys { batch, keys }
                })
            }
            Message::Update { seq, items } => {
                // A store-pushed refresh batch: re-freshen every cached
                // entry in it, split by owner like an invalidation.
                // Handoff streams reuse the Update machinery in install
                // mode (see `Conn::handoff`): absent keys are installed,
                // moving ownership, instead of counting as missed
                // updates.
                let install = conn.handoff;
                self.route_batch(to, seq, items, |item| item.key, |batch, items| {
                    Op::UpdateItems { batch, items, install }
                })
            }
            Message::RingReq => {
                // Answer with the current view, whatever it is — the
                // reply a client uses to (re)discover the ring after an
                // epoch change or a reconnect.
                let view = self.shared.membership.lock().clone();
                Dispatch::Reply(Message::RingUpdate { epoch: view.epoch, members: view.members })
            }
            Message::RingUpdate { epoch, members } => {
                // A peer (or handoff streamer) pushes its view: adopt
                // iff strictly newer, rebalance if adopted, and echo the
                // epoch we hold *after* processing. The sender of a
                // handoff stream announces itself this way, so the
                // connection flips into install mode either way.
                conn.handoff = true;
                let adopted = self.shared.membership.lock().adopt(epoch, &members);
                if adopted {
                    self.broadcast_rebalance();
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

    /// Finish a join/leave: on a view change, rebalance locally and
    /// broadcast the new view to every *other* member (via the handoff
    /// thread — announcing is blocking I/O and stays off the reactor),
    /// plus `departed` on a leave, so the leaver learns to hand its
    /// keys off. Either way the caller is answered with the current
    /// view.
    fn membership_changed(
        &mut self,
        changed: Option<(u64, Vec<String>)>,
        departed: Option<&str>,
    ) -> Dispatch {
        if let Some((epoch, members)) = changed {
            self.broadcast_rebalance();
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

    /// Tell every event loop (this one inline) to rescan its owned
    /// shards against the just-adopted view and stream moved keys out.
    fn broadcast_rebalance(&mut self) {
        for dest in 0..self.peers.len() {
            if dest == self.loop_id {
                self.rebalance();
            } else {
                self.forward(dest, CoreMsg::Rebalance);
            }
        }
    }

    /// Rescan this loop's owned shards against the current membership
    /// view: entries whose owner is now another node are removed here
    /// ([`Owner::moved`]) and the servably fresh ones handed to the
    /// streamer thread, grouped per destination. Handoff is an
    /// optimisation, not a correctness requirement: any key that fails
    /// to move is re-fetched or re-written at its new owner like any
    /// cold key.
    fn rebalance(&mut self) {
        let view = self.shared.membership.lock().clone();
        // Solo nodes (empty view) keep everything: there is no
        // "elsewhere" to stream to.
        let Some(ring) = view.ring(DEFAULT_VNODES) else { return };
        let moved = self.owner.moved(&ring, &self.shared.advertise, self.shared.clock.now());
        for (dest, items) in moved {
            self.shared.streamer.send(Handoff {
                dest,
                epoch: view.epoch,
                members: view.members.clone(),
                items,
            });
        }
    }

    /// Hand `op` to the loop owning its keys. When that is this loop
    /// the op is applied inline and its completion returned — `None`
    /// if it parked on an origin refetch. Otherwise it is staged for
    /// `owner` (counted as a cross-core forward) and `None` returned:
    /// either way, `None` means a completion will arrive later through
    /// [`deliver`](Self::deliver).
    fn route(&mut self, owner: usize, to: ReplyTo, op: Op) -> Option<Completion> {
        if owner == self.loop_id {
            return self.apply(to, op);
        }
        self.shared.stats.cross_core_forwards.fetch_add(1, Ordering::Relaxed);
        self.forward(owner, CoreMsg::Op { to, op });
        None
    }

    /// Route a client's single-key request: answered now when the owner
    /// is this loop and the read did not park.
    fn route_request(&mut self, key: u64, to: ReplyTo, op: Op) -> Dispatch {
        match self.route(self.shared.topo.owner_of(key), to, op) {
            Some(Completion::Reply(reply)) => Dispatch::Reply(reply),
            _ => Dispatch::Pending,
        }
    }

    /// Split a store-push batch by owner and route each non-empty part
    /// (`make_op` wraps one owner's share). This loop's own share
    /// completes inline; the `Ack` goes out now if that was all of it,
    /// otherwise once every forwarded part has reported back.
    fn route_batch<T>(
        &mut self,
        to: ReplyTo,
        seq: u64,
        items: Vec<T>,
        key_of: impl Fn(&T) -> u64,
        make_op: impl Fn(u64, Vec<T>) -> Op,
    ) -> Dispatch {
        self.shared.stats.push_batches.fetch_add(1, Ordering::Relaxed);
        let mut parts: Vec<Vec<T>> = Vec::new();
        parts.resize_with(self.shared.topo.num_loops(), Vec::new);
        for item in items {
            if let Some(part) = parts.get_mut(self.shared.topo.owner_of(key_of(&item))) {
                part.push(item);
            }
        }
        let batch = self.next_batch + 1;
        let mut remaining = 0u32;
        for (owner, part) in parts.into_iter().enumerate() {
            if !part.is_empty() && self.route(owner, to, make_op(batch, part)).is_none() {
                remaining += 1;
            }
        }
        if remaining == 0 {
            return Dispatch::Reply(Message::Ack { seq });
        }
        self.next_batch = batch;
        self.pending.insert(batch, PendingBatch { seq, to, remaining });
        Dispatch::Pending
    }

    /// Run `op` on this loop's owner, now — for ops that arrived on
    /// this loop's own connections and forwarded ones alike. `None`
    /// means a read parked on an origin refetch (`drain_origin` will
    /// complete it); the read that opens a key's fetch also gets its
    /// `FetchReq` queued on the link here, flushed at end of tick.
    fn apply(&mut self, to: ReplyTo, op: Op) -> Option<Completion> {
        match self.owner.apply(to, op, self.shared.clock.now()) {
            Applied::Done(what) => Some(what),
            Applied::Parked { fetch } => {
                // The owner only parks while told the link is up; the
                // if-let keeps this path structurally panic-free
                // regardless.
                if let (Some(key), Some(link)) = (fetch, self.link_mut()) {
                    link.queue(&Message::FetchReq { key });
                }
                None
            }
        }
    }
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
        handle.shared.stats.open_connections.fetch_add(1, Ordering::Relaxed);
        handle.loops[0].mailbox.inbox.lock().conns.push(stream);

        let started = Instant::now();
        let stats = handle.shutdown_graceful();
        assert!(started.elapsed() < Duration::from_secs(1), "held for {:?}", started.elapsed());
        assert_eq!(stats.open_connections, 0);
    }
}
