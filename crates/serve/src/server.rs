//! The event-driven, thread-per-core TCP cache server.
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
//! Cache shards are not shared behind locks — they are **partitioned
//! across the event loops at startup and owned exclusively by one
//! loop** for the server's lifetime. Shard `s` (of `S`, rounded up to a
//! power of two) belongs to loop `s % L`; each loop keeps its owned
//! shards in a plain `Vec<SlabCache>` (slab-backed storage with
//! intrusive recency lists, evicting by `ServerConfig.cache.eviction` —
//! see [`fresca_cache::slab`]) and mutates them through `&mut` with **no
//! locking at all**.
//!
//! Requests are therefore routed *by key*, not just by connection, and
//! every op on owned keys is served one way: `dispatch` describes it as
//! a `ForwardOp`, `route` finds the owner, and the owner's `apply` runs
//! it against the owned shard and returns a `Completion`. Local and
//! forwarded ops differ only in where that completion goes. When the
//! owner is the loop the request arrived on, `apply` runs inline and
//! the reply is queued on the connection then and there. Otherwise the
//! op is **forwarded**: the home loop stages a `CoreMsg::Op` into a
//! per-destination outbox, flushes the batch into the owner's inbox at
//! end of tick (one mutex append + one self-pipe wake byte per
//! destination — the same wakeup channel the accept thread uses), and
//! the request parks exactly like an origin refetch does. The owner
//! applies it and stages the completion — the fully-formed reply — back
//! to the home loop, which queues it on the original connection,
//! matched by `(slot, token)` so a recycled slot can never receive a
//! stranger's reply. The reactor never blocks on a forward; counted in
//! `cross_core_forwards`.
//!
//! Late replies ride the tick exactly like local ones: a completion
//! (from a peer loop, a finished store-push batch, or an origin
//! refetch) is only *queued* on its connection, which is noted in a
//! loop-local dirty list, and the reactor flushes each dirty connection
//! **once** at end of tick. However many completions a wake-up brings
//! for one connection, they leave in one `writev` — counted, together
//! with `service`'s own flush, in `reply_writes`.
//!
//! Because every key has exactly one owner thread, multi-step operations
//! that used to need a shard lock ("allocate a version, then insert")
//! are atomic by construction, and per-key operation order is preserved
//! end-to-end: a connection's requests are decoded in order, same-key
//! operations always route to the same owner, and the inbox queues are
//! FIFO.
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
//! Freshness is enforced *at the serving boundary*, per the paper's
//! argument: a `PutReq` installs its per-key TTL, and a `GetReq`'s
//! max-staleness bound decides between served-fresh, served-stale,
//! refused, and miss — the decision travels back on the wire as a
//! [`GetStatus`] so the client can count staleness violations end-to-end.
//!
//! Small values decoded from large receive chunks are **re-pinned**
//! before they are cached ([`fresca_net::pin::repin_small`], threshold
//! [`DEFAULT_PIN_THRESHOLD`]): a 100-byte payload sliced out of a
//! 64 KiB read would otherwise hold the whole chunk alive for as long
//! as the entry stays cached.
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
//! ## The refetch path
//!
//! With [`ServerConfig::origin`] set, a bounded read that would come
//! back `RefusedStale` or `Miss` does not answer at all — the **owner
//! loop** parks the request on its in-flight-refetch table
//! ([`fresca_cache::refetch::RefetchTable`]) and asks the origin for
//! the key over a per-event-loop non-blocking connection. Concurrent
//! readers of the same key coalesce onto the one in-flight fetch
//! (dogpile guard — and because a key has one owner, coalescing is now
//! global, not per-loop); when the `FetchResp` arrives the entry is
//! installed like a put and every parked reader is answered `Fresh` at
//! age 0 — directly for readers whose connection lives on the owner
//! loop, via a completion message for forwarded ones. The event loop
//! never blocks on the origin: parked requests cost a table entry,
//! unrelated keys keep serving, and if the origin connection dies every
//! parked reader immediately receives the refusal/miss it would have
//! gotten without an origin (counted in `origin_errors`), with
//! reconnection retried on a timer. A store push that reaches the owner
//! while its key's fetch is in flight is remembered: the `FetchResp` on
//! its way may have been read before that write, so once it has been
//! installed and the parked readers answered, the entry is marked
//! known-stale and the next read refetches. Refetching through the origin is
//! also the paper's §3.1 backchannel — the fetch clears the key's
//! invalidation-suppression mark at the store — and each owner loop
//! batches per-key read counts back to the origin as `ReadStats`
//! frames, which is what feeds the adaptive invalidate-vs-update
//! policy's `E[W]` estimator.

use crate::membership::Membership;
use crate::ring::DEFAULT_VNODES;
use crate::ServeClock;
use bytes::Bytes;
use fresca_cache::entry::Freshness;
use fresca_cache::refetch::{Park, RefetchTable};
use fresca_cache::slab::SlabCache;
use fresca_cache::{BoundedGet, CacheConfig, Capacity};
use fresca_net::pin::{repin_small, DEFAULT_PIN_THRESHOLD};
use fresca_net::{
    FramedStream, GetStatus, Message, NonBlockingFramedStream, PollRecv, ReadStat, RequestId,
    UpdateItem,
};
use fresca_sim::SimDuration;
use minipoll::{Interest, PollSet, Readiness};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
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

/// Monotonically updated serving counters, shared across event-loop
/// threads. Relaxed ordering everywhere: these are statistics, not
/// synchronisation.
#[derive(Debug, Default)]
struct ServerStats {
    gets: AtomicU64,
    puts: AtomicU64,
    fresh: AtomicU64,
    stale_served: AtomicU64,
    refused: AtomicU64,
    misses: AtomicU64,
    push_batches: AtomicU64,
    keys_invalidated: AtomicU64,
    keys_updated: AtomicU64,
    connections: AtomicU64,
    open_connections: AtomicU64,
    protocol_errors: AtomicU64,
    refetches: AtomicU64,
    refetch_coalesced: AtomicU64,
    origin_errors: AtomicU64,
    cross_core_forwards: AtomicU64,
    reply_writes: AtomicU64,
    handoff_in: AtomicU64,
    handoff_out: AtomicU64,
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// `GetReq`s handled.
    pub gets: u64,
    /// `PutReq`s handled.
    pub puts: u64,
    /// Reads served fresh (within TTL and bound).
    pub fresh: u64,
    /// Reads served stale (past TTL, within the request's bound).
    pub stale_served: u64,
    /// Reads refused (entry older than the bound, or invalidated).
    pub refused: u64,
    /// Reads that found no entry.
    pub misses: u64,
    /// Store-pushed `Invalidate`/`Update` batches acknowledged.
    pub push_batches: u64,
    /// Keys marked stale by store-pushed `Invalidate` batches (present
    /// keys only; invalidations of uncached keys are not counted here).
    pub keys_invalidated: u64,
    /// Cached entries re-freshened by store-pushed `Update` batches.
    pub keys_updated: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Connections currently registered with an event loop.
    pub open_connections: u64,
    /// Connections dropped for sending non-serving-path or malformed
    /// frames.
    pub protocol_errors: u64,
    /// Origin fetches issued for refused/missed bounded reads (one per
    /// refetch epoch — coalesced readers do not add here).
    pub refetches: u64,
    /// Bounded reads that coalesced onto an already-in-flight refetch
    /// of their key instead of issuing another origin fetch.
    pub refetch_coalesced: u64,
    /// Reads answered with their fallback refusal/miss because the
    /// origin was unreachable or its connection died mid-fetch.
    pub origin_errors: u64,
    /// Operations forwarded to the event loop owning their key's shard
    /// (requests arriving on the owner loop serve inline and do not
    /// count here).
    pub cross_core_forwards: u64,
    /// Flushes of a client connection that had reply bytes to send —
    /// one per connection per tick however many replies it carries, so
    /// `reply_writes / (gets + puts)` is the write syscalls a request
    /// costs. Not part of `Display` or `StatsResp`.
    pub reply_writes: u64,
    /// Live entries across every owned slab shard (gauge, refreshed at
    /// each loop's end of tick).
    pub slab_entries: u64,
    /// Allocated slab slots across every owned shard — the storage
    /// high-water mark (gauge).
    pub slab_capacity: u64,
    /// Current membership epoch (0 = solo, see [`crate::membership`]).
    pub epoch: u64,
    /// Entries installed by inbound key handoff streams (a joining or
    /// rebalancing peer streamed them here as install-mode updates).
    pub handoff_in: u64,
    /// Entries streamed out to their new owners after a membership
    /// change moved them off this node.
    pub handoff_out: u64,
}

impl ServerStats {
    fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            fresh: self.fresh.load(Ordering::Relaxed),
            stale_served: self.stale_served.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            push_batches: self.push_batches.load(Ordering::Relaxed),
            keys_invalidated: self.keys_invalidated.load(Ordering::Relaxed),
            keys_updated: self.keys_updated.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            open_connections: self.open_connections.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            refetches: self.refetches.load(Ordering::Relaxed),
            refetch_coalesced: self.refetch_coalesced.load(Ordering::Relaxed),
            origin_errors: self.origin_errors.load(Ordering::Relaxed),
            cross_core_forwards: self.cross_core_forwards.load(Ordering::Relaxed),
            reply_writes: self.reply_writes.load(Ordering::Relaxed),
            slab_entries: 0,
            slab_capacity: 0,
            epoch: 0,
            handoff_in: self.handoff_in.load(Ordering::Relaxed),
            handoff_out: self.handoff_out.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Display for ServerStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gets={} puts={} fresh={} stale_served={} refused={} misses={} \
             refetches={} coalesced={} origin_errs={} forwards={} \
             push_batches={} keys_invalidated={} keys_updated={} \
             slab={}/{} conns={} open={} proto_errs={} \
             epoch={} handoff_in={} handoff_out={}",
            self.gets,
            self.puts,
            self.fresh,
            self.stale_served,
            self.refused,
            self.misses,
            self.refetches,
            self.refetch_coalesced,
            self.origin_errors,
            self.cross_core_forwards,
            self.push_batches,
            self.keys_invalidated,
            self.keys_updated,
            self.slab_entries,
            self.slab_capacity,
            self.connections,
            self.open_connections,
            self.protocol_errors,
            self.epoch,
            self.handoff_in,
            self.handoff_out
        )
    }
}

/// Shard-routing hash: the two-constant SplitMix variant. Deliberately
/// *not* the three-constant round the slab's key index finalises with
/// ([`fresca_cache::slab::SplitMixHasher`]) — shard selection keys on
/// the low bits, and reusing the index hash would put every key of a
/// shard into the same index buckets.
#[inline]
fn shard_hash(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z ^ (z >> 31)
}

/// The static shard → loop partition every thread routes by.
#[derive(Debug, Clone, Copy)]
struct Topology {
    /// Global shard count minus one (shard count is a power of two).
    shard_mask: u64,
    num_loops: usize,
}

impl Topology {
    #[inline]
    fn shard_of(&self, key: u64) -> usize {
        (shard_hash(key) & self.shard_mask) as usize
    }

    /// The loop owning `key`'s shard.
    #[inline]
    fn owner_of(&self, key: u64) -> usize {
        self.shard_of(key) % self.num_loops
    }

    /// Index of `key`'s shard within its owner's `Vec<SlabCache>`.
    #[inline]
    fn local_index(&self, key: u64) -> usize {
        self.shard_of(key) / self.num_loops
    }

    /// How many shards `loop_id` owns.
    fn owned_shards(&self, loop_id: usize) -> usize {
        let total = self.shard_mask as usize + 1;
        (loop_id..total).step_by(self.num_loops.max(1)).count()
    }
}

/// Work for the handoff streamer thread, which keeps blocking sends off
/// the event loops: announce the view `(epoch, members)` to `dest` via
/// `RingUpdate`, then stream `items` there as install-mode `Update`
/// batches — none when there is only a membership change to announce.
struct Handoff {
    dest: String,
    epoch: u64,
    members: Vec<String>,
    items: Vec<UpdateItem>,
}

/// Everything an event loop needs to dispatch requests.
struct Shared {
    stats: Arc<ServerStats>,
    // One global version counter: versions are monotone across all keys,
    // which is stronger than the per-key monotonicity clients rely on.
    // Per-key alloc+insert needs no lock: a key's owner thread is the
    // only writer of its shard, so the two steps cannot interleave.
    versions: AtomicU64,
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
    /// Queue into the handoff streamer thread. Behind a mutex only to
    /// be `Sync`; membership changes are rare, contention is nil.
    handoff_tx: Mutex<mpsc::Sender<Handoff>>,
}

impl Shared {
    fn snapshot(&self) -> ServerStatsSnapshot {
        let mut snap = self.stats.snapshot();
        snap.slab_entries = self.slab_entries.iter().map(|g| g.load(Ordering::Relaxed)).sum();
        snap.slab_capacity = self.slab_capacity.iter().map(|g| g.load(Ordering::Relaxed)).sum();
        snap.epoch = self.membership.lock().epoch;
        snap
    }

    /// Hand work to the streamer thread; a send failure means the
    /// streamer exited (process teardown) and the handoff degrades to
    /// cold misses at the new owner — by design never an error.
    fn send_handoff(&self, cmd: Handoff) {
        let _ = self.handoff_tx.lock().send(cmd);
    }
}

/// An operation on keys that all live in shards of one loop — what
/// `dispatch` builds from a request, what `route` hands to the owner
/// (inline or through its inbox), and what the owner's `apply` runs.
enum ForwardOp {
    /// A bounded read; the owner replies or parks it on its refetch
    /// table.
    Get { id: RequestId, key: u64, max_staleness: u64 },
    /// A write; the owner allocates the version and installs.
    Put { id: RequestId, key: u64, value: Bytes, ttl: u64 },
    /// One owner's sub-batch of a store-pushed `Invalidate`; a
    /// forwarded part's completion decrements the home loop's pending
    /// batch `batch`.
    InvalidateKeys { batch: u64, keys: Vec<u64> },
    /// One owner's sub-batch of a store-pushed `Update`. `install` is
    /// true for handoff streams (see [`Conn::handoff`]): absent keys
    /// are installed instead of counting as missed updates.
    UpdateItems { batch: u64, items: Vec<UpdateItem>, install: bool },
}

/// What `apply` hands back for a finished op: queued on the connection
/// directly when the op ran on its home loop, sent there as
/// `CoreMsg::Done` otherwise.
enum Completion {
    /// A fully-formed reply to queue on the originating connection.
    Reply(Message),
    /// One owner finished its sub-batch of pending batch `batch`.
    BatchPart { batch: u64 },
}

/// A message between event loops (or from [`ServerHandle`]), carried
/// through the destination's inbox + self-pipe wake.
enum CoreMsg {
    /// Forwarded operation: `from` is the home loop the completion goes
    /// back to; `(slot, token)` name the originating connection there.
    Op { from: usize, slot: usize, token: u64, op: ForwardOp },
    /// A completion routed back to the home loop's connection.
    Done { slot: usize, token: u64, what: Completion },
    /// Control-plane invalidation from [`ServerHandle::invalidate`],
    /// answered over the one-shot channel (`true` if the key was
    /// cached). Always addressed to the key's owner loop.
    Invalidate { key: u64, reply: mpsc::Sender<bool> },
    /// The membership view changed: rescan this loop's owned shards and
    /// stream entries that now belong to other nodes to the handoff
    /// thread. Broadcast to every loop by whichever loop adopted the
    /// new view.
    Rebalance,
}

/// A store-push batch waiting on forwarded sub-batches; the `Ack` goes
/// out when `remaining` owners have reported back.
struct PendingBatch {
    seq: u64,
    slot: usize,
    token: u64,
    remaining: u32,
}

/// What the accept thread (and peer loops) deposit for an event loop:
/// freshly accepted sockets and cross-core messages, drained together
/// on the next wake.
#[derive(Default)]
struct LoopInbox {
    conns: Vec<TcpStream>,
    msgs: Vec<CoreMsg>,
}

/// One row of a loop's routing table: where to deposit messages for a
/// destination loop and how to wake it.
struct Peer {
    inbox: Arc<Mutex<LoopInbox>>,
    // Writing one byte wakes the loop's poll; non-blocking, so a full
    // pipe (wake already pending) is fine to ignore.
    wake_tx: UnixStream,
}

/// Accept-side handle to one event loop.
struct LoopHandle {
    inbox: Arc<Mutex<LoopInbox>>,
    wake_tx: UnixStream,
    join: JoinHandle<()>,
}

impl LoopHandle {
    fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }
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
    let num_loops = config.event_loops.max(1);
    let shards = config.shards.max(1).next_power_of_two();
    let topo = Topology { shard_mask: shards as u64 - 1, num_loops };
    let stats = Arc::new(ServerStats::default());
    let (handoff_tx, handoff_rx) = mpsc::channel();
    {
        let stats = Arc::clone(&stats);
        std::thread::spawn(move || run_handoff_streamer(handoff_rx, stats));
    }
    let shared = Arc::new(Shared {
        stats,
        versions: AtomicU64::new(0),
        clock: ServeClock::start(),
        stop: AtomicBool::new(false),
        drain: AtomicBool::new(false),
        topo,
        slab_entries: (0..num_loops).map(|_| AtomicU64::new(0)).collect(),
        slab_capacity: (0..num_loops).map(|_| AtomicU64::new(0)).collect(),
        membership: Mutex::new(Membership::solo()),
        advertise: advertise.unwrap_or_else(|| addr.to_string()),
        handoff_tx: Mutex::new(handoff_tx),
    });

    // Every loop's inbox and wake endpoint exist before any thread
    // starts, so each loop can carry a complete routing table of its
    // peers from its first tick.
    let mut endpoints: Vec<(Arc<Mutex<LoopInbox>>, UnixStream)> = Vec::with_capacity(num_loops);
    let mut wake_rxs = Vec::with_capacity(num_loops);
    for _ in 0..num_loops {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        endpoints.push((Arc::new(Mutex::new(LoopInbox::default())), wake_tx));
        wake_rxs.push(wake_rx);
    }

    let mut loops = Vec::with_capacity(num_loops);
    for (loop_id, wake_rx) in wake_rxs.into_iter().enumerate() {
        let peers: Vec<Peer> = endpoints
            .iter()
            .map(|(inbox, tx)| Ok(Peer { inbox: Arc::clone(inbox), wake_tx: tx.try_clone()? }))
            .collect::<io::Result<_>>()?;
        let inbox = Arc::clone(&endpoints[loop_id].0);
        let wake_tx = endpoints[loop_id].1.try_clone()?;
        let join = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                EventLoop::new(loop_id, wake_rx, peers, shared, config).run();
            })
        };
        loops.push(LoopHandle { inbox, wake_tx, join });
    }

    let accept_loop = {
        let shared = Arc::clone(&shared);
        let mut targets: Vec<(Arc<Mutex<LoopInbox>>, UnixStream)> = loops
            .iter()
            .map(|l| Ok((Arc::clone(&l.inbox), l.wake_tx.try_clone()?)))
            .collect::<io::Result<_>>()?;
        std::thread::spawn(move || {
            let mut next = 0usize;
            for conn in listener.incoming() {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(conn) = conn else { continue };
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                shared.stats.open_connections.fetch_add(1, Ordering::Relaxed);
                let n = targets.len();
                let (inbox, wake) = &mut targets[next % n];
                next += 1;
                inbox.lock().conns.push(conn);
                let _ = wake.write(&[1]);
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
        let owner = self.shared.topo.owner_of(key);
        let Some(l) = self.loops.get(owner) else { return false };
        let (tx, rx) = mpsc::channel();
        l.inbox.lock().msgs.push(CoreMsg::Invalidate { key, reply: tx });
        l.wake();
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
            l.wake();
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
    /// Loop-unique identity for this registration. Parked refetch
    /// waiters and cross-core completions name their connection by
    /// `(slot, token)`; the token is what stops a reply from landing on
    /// an unrelated connection that reused the slot after the original
    /// closed.
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

/// A parked bounded read, waiting on an origin refetch of its key at
/// the key's owner loop. `home` is the loop whose connection table
/// `(slot, token)` index into — the owner delivers directly when that
/// is itself, via a completion message otherwise. The fallback fields
/// reconstruct the reply the request would have gotten with no origin,
/// for delivery if the fetch fails.
struct Waiter {
    home: usize,
    slot: usize,
    token: u64,
    id: RequestId,
    fallback_status: GetStatus,
    fallback_age: u64,
}

/// The non-blocking origin connection one event loop refetches through.
struct OriginLink {
    io: NonBlockingFramedStream<TcpStream>,
    fd: RawFd,
}

/// Per-event-loop origin state: the link (when up), the in-flight
/// refetch table, and the read-count batch owed to the origin's
/// `E[W]` estimator.
struct OriginCtx {
    addr: SocketAddr,
    link: Option<OriginLink>,
    /// Don't re-attempt a failed connect before this instant.
    retry_at: Option<Instant>,
    table: RefetchTable<Waiter>,
    /// Keys a store push reached while their fetch was in flight. The
    /// `FetchResp` on its way may predate that write, and the origin
    /// already counts the key as invalidated (§3.1 suppression), so no
    /// later push would correct it: `drain_origin` answers the parked
    /// readers and then invalidates the entry it just installed.
    overtaken: HashSet<u64>,
    read_counts: HashMap<u64, u32>,
    reads_pending: u32,
}

/// How long a (blocking, inline) origin connect attempt may take. Kept
/// short: it runs on the event-loop thread when a park finds the link
/// down and the retry timer expired.
const ORIGIN_CONNECT_TIMEOUT: Duration = Duration::from_millis(100);

/// Backoff between origin connect attempts. While it runs, refused and
/// missed reads degrade to their fallback replies immediately.
const ORIGIN_RETRY: Duration = Duration::from_secs(1);

/// Flush the pending read-count batch to the origin once this many
/// reads accumulate…
const READ_STATS_FLUSH_READS: u32 = 1024;

/// …or once this many distinct keys do, whichever comes first.
const READ_STATS_FLUSH_KEYS: usize = 256;

/// With the origin link down, stop hoarding read counts past this many
/// distinct keys — the estimator feed is advisory, memory is not.
const READ_STATS_MAX_BUFFERED_KEYS: usize = 4096;

impl OriginCtx {
    fn new(addr: SocketAddr) -> Self {
        OriginCtx {
            addr,
            link: None,
            retry_at: None,
            table: RefetchTable::new(),
            overtaken: HashSet::new(),
            read_counts: HashMap::new(),
            reads_pending: 0,
        }
    }

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
                let fd = stream.as_raw_fd();
                self.link = Some(OriginLink { io: NonBlockingFramedStream::new(stream), fd });
                self.retry_at = None;
                true
            }
            Err(_) => {
                self.retry_at = Some(now + ORIGIN_RETRY);
                false
            }
        }
    }

    /// A store push for `key` arrived: remember it if a fetch of the key
    /// is in flight (see `overtaken`).
    fn note_push(&mut self, key: u64) {
        if self.table.is_in_flight(key) {
            self.overtaken.insert(key);
        }
    }

    /// Count one read of `key` toward the next `ReadStats` batch.
    fn count_read(&mut self, key: u64) {
        *self.read_counts.entry(key).or_insert(0) += 1;
        self.reads_pending += 1;
    }

    /// Queue the pending read-count batch on the link when it is due
    /// (or shed it when the link is down and the buffer outgrew its
    /// cap). The caller flushes the link afterwards.
    fn queue_read_stats(&mut self) {
        match &mut self.link {
            None => {
                if self.read_counts.len() > READ_STATS_MAX_BUFFERED_KEYS {
                    self.read_counts.clear();
                    self.reads_pending = 0;
                }
            }
            Some(link) => {
                if self.reads_pending >= READ_STATS_FLUSH_READS
                    || self.read_counts.len() >= READ_STATS_FLUSH_KEYS
                {
                    let entries: Vec<ReadStat> = self
                        .read_counts
                        .drain()
                        .map(|(key, reads)| ReadStat { key, reads })
                        .collect();
                    self.reads_pending = 0;
                    if !entries.is_empty() {
                        link.io.queue(&Message::ReadStats { entries });
                    }
                }
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

/// One event-loop thread: the poll reactor plus the slab shards this
/// loop exclusively owns. All shard access happens through `&mut self`
/// on this thread — the serving hot path takes no lock.
struct EventLoop {
    loop_id: usize,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    /// The owned shards, indexed by [`Topology::local_index`].
    shards: Vec<SlabCache>,
    /// Routing table to every loop (the self entry doubles as this
    /// loop's own inbox).
    peers: Vec<Peer>,
    /// Per-destination staging for cross-core messages; flushed into
    /// peer inboxes (one lock + one wake each) at end of tick.
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
    /// outbound queue this tick (see `deliver_to`); flushed once each
    /// and cleared at end of tick, so an entry never outlives the tick
    /// that pushed it.
    dirty: Vec<usize>,
    /// Graceful-shutdown drain in progress: no new reads, exit once
    /// every connection has received everything it is owed (or the
    /// drain grace period expires).
    draining: bool,
    drain_started: Option<Instant>,
}

impl EventLoop {
    fn new(
        loop_id: usize,
        wake_rx: UnixStream,
        peers: Vec<Peer>,
        shared: Arc<Shared>,
        config: ServerConfig,
    ) -> Self {
        // Per-shard capacity divides the configured total across the
        // *global* shard count, so the aggregate matches the configured
        // total.
        let total_shards = shared.topo.shard_mask as usize + 1;
        let per_shard = match config.cache.capacity {
            Capacity::Entries(e) => Capacity::Entries((e / total_shards).max(1)),
            Capacity::Bytes(b) => Capacity::Bytes((b / total_shards as u64).max(1)),
            Capacity::Unbounded => Capacity::Unbounded,
        };
        let owned = shared.topo.owned_shards(loop_id);
        let num_loops = shared.topo.num_loops;
        let mut origin = config.origin.map(OriginCtx::new);
        if let Some(ctx) = &mut origin {
            // Dial the origin eagerly so the first refused read parks
            // instead of paying the connect on its own request path.
            ctx.ensure_link();
        }
        EventLoop {
            loop_id,
            wake_rx,
            shared,
            shards: (0..owned)
                .map(|_| SlabCache::with_config(CacheConfig { capacity: per_shard, ..config.cache }))
                .collect(),
            peers,
            outbox: (0..num_loops).map(|_| Vec::new()).collect(),
            conns: Vec::new(),
            free: Vec::new(),
            next_token: 0,
            origin,
            pending: HashMap::new(),
            next_batch: 0,
            dirty: Vec::new(),
            draining: false,
            drain_started: None,
        }
    }

    /// Index of `key`'s shard in `self.shards` — only meaningful on the
    /// owner loop.
    #[inline]
    fn local_shard(&self, key: u64) -> usize {
        self.shared.topo.local_index(key)
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
            let link_polled = match self.origin.as_ref().and_then(|c| c.link.as_ref()) {
                Some(link) => {
                    let mut interest = Interest::READABLE;
                    if link.io.wants_write() {
                        interest = interest.and(Interest::WRITABLE);
                    }
                    backlog |= link.io.has_buffered_frame();
                    poll.push(link.fd, interest);
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
                    // completions, which `deliver_to` queues and
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
            } else if self.draining {
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
                        Ok(conn) => match self.free.pop() {
                            Some(slot) => self.conns[slot] = Some(conn),
                            None => self.conns.push(Some(conn)),
                        },
                        Err(_) => {
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
                let readiness = poll.readiness(1);
                let buffered = self
                    .origin
                    .as_ref()
                    .is_some_and(|c| c.link.as_ref().is_some_and(|l| l.io.has_buffered_frame()));
                if readiness.any() || buffered {
                    self.drain_origin(&mut scratch);
                }
            }

            for (i, &slot) in slot_of.iter().enumerate() {
                let readiness = poll.readiness(base + i);
                // Registered slots stay populated for the whole tick; a
                // vacant slot here would be a reactor bug, but the serving
                // loop must not be able to panic — skip it instead. The
                // connection is moved out of its slot while being serviced
                // so the dispatch path can borrow the loop's shards freely.
                let Some(mut conn) = self.conns[slot].take() else { continue };
                if !readiness.any() && (conn.closing || !conn.io.has_buffered_frame()) {
                    self.conns[slot] = Some(conn);
                    continue;
                }
                if self.service(&mut conn, slot, readiness, &mut scratch) {
                    self.conns[slot] = Some(conn);
                } else {
                    self.free.push(slot);
                    self.shared.stats.open_connections.fetch_sub(1, Ordering::Relaxed);
                }
            }

            // End of tick: push the owed read-count batch and any FetchReqs
            // queued while servicing connections. A write failure here is
            // an origin outage — fail every parked waiter to its fallback
            // and start the reconnect backoff.
            if let Some(mut ctx) = self.origin.take() {
                ctx.queue_read_stats();
                if let Some(link) = &mut ctx.link {
                    if link.io.wants_write() && link.io.flush().is_err() {
                        self.origin_outage(&mut ctx);
                    }
                }
                self.origin = Some(ctx);
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
            if self.draining && self.drain_done() {
                self.close_all();
                return;
            }
        }
    }

    /// Enter graceful-drain mode: every connection stops reading new
    /// requests (marked closing) but keeps its queued replies and
    /// in-flight completions; fully-drained connections drop now.
    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.drain_started = Some(Instant::now());
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns[slot].take() else { continue };
            conn.closing = true;
            let done = match conn.io.flush() {
                Ok(_) => !conn.io.wants_write() && conn.in_flight == 0,
                Err(_) => true,
            };
            if done {
                self.free.push(slot);
                self.shared.stats.open_connections.fetch_sub(1, Ordering::Relaxed);
            } else {
                self.conns[slot] = Some(conn);
            }
        }
    }

    /// True when the drain has nothing left to wait for: every
    /// connection server-wide has been answered and closed, or the
    /// grace period expired (a peer that will not read its replies does
    /// not get to hold shutdown hostage forever).
    fn drain_done(&self) -> bool {
        if self.drain_started.is_some_and(|t| t.elapsed() >= DRAIN_GRACE) {
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

    /// Route a completion for `(slot, token)` on loop `home` — directly
    /// into the local connection table when `home` is this loop, staged
    /// as a cross-core message otherwise.
    fn stage_done(&mut self, home: usize, slot: usize, token: u64, what: Completion) {
        if home == self.loop_id {
            self.handle_core_msg(CoreMsg::Done { slot, token, what });
        } else {
            self.forward(home, CoreMsg::Done { slot, token, what });
        }
    }

    /// Hand every non-empty outbox batch to its destination loop: one
    /// lock acquisition to append, one wake byte. Batch vectors are
    /// recycled to keep the steady state allocation-free.
    fn flush_outboxes(&mut self) {
        for dest in 0..self.outbox.len() {
            if self.outbox[dest].is_empty() {
                continue;
            }
            let mut batch = std::mem::take(&mut self.outbox[dest]);
            self.peers[dest].inbox.lock().msgs.append(&mut batch);
            let _ = (&self.peers[dest].wake_tx).write(&[1]);
            self.outbox[dest] = batch;
        }
    }

    /// Publish this loop's slab occupancy into the shared per-loop
    /// gauges (summed by stats snapshots and `StatsResp`).
    fn publish_gauges(&self) {
        let entries: u64 = self.shards.iter().map(|s| s.len() as u64).sum();
        let capacity: u64 = self.shards.iter().map(|s| s.slab_capacity() as u64).sum();
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
            CoreMsg::Op { from, slot, token, op } => {
                if let Some(what) = self.apply(from, slot, token, op) {
                    self.stage_done(from, slot, token, what);
                }
            }
            CoreMsg::Done { slot, token, what } => match what {
                Completion::Reply(reply) => self.deliver_to(slot, token, &reply),
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
                            self.deliver_to(p.slot, p.token, &Message::Ack { seq: p.seq });
                        }
                    }
                }
            },
            CoreMsg::Invalidate { key, reply } => {
                let _ = reply.send(self.serve_invalidate(&[key]) > 0);
            }
            CoreMsg::Rebalance => self.rebalance(),
        }
    }

    /// Queue `reply` on the connection at `(slot, token)`; `flush_dirty`
    /// writes it out at end of tick, together with every other late
    /// reply the tick brings for that connection. A queue that already
    /// holds bytes needs no dirty entry: either an earlier call this
    /// tick made one, or a would-block tail keeps the connection in the
    /// poll set with write interest and `service` finishes it. Skips
    /// connections that closed (the slot token no longer matches).
    fn deliver_to(&mut self, slot: usize, token: u64, reply: &Message) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        if conn.token != token {
            return;
        }
        conn.in_flight = conn.in_flight.saturating_sub(1);
        if !conn.io.wants_write() {
            self.dirty.push(slot);
        }
        conn.io.queue(reply);
    }

    /// Push this tick's late replies toward their sockets: one flush
    /// per dirty connection. Drops the connection on a transport error,
    /// exactly like `service`, and once the last in-flight reply of a
    /// closing connection has drained (it is not in the poll set, so
    /// nothing else would drop it); a would-block tail keeps write
    /// interest registered for the next tick.
    fn flush_dirty(&mut self) {
        for &slot in &self.dirty {
            // `service` may have flushed or dropped the connection since
            // it was marked; both leave nothing to do here.
            let Some(entry) = self.conns.get_mut(slot) else { continue };
            let Some(conn) = entry.as_mut() else { continue };
            if conn.io.wants_write() {
                self.shared.stats.reply_writes.fetch_add(1, Ordering::Relaxed);
            }
            let drop_now = match conn.io.flush() {
                Ok(_) => conn.closing && conn.in_flight == 0 && !conn.io.wants_write(),
                Err(_) => true,
            };
            if drop_now {
                *entry = None;
                self.free.push(slot);
                self.shared.stats.open_connections.fetch_sub(1, Ordering::Relaxed);
            }
        }
        self.dirty.clear();
    }

    /// Drain FetchResps from the origin link (bounded per tick, like any
    /// other connection): install each fetched entry like a put and answer
    /// every reader parked on its key with a fresh age-0 response. Any
    /// transport error or protocol violation on the link is an outage.
    fn drain_origin(&mut self, scratch: &mut [u8]) {
        let Some(mut ctx) = self.origin.take() else { return };
        let mut budget = MAX_FRAMES_PER_TICK;
        let mut failed = false;
        while budget > 0 {
            budget -= 1;
            let Some(link) = ctx.link.as_mut() else { break };
            match link.io.poll_recv_with(scratch) {
                Ok(PollRecv::Msg(Message::FetchResp { key, version: _, value })) => {
                    // Install into the owned shard with a serving version
                    // from this node's counter (the store's version is a
                    // different domain — see the Update arm of dispatch).
                    // No TTL: the entry is fresh until invalidated/evicted.
                    // Owner-thread exclusivity makes alloc+insert atomic.
                    let now = self.shared.clock.now();
                    let value = repin_small(value, DEFAULT_PIN_THRESHOLD);
                    let version = self.shared.versions.fetch_add(1, Ordering::Relaxed) + 1;
                    let li = self.local_shard(key);
                    if let Some(shard) = self.shards.get_mut(li) {
                        shard.insert_value(key, version, value.clone(), now, None);
                    }
                    for w in ctx.table.complete(key) {
                        self.shared.stats.fresh.fetch_add(1, Ordering::Relaxed);
                        let reply =
                            get_resp(w.id, key, GetStatus::Fresh, 0, Some((version, value.clone())));
                        self.stage_done(w.home, w.slot, w.token, Completion::Reply(reply));
                    }
                    if ctx.overtaken.remove(&key) {
                        // A push overtook this fetch: the value may be
                        // the one that push superseded, so the next read
                        // refetches (re-clearing the origin's mark).
                        if let Some(shard) = self.shards.get_mut(li) {
                            shard.apply_invalidate(key);
                        }
                    }
                }
                Ok(PollRecv::WouldBlock) => break,
                Ok(PollRecv::Msg(_)) | Ok(PollRecv::Closed) | Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            self.origin_outage(&mut ctx);
        }
        self.origin = Some(ctx);
    }

    /// The origin connection died: drop the link, arm the reconnect
    /// backoff, and answer every parked reader with the refusal/miss it
    /// would have gotten without an origin.
    fn origin_outage(&mut self, ctx: &mut OriginCtx) {
        ctx.link = None;
        ctx.retry_at = Some(Instant::now() + ORIGIN_RETRY);
        ctx.overtaken.clear();
        for (key, waiters) in ctx.table.fail_all() {
            for w in waiters {
                self.shared.stats.origin_errors.fetch_add(1, Ordering::Relaxed);
                self.count_read_outcome(w.fallback_status);
                let reply = get_resp(w.id, key, w.fallback_status, w.fallback_age, None);
                self.stage_done(w.home, w.slot, w.token, Completion::Reply(reply));
            }
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
    /// mark), dispatch, queue replies, then write as much as the socket
    /// accepts. Returns `false` when the connection should be dropped —
    /// which, for a clean EOF or a protocol violation, only happens after
    /// every already-queued reply has drained (a half-closing client still
    /// receives its responses).
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
        // Push queued replies; leftover bytes keep write interest registered
        // for the next tick. A closing connection lives until its last
        // reply byte leaves — including replies still in flight on other
        // cores, which `deliver_to` queues when they complete (and
        // `flush_dirty` then drops the drained connection).
        if conn.io.wants_write() {
            self.shared.stats.reply_writes.fetch_add(1, Ordering::Relaxed);
        }
        match conn.io.flush() {
            Ok(_) => !conn.closing || conn.io.wants_write() || conn.in_flight > 0,
            Err(_) => false,
        }
    }

    /// Map one request onto the partitioned cache; [`Dispatch::Close`]
    /// for messages that do not belong on a cache node's socket.
    /// Serving-path requests (`GetReq`, `PutReq`) come from clients,
    /// store-path batches (`Invalidate`, `Update`) from a store-push
    /// node: each is described as a [`ForwardOp`] (a batch as one per
    /// owner, acknowledged by `seq` once every sub-batch completes) and
    /// handed to [`route`](Self::route). `StatsReq` comes from a load
    /// generator pinning down the refetch and forwarding counters.
    /// Membership frames (`RingReq`, `RingUpdate`, `JoinReq`,
    /// `LeaveReq`) are control-plane traffic on the same socket — see
    /// [`crate::membership`] for the adoption rules they follow.
    fn dispatch(&mut self, msg: Message, conn: &mut Conn, slot: usize) -> Dispatch {
        let token = conn.token;
        match msg {
            Message::GetReq { id, key, max_staleness } => {
                self.shared.stats.gets.fetch_add(1, Ordering::Relaxed);
                self.route_request(key, slot, token, ForwardOp::Get { id, key, max_staleness })
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
                self.route_request(key, slot, token, ForwardOp::Put { id, key, value, ttl })
            }
            Message::Invalidate { seq, keys } => {
                // A store-pushed batch: every owner marks its share of
                // the keys stale, and the whole batch is acked by seq
                // once every part reports back. Keys the cache does not
                // hold are no-ops (counted by the cache as missed
                // invalidations), exactly like the simulation path.
                self.route_batch(slot, token, seq, keys, |&key| key, |batch, keys| {
                    ForwardOp::InvalidateKeys { batch, keys }
                })
            }
            Message::Update { seq, items } => {
                // A store-pushed refresh batch: re-freshen every cached
                // entry in it, split by owner like an invalidation. The
                // pushed item carries the *store's* version, which lives
                // in a different counter domain than this node's serving
                // versions — so each owner allocates a fresh serving
                // version for each entry it refreshes, keeping the global
                // monotonicity clients' anomaly checks rely on. Absent
                // keys do nothing, per the paper's update semantics;
                // pushed updates carry no TTL, so refreshed entries are
                // fresh until invalidated or evicted.
                //
                // Handoff streams reuse the Update machinery in install
                // mode (see `Conn::handoff`): absent keys are installed,
                // moving ownership, instead of counting as missed
                // updates.
                let install = conn.handoff;
                self.route_batch(slot, token, seq, items, |item| item.key, |batch, items| {
                    ForwardOp::UpdateItems { batch, items, install }
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
                    self.shared.send_handoff(Handoff {
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
        for dest in 0..self.shared.topo.num_loops {
            if dest == self.loop_id {
                self.rebalance();
            } else {
                self.forward(dest, CoreMsg::Rebalance);
            }
        }
    }

    /// Rescan this loop's owned shards against the current membership
    /// view: entries whose owner is now another node are removed here
    /// and handed to the streamer thread, grouped per destination.
    /// Only *servably fresh* entries travel — an invalidated or
    /// TTL-expired entry must not be resurrected as fresh on the new
    /// owner, so those are simply dropped (a cold miss there, never a
    /// silent staleness violation). Handoff is an optimisation, not a
    /// correctness requirement: any key that fails to move is re-fetched
    /// or re-written at its new owner like any cold key.
    fn rebalance(&mut self) {
        let view = self.shared.membership.lock().clone();
        // Solo nodes (empty view) keep everything: there is no
        // "elsewhere" to stream to. A node *absent* from a non-empty
        // view is the graceful-leave case — every key it holds now
        // belongs to some survivor, so the scan below (where `owner ==
        // advertise` never matches) drains its shards completely.
        let Some(ring) = view.ring(DEFAULT_VNODES) else { return };
        let now = self.shared.clock.now();
        let mut moved: HashMap<String, Vec<UpdateItem>> = HashMap::new();
        for shard in &mut self.shards {
            let keys: Vec<u64> = shard.keys().collect();
            for key in keys {
                let Some(owner) = ring.node_for(key) else { continue };
                if owner == self.shared.advertise {
                    continue;
                }
                if let Some(entry) = shard.peek(key) {
                    let servable = entry.state == Freshness::Fresh
                        && entry.expires_at.is_none_or(|at| now < at);
                    if servable {
                        moved.entry(owner.to_string()).or_default().push(UpdateItem {
                            key,
                            version: entry.version,
                            value: entry.value.clone(),
                        });
                    }
                }
                shard.remove(key);
            }
        }
        for (dest, items) in moved {
            self.shared.send_handoff(Handoff {
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
    /// [`deliver_to`](Self::deliver_to).
    fn route(&mut self, owner: usize, slot: usize, token: u64, op: ForwardOp) -> Option<Completion> {
        if owner == self.loop_id {
            return self.apply(owner, slot, token, op);
        }
        self.shared.stats.cross_core_forwards.fetch_add(1, Ordering::Relaxed);
        self.forward(owner, CoreMsg::Op { from: self.loop_id, slot, token, op });
        None
    }

    /// Route a client's single-key request: answered now when the owner
    /// is this loop and the read did not park.
    fn route_request(&mut self, key: u64, slot: usize, token: u64, op: ForwardOp) -> Dispatch {
        match self.route(self.shared.topo.owner_of(key), slot, token, op) {
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
        slot: usize,
        token: u64,
        seq: u64,
        items: Vec<T>,
        key_of: impl Fn(&T) -> u64,
        make_op: impl Fn(u64, Vec<T>) -> ForwardOp,
    ) -> Dispatch {
        self.shared.stats.push_batches.fetch_add(1, Ordering::Relaxed);
        let mut parts: Vec<Vec<T>> = Vec::new();
        parts.resize_with(self.shared.topo.num_loops, Vec::new);
        for item in items {
            if let Some(part) = parts.get_mut(self.shared.topo.owner_of(key_of(&item))) {
                part.push(item);
            }
        }
        let batch = self.next_batch + 1;
        let mut remaining = 0u32;
        for (owner, part) in parts.into_iter().enumerate() {
            if !part.is_empty() && self.route(owner, slot, token, make_op(batch, part)).is_none() {
                remaining += 1;
            }
        }
        if remaining == 0 {
            return Dispatch::Reply(Message::Ack { seq });
        }
        self.next_batch = batch;
        self.pending.insert(batch, PendingBatch { seq, slot, token, remaining });
        Dispatch::Pending
    }

    /// Run `op` against this loop's shards — the single entry to the
    /// owner-local serving functions below, for ops that arrived on this
    /// loop's own connections (`home == loop_id`) and forwarded ones
    /// alike. `home`/`slot`/`token` name the originating connection on
    /// its home loop; `None` means a read parked on an origin refetch
    /// and `drain_origin` will complete it.
    fn apply(&mut self, home: usize, slot: usize, token: u64, op: ForwardOp) -> Option<Completion> {
        match op {
            ForwardOp::Get { id, key, max_staleness } => {
                let reply = self.serve_get(home, slot, token, id, key, max_staleness)?;
                Some(Completion::Reply(reply))
            }
            ForwardOp::Put { id, key, value, ttl } => {
                let version = self.serve_put(key, value, ttl);
                Some(Completion::Reply(Message::PutResp { id, key, version }))
            }
            ForwardOp::InvalidateKeys { batch, keys } => {
                let applied = self.serve_invalidate(&keys);
                self.shared.stats.keys_invalidated.fetch_add(applied, Ordering::Relaxed);
                Some(Completion::BatchPart { batch })
            }
            ForwardOp::UpdateItems { batch, items, install } => {
                let applied = self.serve_update(items, install);
                self.shared.stats.keys_updated.fetch_add(applied, Ordering::Relaxed);
                Some(Completion::BatchPart { batch })
            }
        }
    }

    // ---- owner-local serving ------------------------------------------
    //
    // Everything below is called from `apply` (and the control-plane
    // `CoreMsg::Invalidate`) only, runs on the loop that owns the key's
    // shard and touches the shard through plain `&mut` — the serving hot
    // path holds no lock (enforced by fresca-lint's lock-free-serve-path
    // rule).

    /// Owner-local bounded read. `None` means the request was parked on
    /// an origin refetch and will be answered by `drain_origin`.
    fn serve_get(
        &mut self,
        home: usize,
        slot: usize,
        token: u64,
        id: RequestId,
        key: u64,
        max_staleness: u64,
    ) -> Option<Message> {
        if let Some(ctx) = self.origin.as_mut() {
            // Every read feeds the origin's E[W] estimator — parked or
            // answered, each counts exactly once, on the owner loop.
            ctx.count_read(key);
        }
        let now = self.shared.clock.now();
        let bound = (max_staleness != u64::MAX).then(|| SimDuration::from_nanos(max_staleness));
        let li = self.local_shard(key);
        // The bounded read clones the entry out of the owned shard — for
        // the value that is a refcount bump on the cached Bytes handle —
        // with no lock anywhere on the path. The same handle then rides
        // the outbound segment queue (or the completion message), so a
        // hit never copies the payload.
        let looked_up = match self.shards.get_mut(li) {
            Some(shard) => shard.get_bounded(key, now, bound),
            None => BoundedGet::Miss,
        };
        // A refusal carries no value, only the entry's age, so the client
        // can see by how much the bound was missed.
        let (status, age, served) = match looked_up {
            BoundedGet::Fresh(e) => (GetStatus::Fresh, e.age(now), Some((e.version, e.value))),
            BoundedGet::ServedStale(e) => {
                (GetStatus::ServedStale, e.age(now), Some((e.version, e.value)))
            }
            BoundedGet::Refused(e) => (GetStatus::RefusedStale, e.age(now), None),
            BoundedGet::Miss => (GetStatus::Miss, SimDuration::ZERO, None),
        };
        let age = age.as_nanos();
        if served.is_none() && self.park(home, slot, token, id, key, status, age) {
            return None;
        }
        self.count_read_outcome(status);
        Some(get_resp(id, key, status, age, served))
    }

    /// Count one answered read under its outcome.
    fn count_read_outcome(&self, status: GetStatus) {
        let stats = &self.shared.stats;
        let counter = match status {
            GetStatus::Fresh => &stats.fresh,
            GetStatus::ServedStale => &stats.stale_served,
            GetStatus::RefusedStale => &stats.refused,
            GetStatus::Miss => &stats.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Owner-local write: allocate a serving version and install into
    /// the owned shard. Version allocation and insert are atomic by
    /// owner-thread exclusivity — no other writer of this key exists.
    /// The value handle moves into the cache as-is (the refcounted
    /// slice the codec cut from the receive buffer) unless it is small
    /// enough relative to its backing chunk to be worth re-pinning.
    fn serve_put(&mut self, key: u64, value: Bytes, ttl: u64) -> u64 {
        let now = self.shared.clock.now();
        let expires_at = (ttl > 0).then(|| now + SimDuration::from_nanos(ttl));
        let value = repin_small(value, DEFAULT_PIN_THRESHOLD);
        let version = self.shared.versions.fetch_add(1, Ordering::Relaxed) + 1;
        let li = self.local_shard(key);
        if let Some(shard) = self.shards.get_mut(li) {
            shard.insert_value(key, version, value, now, expires_at);
        }
        version
    }

    /// Owner-local share of a store-pushed invalidation batch; returns
    /// how many of the keys were actually cached.
    fn serve_invalidate(&mut self, keys: &[u64]) -> u64 {
        let mut applied = 0u64;
        for &key in keys {
            if let Some(ctx) = self.origin.as_mut() {
                ctx.note_push(key);
            }
            let li = self.local_shard(key);
            if let Some(shard) = self.shards.get_mut(li) {
                if shard.apply_invalidate(key) {
                    applied += 1;
                }
            }
        }
        applied
    }

    /// Owner-local share of a store-pushed update batch; returns how
    /// many entries were re-freshened. With `install` set (the batch
    /// arrived on a handoff stream), absent keys are *installed* with a
    /// fresh serving version instead of counting as missed updates —
    /// that is the receiving half of key handoff, and the only path
    /// that relaxes the paper's update-in-place semantics.
    fn serve_update(&mut self, items: Vec<UpdateItem>, install: bool) -> u64 {
        let now = self.shared.clock.now();
        let mut applied = 0u64;
        for item in items {
            if let Some(ctx) = self.origin.as_mut() {
                ctx.note_push(item.key);
            }
            let li = self.local_shard(item.key);
            let Some(shard) = self.shards.get_mut(li) else { continue };
            let value = repin_small(item.value, DEFAULT_PIN_THRESHOLD);
            let refreshed = if shard.contains(item.key) {
                let version = self.shared.versions.fetch_add(1, Ordering::Relaxed) + 1;
                shard.apply_update_value(item.key, version, value, now, None)
            } else if install {
                // Handoff install: the donor streamed a key this node
                // now owns. Fresh serving version from this node's
                // counter (the donor's versions are a different
                // domain), no TTL — fresh until invalidated/evicted,
                // exactly like a refetch install.
                let version = self.shared.versions.fetch_add(1, Ordering::Relaxed) + 1;
                shard.insert_value(item.key, version, value, now, None);
                self.shared.stats.handoff_in.fetch_add(1, Ordering::Relaxed);
                true
            } else {
                // Counts the missed update without burning a serving
                // version on a key that is not here.
                shard.apply_update_value(item.key, 0, value, now, None)
            };
            if refreshed {
                applied += 1;
            }
        }
        applied
    }

    /// Try to park a refused/missed bounded read on an origin refetch.
    /// `true` when the request was parked (the first parker of the key
    /// also queued the `FetchReq` — flushed at end of tick); `false`
    /// when there is no origin or it is unreachable, in which case the
    /// caller answers the fallback directly.
    #[allow(clippy::too_many_arguments)]
    fn park(
        &mut self,
        home: usize,
        slot: usize,
        token: u64,
        id: RequestId,
        key: u64,
        fallback_status: GetStatus,
        fallback_age: u64,
    ) -> bool {
        let Some(ctx) = self.origin.as_mut() else { return false };
        if !ctx.ensure_link() {
            // Origin down and the retry backoff running: degrade now.
            self.shared.stats.origin_errors.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let waiter = Waiter { home, slot, token, id, fallback_status, fallback_age };
        match ctx.table.park(key, waiter) {
            Park::Fetch => {
                self.shared.stats.refetches.fetch_add(1, Ordering::Relaxed);
                // ensure_link() above guarantees the link is up; the if-let
                // keeps this hot path structurally panic-free regardless.
                if let Some(link) = ctx.link.as_mut() {
                    link.io.queue(&Message::FetchReq { key });
                }
            }
            Park::Coalesced => {
                self.shared.stats.refetch_coalesced.fetch_add(1, Ordering::Relaxed);
            }
        }
        true
    }
}

/// Build a `GetResp`: `served` is the version and value of an entry the
/// read is allowed to see; a refusal or miss carries neither.
fn get_resp(
    id: RequestId,
    key: u64,
    status: GetStatus,
    age: u64,
    served: Option<(u64, Bytes)>,
) -> Message {
    let (version, value) = served.unwrap_or_default();
    Message::GetResp { id, key, version, value, age, status }
}

/// How many entries ride each handoff `Update` batch: big enough to
/// amortise the per-batch ack round-trip, small enough to keep frames
/// far from the codec's size cap.
const HANDOFF_CHUNK: usize = 512;

/// Connect timeout for handoff/announce destinations. A member that
/// cannot be reached in this window is skipped — its keys degrade to
/// cold misses, never to a stuck streamer.
const HANDOFF_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// The handoff streamer: one background thread per server doing all the
/// *blocking* membership I/O — announcing view changes to peers and
/// streaming moved keys to their new owners — so the event loops never
/// wait on a peer's socket. Commands arrive from the loops over an
/// mpsc channel; the thread exits when every sender is gone (server
/// teardown). Failures are deliberately silent: handoff is an
/// optimisation, and a dead peer's share of keys simply misses cold at
/// its next owner.
fn run_handoff_streamer(rx: mpsc::Receiver<Handoff>, stats: Arc<ServerStats>) {
    // Cached connections per destination, with a per-destination
    // sequence counter for the Update/Ack machinery.
    let mut conns: HashMap<String, (FramedStream<TcpStream>, u64)> = HashMap::new();
    while let Ok(Handoff { dest, epoch, members, items }) = rx.recv() {
        if stream_to(&mut conns, &dest, epoch, &members, &items, &stats).is_err() {
            // Peer unreachable or confused: drop the cached connection
            // and move on. No retry — a newer epoch will re-announce,
            // and unmoved keys are cold misses by design.
            conns.remove(&dest);
        }
    }
}

/// One exchange with `dest`: `RingUpdate` → `RingAck`, then chunked
/// `Update` → `Ack` rounds, each acked key counted into `handoff_out`.
fn stream_to(
    conns: &mut HashMap<String, (FramedStream<TcpStream>, u64)>,
    dest: &str,
    epoch: u64,
    members: &[String],
    items: &[UpdateItem],
    stats: &ServerStats,
) -> io::Result<()> {
    if !conns.contains_key(dest) {
        let addr = dest.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "member name resolves to no address")
        })?;
        let stream = TcpStream::connect_timeout(&addr, HANDOFF_CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        conns.insert(dest.to_string(), (FramedStream::new(stream), 0));
    }
    let Some((framed, next_seq)) = conns.get_mut(dest) else { return Ok(()) };
    // Announce the view first: this flips the receiving connection into
    // install mode and lets the peer adopt the epoch if it missed it.
    framed.send(&Message::RingUpdate { epoch, members: members.to_vec() })?;
    match framed.recv()? {
        Some(Message::RingAck { .. }) => {}
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "expected RingAck")),
    }
    for chunk in items.chunks(HANDOFF_CHUNK) {
        *next_seq += 1;
        let seq = *next_seq;
        framed.send(&Message::Update { seq, items: chunk.to_vec() })?;
        match framed.recv()? {
            Some(Message::Ack { seq: acked }) if acked == seq => {
                stats.handoff_out.fetch_add(chunk.len() as u64, Ordering::Relaxed);
            }
            _ => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "expected handoff Ack"))
            }
        }
    }
    Ok(())
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
