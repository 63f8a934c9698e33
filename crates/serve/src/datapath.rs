//! The data path: everything a node does to the shards it owns, as
//! plain calls on an [`Owner`].
//!
//! An [`Owner`] is the half of an event loop that is *data*: its slab
//! shards, the in-flight-refetch table, version allocation and the
//! serving counters. The other half — sockets, the poll set, inboxes,
//! the origin link — is the reactor in [`crate::server`], which decides
//! *where* an op runs and calls in here to run it. Nothing in this file
//! does I/O, takes a lock or reads a clock (fresca-lint's
//! `lock-free-serve-path` rule): every entry takes `now` as a
//! parameter, is *told* whether the origin link is up
//! ([`Owner::origin_link`]), and *hands back* what has to leave the
//! node — the key to fetch, the `(ReplyTo, Message)` pairs to deliver —
//! instead of queuing it anywhere. So the one copy of the serving logic
//! runs under the reactor at wall-clock time, under `#[test]` at a
//! chosen `now`, and under the model checker (`tests/miniloom.rs`).
//!
//! ## Ownership
//!
//! Cache shards are not shared behind locks — they are **partitioned
//! across the event loops at startup and owned exclusively by one
//! loop** for the server's lifetime. Shard `s` (of `S`, rounded up to a
//! power of two) belongs to loop `s % L` ([`Topology`]); each owner
//! keeps its shards in a plain `Vec<SlabCache>` (slab-backed storage
//! with intrusive recency lists, evicting by
//! `ServerConfig.cache.eviction` — see [`fresca_cache::slab`]) and
//! mutates them through `&mut`. Because every key has exactly one
//! owner, multi-step operations that used to need a shard lock
//! ("allocate a version, then insert") are atomic by construction.
//!
//! Freshness is enforced *at the serving boundary*, per the paper's
//! argument: a [`Op::Put`] installs its per-key TTL, and a
//! [`Op::Get`]'s max-staleness bound decides between served-fresh,
//! served-stale, refused, and miss — the decision travels back on the
//! wire as a [`GetStatus`] so the client can count staleness violations
//! end-to-end.
//!
//! Every cached value **owns exactly its bytes**, so the slab's byte
//! accounting is the node's memory. Values of
//! [`DEFAULT_PIN_THRESHOLD`] bytes or more arrive that way from the
//! codec; shorter ones are zero-copy slices of a receive chunk and are
//! copied by [`fresca_net::pin::repin_small`] at the three install
//! sites (`put`, `update`, `fetched`) — a 100-byte value sliced out of
//! a 64 KiB read would otherwise hold the whole chunk alive for as
//! long as the entry stays cached.
//!
//! ## The refetch path
//!
//! On a node with an origin, a bounded read that would come back
//! `RefusedStale` or `Miss` does not answer at all — the owner parks
//! the request on its in-flight-refetch table
//! ([`fresca_cache::refetch::RefetchTable`]) and hands the key back for
//! the reactor to fetch. Concurrent readers of the same key coalesce
//! onto the one in-flight fetch (dogpile guard — and because a key has
//! one owner, coalescing is global, not per-loop); [`Owner::fetched`]
//! installs the entry like a put and answers every parked reader
//! `Fresh` at age 0. If the link dies ([`Owner::origin_lost`]) every
//! parked reader immediately receives the refusal/miss it would have
//! gotten without an origin (counted in `origin_errors`), and so does
//! every such read while the link stays down. A store push that reaches
//! the owner while its key's fetch is in flight is remembered: the
//! `FetchResp` on its way may have been read before that write, so once
//! it has been installed and the parked readers answered, the entry is
//! marked known-stale and the next read refetches. Refetching through
//! the origin is also the paper's §3.1 backchannel — the fetch clears
//! the key's invalidation-suppression mark at the store — and each
//! owner batches per-key read counts for the origin
//! ([`Owner::read_stats`]), which is what feeds the adaptive
//! invalidate-vs-update policy's `E[W]` estimator.

use crate::ring::HashRing;
use bytes::Bytes;
use fresca_cache::entry::Freshness;
use fresca_cache::refetch::{Park, RefetchTable};
use fresca_cache::slab::SlabCache;
use fresca_cache::{BoundedGet, CacheConfig, Capacity};
use fresca_net::pin::{repin_small, DEFAULT_PIN_THRESHOLD};
use fresca_net::{GetStatus, Message, ReadStat, RequestId, UpdateItem};
use fresca_sim::{SimDuration, SimTime};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
pub struct Topology {
    /// Global shard count minus one (shard count is a power of two).
    shard_mask: u64,
    num_loops: usize,
}

impl Topology {
    /// `shards` (rounded up to a power of two) partitioned across
    /// `event_loops` loops; both are at least one.
    pub fn new(shards: usize, event_loops: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        Topology { shard_mask: shards as u64 - 1, num_loops: event_loops.max(1) }
    }

    /// How many loops the shards are partitioned across.
    pub fn num_loops(&self) -> usize {
        self.num_loops
    }

    fn total_shards(&self) -> usize {
        self.shard_mask as usize + 1
    }

    #[inline]
    fn shard_of(&self, key: u64) -> usize {
        (shard_hash(key) & self.shard_mask) as usize
    }

    /// The loop owning `key`'s shard.
    #[inline]
    pub fn owner_of(&self, key: u64) -> usize {
        self.shard_of(key) % self.num_loops
    }

    /// Index of `key`'s shard within its owner's `Vec<SlabCache>`.
    #[inline]
    fn local_index(&self, key: u64) -> usize {
        self.shard_of(key) / self.num_loops
    }

    /// How many shards `loop_id` owns.
    fn owned_shards(&self, loop_id: usize) -> usize {
        (loop_id..self.total_shards()).step_by(self.num_loops).count()
    }
}

/// What every owner of one node shares: the version counter and the
/// serving counters. Relaxed ordering everywhere: these are statistics
/// (and a number dispenser), not synchronisation.
#[derive(Debug, Default)]
pub struct Counters {
    // One global version counter: versions are monotone across all keys,
    // which is stronger than the per-key monotonicity clients rely on.
    // Per-key alloc+insert needs no lock: a key's owner is the only
    // writer of its shard, so the two steps cannot interleave.
    versions: AtomicU64,
    pub(crate) fresh: AtomicU64,
    pub(crate) stale_served: AtomicU64,
    pub(crate) refused: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) keys_invalidated: AtomicU64,
    pub(crate) keys_updated: AtomicU64,
    pub(crate) refetches: AtomicU64,
    pub(crate) refetch_coalesced: AtomicU64,
    pub(crate) origin_errors: AtomicU64,
    pub(crate) handoff_in: AtomicU64,
}

#[inline]
fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// The connection a reply is owed to: `home` is the loop whose
/// connection table `slot` indexes, and `token` is that registration's
/// identity — what stops a late reply from landing on an unrelated
/// connection that reused the slot after the original closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyTo {
    /// The loop the request arrived on.
    pub home: usize,
    /// The connection's slot in that loop's table.
    pub slot: usize,
    /// The connection's registration token.
    pub token: u64,
}

/// An operation on keys that all live in shards of one owner — what the
/// reactor builds from a request, routes to the owner (inline or
/// through its inbox), and [`Owner::apply`] runs.
#[derive(Debug)]
pub enum Op {
    /// A bounded read; the owner replies or parks it on its refetch
    /// table. `max_staleness` is in nanoseconds, `u64::MAX` for none.
    Get {
        /// Echoed in the reply.
        id: RequestId,
        /// The key to read.
        key: u64,
        /// The read's staleness bound.
        max_staleness: u64,
    },
    /// A write; the owner allocates the version and installs. `ttl` is
    /// in nanoseconds, 0 for none.
    Put {
        /// Echoed in the reply.
        id: RequestId,
        /// The key to write.
        key: u64,
        /// The payload.
        value: Bytes,
        /// The entry's time to live.
        ttl: u64,
    },
    /// One owner's sub-batch of a store-pushed `Invalidate`; its
    /// completion names the home loop's pending batch `batch`.
    InvalidateKeys {
        /// The home loop's pending-batch id.
        batch: u64,
        /// This owner's share of the batch.
        keys: Vec<u64>,
    },
    /// One owner's sub-batch of a store-pushed `Update`. `install` is
    /// true for handoff streams: absent keys are installed instead of
    /// counting as missed updates.
    UpdateItems {
        /// The home loop's pending-batch id.
        batch: u64,
        /// This owner's share of the batch.
        items: Vec<UpdateItem>,
        /// Handoff stream: install absent keys.
        install: bool,
    },
}

/// What a finished op owes its [`ReplyTo`].
#[derive(Debug)]
pub enum Completion {
    /// A fully-formed reply to queue on the originating connection.
    Reply(Message),
    /// One owner finished its sub-batch of pending batch `batch`.
    BatchPart {
        /// The home loop's pending-batch id.
        batch: u64,
    },
}

/// What [`Owner::apply`] did with an op.
#[derive(Debug)]
pub enum Applied {
    /// It ran; the completion goes to the op's `ReplyTo`.
    Done(Completion),
    /// A read that would have been refused or missed is parked on its
    /// key's refetch; [`Owner::fetched`] or [`Owner::origin_lost`]
    /// answers it. `fetch` names the key when this read opened the
    /// fetch — the caller owes the origin exactly one `FetchReq` for it
    /// — and is `None` when it coalesced onto one already in flight.
    Parked {
        /// The key to ask the origin for, if this read is the first.
        fetch: Option<u64>,
    },
}

/// A parked bounded read, waiting on an origin refetch of its key. The
/// fallback fields reconstruct the reply the request would have gotten
/// with no origin, for delivery if the fetch fails.
#[derive(Debug)]
struct Waiter {
    to: ReplyTo,
    id: RequestId,
    fallback_status: GetStatus,
    fallback_age: u64,
}

/// Refetch state of an owner whose node has an origin.
#[derive(Debug)]
struct Refetch {
    /// Whether the reactor's origin link is up, as last told.
    link_up: bool,
    table: RefetchTable<Waiter>,
    /// Keys a store push reached while their fetch was in flight. The
    /// `FetchResp` on its way may predate that write, and the origin
    /// already counts the key as invalidated (§3.1 suppression), so no
    /// later push would correct it: `fetched` answers the parked
    /// readers and then invalidates the entry it just installed.
    overtaken: HashSet<u64>,
    /// The read-count batch owed to the origin's `E[W]` estimator.
    read_counts: HashMap<u64, u32>,
    reads_pending: u32,
}

/// Hand the pending read-count batch over once this many reads
/// accumulate…
const READ_STATS_FLUSH_READS: u32 = 1024;

/// …or once this many distinct keys do, whichever comes first.
const READ_STATS_FLUSH_KEYS: usize = 256;

/// With the origin link down, stop hoarding read counts past this many
/// distinct keys — the estimator feed is advisory, memory is not.
const READ_STATS_MAX_BUFFERED_KEYS: usize = 4096;

/// The slab shards one event loop exclusively owns, and every operation
/// on them. See the module docs.
#[derive(Debug)]
pub struct Owner {
    topo: Topology,
    /// The owned shards, indexed by [`Topology::local_index`].
    shards: Vec<SlabCache>,
    counters: Arc<Counters>,
    /// `None` on a node without an origin: refusals and misses are
    /// answered directly.
    refetch: Option<Refetch>,
}

impl Owner {
    /// The owner of loop `loop_id`'s share of `topo`'s shards. `cache`
    /// is the node's *total* capacity and the eviction policy every
    /// shard runs; `origin` says whether the node refetches through an
    /// origin (the link starts down until [`Owner::origin_link`] says
    /// otherwise).
    pub fn new(
        loop_id: usize,
        topo: Topology,
        cache: CacheConfig,
        counters: Arc<Counters>,
        origin: bool,
    ) -> Self {
        // Per-shard capacity divides the configured total across the
        // *global* shard count, so the aggregate matches the configured
        // total.
        let total = topo.total_shards();
        let capacity = match cache.capacity {
            Capacity::Entries(e) => Capacity::Entries((e / total).max(1)),
            Capacity::Bytes(b) => Capacity::Bytes((b / total as u64).max(1)),
            Capacity::Unbounded => Capacity::Unbounded,
        };
        Owner {
            topo,
            shards: (0..topo.owned_shards(loop_id))
                .map(|_| SlabCache::with_config(CacheConfig { capacity, ..cache }))
                .collect(),
            counters,
            refetch: origin.then(|| Refetch {
                link_up: false,
                table: RefetchTable::new(),
                overtaken: HashSet::new(),
                read_counts: HashMap::new(),
                reads_pending: 0,
            }),
        }
    }

    /// `key`'s shard — only meaningful on the loop that owns it.
    #[inline]
    fn shard_mut(&mut self, key: u64) -> Option<&mut SlabCache> {
        self.shards.get_mut(self.topo.local_index(key))
    }

    /// The next serving version. The store's and a handoff donor's
    /// versions live in different counter domains, so every install
    /// allocates here, keeping the global monotonicity clients' anomaly
    /// checks rely on.
    fn next_version(&self) -> u64 {
        self.counters.versions.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Live entries and allocated slab slots (the storage high-water
    /// mark) across every owned shard.
    pub fn gauges(&self) -> (u64, u64) {
        let entries = self.shards.iter().map(|s| s.len() as u64).sum();
        let capacity = self.shards.iter().map(|s| s.slab_capacity() as u64).sum();
        (entries, capacity)
    }

    /// Tell the owner whether the reactor's origin link is up. While it
    /// is down, reads that want a refetch degrade to their fallback at
    /// once instead of queueing behind a dead endpoint.
    pub fn origin_link(&mut self, up: bool) {
        if let Some(r) = self.refetch.as_mut() {
            r.link_up = up;
        }
    }

    /// Run `op` against the owned shards at time `now` — the single
    /// entry for ops on owned keys, whether they arrived on this loop's
    /// own connections (`to.home` is this loop) or were forwarded.
    pub fn apply(&mut self, to: ReplyTo, op: Op, now: SimTime) -> Applied {
        Applied::Done(match op {
            Op::Get { id, key, max_staleness } => {
                return self.get(to, id, key, max_staleness, now);
            }
            Op::Put { id, key, value, ttl } => {
                let version = self.put(key, value, ttl, now);
                Completion::Reply(Message::PutResp { id, key, version })
            }
            Op::InvalidateKeys { batch, keys } => {
                let applied = self.invalidate(&keys);
                bump(&self.counters.keys_invalidated, applied);
                Completion::BatchPart { batch }
            }
            Op::UpdateItems { batch, items, install } => {
                let applied = self.update(items, install, now);
                bump(&self.counters.keys_updated, applied);
                Completion::BatchPart { batch }
            }
        })
    }

    /// Bounded read (`bound` in nanoseconds, `u64::MAX` for none).
    fn get(&mut self, to: ReplyTo, id: RequestId, key: u64, bound: u64, now: SimTime) -> Applied {
        if let Some(r) = self.refetch.as_mut() {
            // Every read feeds the origin's E[W] estimator — parked or
            // answered, each counts exactly once, on the owner.
            *r.read_counts.entry(key).or_insert(0) += 1;
            r.reads_pending += 1;
        }
        let bound = (bound != u64::MAX).then(|| SimDuration::from_nanos(bound));
        // The bounded read clones the entry out of the owned shard — for
        // the value that is a refcount bump on the cached Bytes handle.
        // The same handle then rides the outbound segment queue (or the
        // completion message), so a hit never copies the payload.
        let looked_up = match self.shard_mut(key) {
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
        if served.is_none() {
            let waiter = Waiter { to, id, fallback_status: status, fallback_age: age };
            if let Some(parked) = self.park(key, waiter) {
                return parked;
            }
        }
        self.count_read_outcome(status);
        Applied::Done(Completion::Reply(get_resp(id, key, status, age, served)))
    }

    /// Try to park a refused/missed bounded read on an origin refetch.
    /// `None` when there is no origin or its link is down, in which case
    /// the caller answers the fallback directly.
    fn park(&mut self, key: u64, waiter: Waiter) -> Option<Applied> {
        let r = self.refetch.as_mut()?;
        if !r.link_up {
            // Origin down and the retry backoff running: degrade now.
            bump(&self.counters.origin_errors, 1);
            return None;
        }
        let fetch = match r.table.park(key, waiter) {
            Park::Fetch => {
                bump(&self.counters.refetches, 1);
                Some(key)
            }
            Park::Coalesced => {
                bump(&self.counters.refetch_coalesced, 1);
                None
            }
        };
        Some(Applied::Parked { fetch })
    }

    /// Count one answered read under its outcome.
    fn count_read_outcome(&self, status: GetStatus) {
        let c = &self.counters;
        let counter = match status {
            GetStatus::Fresh => &c.fresh,
            GetStatus::ServedStale => &c.stale_served,
            GetStatus::RefusedStale => &c.refused,
            GetStatus::Miss => &c.misses,
        };
        bump(counter, 1);
    }

    /// Write: allocate a serving version and install into the owned
    /// shard. The value handle moves into the cache as-is unless it is
    /// a short slice of a receive chunk, which is re-pinned.
    fn put(&mut self, key: u64, value: Bytes, ttl: u64, now: SimTime) -> u64 {
        let expires_at = (ttl > 0).then(|| now + SimDuration::from_nanos(ttl));
        let value = repin_small(value, DEFAULT_PIN_THRESHOLD);
        let version = self.next_version();
        if let Some(shard) = self.shard_mut(key) {
            shard.insert_value(key, version, value, now, expires_at);
        }
        version
    }

    /// Mark `keys` known-stale — this owner's share of a store-pushed
    /// invalidation batch, or one key from the operator's
    /// `ServerHandle::invalidate`. Returns how many were actually
    /// cached; keys the cache does not hold are no-ops (counted by the
    /// cache as missed invalidations), exactly like the simulation path.
    pub fn invalidate(&mut self, keys: &[u64]) -> u64 {
        let mut applied = 0u64;
        for &key in keys {
            self.note_push(key);
            if self.shard_mut(key).is_some_and(|shard| shard.apply_invalidate(key)) {
                applied += 1;
            }
        }
        applied
    }

    /// A store push for `key` arrived: remember it if a fetch of the key
    /// is in flight (see `Refetch::overtaken`).
    fn note_push(&mut self, key: u64) {
        if let Some(r) = self.refetch.as_mut() {
            if r.table.is_in_flight(key) {
                r.overtaken.insert(key);
            }
        }
    }

    /// This owner's share of a store-pushed update batch; returns how
    /// many entries were re-freshened. Absent keys do nothing, per the
    /// paper's update semantics; pushed updates carry no TTL, so
    /// refreshed entries are fresh until invalidated or evicted. With
    /// `install` set (the batch arrived on a handoff stream), absent
    /// keys are *installed* instead — that is the receiving half of key
    /// handoff, and the only path that relaxes update-in-place.
    fn update(&mut self, items: Vec<UpdateItem>, install: bool, now: SimTime) -> u64 {
        let mut applied = 0u64;
        for item in items {
            self.note_push(item.key);
            let present = self.shard_mut(item.key).is_some_and(|s| s.contains(item.key));
            // A missed update burns no serving version on a key that is
            // not here.
            let version = if present || install { self.next_version() } else { 0 };
            let Some(shard) = self.shard_mut(item.key) else { continue };
            let value = repin_small(item.value, DEFAULT_PIN_THRESHOLD);
            let refreshed = if present || !install {
                // In place — or, on an absent key, counted by the cache
                // as a missed update.
                shard.apply_update_value(item.key, version, value, now, None)
            } else {
                // Handoff install: the donor streamed a key this node
                // now owns. No TTL — fresh until invalidated/evicted,
                // exactly like a refetch install.
                shard.insert_value(item.key, version, value, now, None);
                bump(&self.counters.handoff_in, 1);
                true
            };
            if refreshed {
                applied += 1;
            }
        }
        applied
    }

    /// The origin answered `key`'s fetch: install the value like a put
    /// (no TTL: fresh until invalidated or evicted) and answer every
    /// reader parked on the key `Fresh` at age 0.
    pub fn fetched(&mut self, key: u64, value: Bytes, now: SimTime) -> Vec<(ReplyTo, Message)> {
        let value = repin_small(value, DEFAULT_PIN_THRESHOLD);
        let version = self.next_version();
        if let Some(shard) = self.shard_mut(key) {
            shard.insert_value(key, version, value.clone(), now, None);
        }
        let Some(r) = self.refetch.as_mut() else { return Vec::new() };
        let replies = r
            .table
            .complete(key)
            .into_iter()
            .map(|w| {
                bump(&self.counters.fresh, 1);
                let served = Some((version, value.clone()));
                (w.to, get_resp(w.id, key, GetStatus::Fresh, 0, served))
            })
            .collect();
        if r.overtaken.remove(&key) {
            // A push overtook this fetch: the value may be the one that
            // push superseded, so the next read refetches (re-clearing
            // the origin's mark).
            if let Some(shard) = self.shard_mut(key) {
                shard.apply_invalidate(key);
            }
        }
        replies
    }

    /// The origin link died: every parked reader gets the refusal/miss
    /// it would have gotten without an origin, and the link counts as
    /// down until [`Owner::origin_link`] says otherwise.
    pub fn origin_lost(&mut self) -> Vec<(ReplyTo, Message)> {
        let Some(r) = self.refetch.as_mut() else { return Vec::new() };
        r.link_up = false;
        r.overtaken.clear();
        let failed = r.table.fail_all();
        let mut replies = Vec::new();
        for (key, waiters) in failed {
            for w in waiters {
                bump(&self.counters.origin_errors, 1);
                self.count_read_outcome(w.fallback_status);
                replies.push((w.to, get_resp(w.id, key, w.fallback_status, w.fallback_age, None)));
            }
        }
        replies
    }

    /// The pending read-count batch as a `ReadStats` frame, when it is
    /// due and the link is up to carry it (with the link down, the
    /// batch is shed once it outgrows its cap).
    pub fn read_stats(&mut self) -> Option<Message> {
        let r = self.refetch.as_mut()?;
        if !r.link_up {
            if r.read_counts.len() > READ_STATS_MAX_BUFFERED_KEYS {
                r.read_counts.clear();
                r.reads_pending = 0;
            }
            return None;
        }
        if r.reads_pending < READ_STATS_FLUSH_READS && r.read_counts.len() < READ_STATS_FLUSH_KEYS {
            return None;
        }
        r.reads_pending = 0;
        let entries: Vec<ReadStat> =
            r.read_counts.drain().map(|(key, reads)| ReadStat { key, reads }).collect();
        (!entries.is_empty()).then_some(Message::ReadStats { entries })
    }

    /// The membership view changed: remove every entry whose owner on
    /// `ring` is no longer `me` and return the ones worth streaming to
    /// their new owners, grouped by destination. Only *servably fresh*
    /// entries travel — an invalidated or TTL-expired entry must not be
    /// resurrected as fresh on the new owner, so those are simply
    /// dropped (a cold miss there, never a silent staleness violation).
    /// A node absent from `ring` is the graceful-leave case: `me` never
    /// matches, so its shards drain completely.
    pub fn moved(
        &mut self,
        ring: &HashRing,
        me: &str,
        now: SimTime,
    ) -> HashMap<String, Vec<UpdateItem>> {
        let mut moved: HashMap<String, Vec<UpdateItem>> = HashMap::new();
        for shard in &mut self.shards {
            let keys: Vec<u64> = shard.keys().collect();
            for key in keys {
                let Some(owner) = ring.node_for(key) else { continue };
                if owner == me {
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
        moved
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::DEFAULT_VNODES;
    use fresca_cache::EvictionPolicy;

    const NONE: u64 = u64::MAX;
    const A: ReplyTo = ReplyTo { home: 0, slot: 1, token: 10 };
    const B: ReplyTo = ReplyTo { home: 1, slot: 2, token: 20 };

    fn at(nanos: u64) -> SimTime {
        SimTime::from_nanos(nanos)
    }

    fn bytes(b: u8, len: usize) -> Bytes {
        Bytes::from(vec![b; len])
    }

    /// One loop's owner over four shards; the origin link (if any) up.
    fn owner(origin: bool) -> (Owner, Arc<Counters>) {
        let counters = Arc::new(Counters::default());
        let cache = CacheConfig { capacity: Capacity::Unbounded, eviction: EvictionPolicy::Lru };
        let mut owner = Owner::new(0, Topology::new(4, 1), cache, Arc::clone(&counters), origin);
        owner.origin_link(true);
        (owner, counters)
    }

    fn count(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    fn put(o: &mut Owner, key: u64, value: Bytes, ttl: u64, now: u64) -> u64 {
        match o.apply(A, Op::Put { id: RequestId(1), key, value, ttl }, at(now)) {
            Applied::Done(Completion::Reply(Message::PutResp { version, .. })) => version,
            other => panic!("put answered {other:?}"),
        }
    }

    fn get(o: &mut Owner, to: ReplyTo, key: u64, max_staleness: u64, now: u64) -> Applied {
        o.apply(to, Op::Get { id: RequestId(to.token), key, max_staleness }, at(now))
    }

    /// `(status, age, version, value)` of a `GetResp`.
    fn resp(reply: &Message) -> (GetStatus, u64, u64, Bytes) {
        match reply {
            Message::GetResp { status, age, version, value, .. } => {
                (*status, *age, *version, value.clone())
            }
            other => panic!("not a GetResp: {other:?}"),
        }
    }

    /// A read that must answer at once.
    fn read(o: &mut Owner, key: u64, bound: u64, now: u64) -> (GetStatus, u64, u64, Bytes) {
        match get(o, A, key, bound, now) {
            Applied::Done(Completion::Reply(reply)) => resp(&reply),
            other => panic!("read answered {other:?}"),
        }
    }

    fn push(o: &mut Owner, op: Op, now: u64) {
        assert!(matches!(o.apply(B, op, at(now)), Applied::Done(Completion::BatchPart { batch: 7 })));
    }

    #[test]
    fn read_outcomes_turn_exactly_at_the_ttl_deadline_and_the_bound() {
        use GetStatus::*;
        let (mut o, c) = owner(false);
        // Written at 1000 with a TTL of 100: the deadline is 1100, and
        // "fresh strictly within the deadline".
        let v = put(&mut o, 5, bytes(0xAA, 8), 100, 1000);
        let script: &[(u64, u64, GetStatus)] = &[
            // (now, bound, outcome) — no bound: only the TTL decides.
            (1099, NONE, Fresh),
            (1100, NONE, ServedStale),
            (1101, NONE, ServedStale),
            // A bound tighter than the TTL: admitted while age <= bound.
            (1049, 50, Fresh),
            (1050, 50, Fresh),
            (1051, 50, RefusedStale),
            // A bound looser than the TTL: served stale up to the bound.
            (1149, 150, ServedStale),
            (1150, 150, ServedStale),
            (1151, 150, RefusedStale),
        ];
        for &(now, bound, want) in script {
            let (status, age, version, value) = read(&mut o, 5, bound, now);
            assert_eq!(status, want, "now={now} bound={bound}");
            assert_eq!(age, now - 1000, "age is time since the write");
            let served = want != RefusedStale;
            assert_eq!((version, value.len()), if served { (v, 8) } else { (0, 0) }, "now={now}");
        }
        assert_eq!(read(&mut o, 6, NONE, 1100).0, Miss);
        let tally = [&c.fresh, &c.stale_served, &c.refused, &c.misses].map(count);
        assert_eq!(tally, [3, 4, 2, 1], "every read counted once, under its outcome");
    }

    #[test]
    fn versions_rise_with_every_install_of_a_key() {
        let (mut o, _) = owner(false);
        let mut last = [0u64; 2];
        for round in 0..4u64 {
            for key in 0..2u64 {
                let v = put(&mut o, key, bytes(round as u8, 4), 0, round);
                assert!(v > last[key as usize], "key {key}: {v} after {}", last[key as usize]);
                last[key as usize] = v;
                assert_eq!(read(&mut o, key, NONE, round).2, v);
            }
        }
    }

    #[test]
    fn update_refreshes_in_place_installs_only_on_a_handoff_stream() {
        let (mut o, c) = owner(false);
        let item = |key, b| UpdateItem { key, version: 999, value: bytes(b, 4) };
        let v1 = put(&mut o, 1, bytes(0x01, 4), 0, 10);

        // Present key: refreshed in place under a fresh serving version.
        push(&mut o, Op::UpdateItems { batch: 7, items: vec![item(1, 0x02)], install: false }, 20);
        let (status, age, v2, value) = read(&mut o, 1, NONE, 25);
        assert_eq!((status, age, &value[..]), (GetStatus::Fresh, 5, &[0x02; 4][..]));
        assert!(v2 > v1 && v2 != 999, "the store's version is another domain");
        assert_eq!(count(&c.keys_updated), 1);

        // Absent key, store push: nothing happens, no version is burned.
        push(&mut o, Op::UpdateItems { batch: 7, items: vec![item(2, 0x03)], install: false }, 30);
        assert_eq!(read(&mut o, 2, NONE, 30).0, GetStatus::Miss);
        assert_eq!((count(&c.keys_updated), count(&c.handoff_in)), (1, 0));
        assert_eq!(put(&mut o, 3, bytes(0, 1), 0, 30), v2 + 1);

        // Absent key, handoff stream: installed, fresh from now.
        push(&mut o, Op::UpdateItems { batch: 7, items: vec![item(2, 0x04)], install: true }, 40);
        let (status, age, _, value) = read(&mut o, 2, 10, 45);
        assert_eq!((status, age, &value[..]), (GetStatus::Fresh, 5, &[0x04; 4][..]));
        assert_eq!((count(&c.keys_updated), count(&c.handoff_in)), (2, 1));
    }

    #[test]
    fn parked_readers_coalesce_and_are_all_answered_fresh_at_age_zero() {
        let (mut o, c) = owner(true);
        assert!(matches!(get(&mut o, A, 9, 50, 100), Applied::Parked { fetch: Some(9) }));
        assert!(matches!(get(&mut o, B, 9, NONE, 101), Applied::Parked { fetch: None }));
        assert_eq!((count(&c.refetches), count(&c.refetch_coalesced)), (1, 1));

        let replies = o.fetched(9, bytes(0xCC, 16), at(200));
        assert_eq!(replies.iter().map(|(to, _)| *to).collect::<Vec<_>>(), [A, B]);
        for (_, reply) in &replies {
            let (status, age, version, value) = resp(reply);
            assert_eq!((status, age, &value[..]), (GetStatus::Fresh, 0, &[0xCC; 16][..]));
            assert_eq!(version, read(&mut o, 9, NONE, 200).2, "the installed entry's version");
        }
        assert_eq!(count(&c.fresh), 2 + 2, "two waiters, two follow-up reads");
        assert_eq!((count(&c.refetches), count(&c.refetch_coalesced)), (1, 1));
        assert_eq!(count(&c.misses), 0, "a parked read is counted when it is answered");
    }

    #[test]
    fn a_push_that_overtakes_a_fetch_leaves_the_installed_entry_known_stale() {
        let (mut o, _) = owner(true);
        assert!(matches!(get(&mut o, A, 9, NONE, 100), Applied::Parked { fetch: Some(9) }));
        push(&mut o, Op::InvalidateKeys { batch: 7, keys: vec![9] }, 110);
        // The waiter is still answered from the fetch it asked for…
        let replies = o.fetched(9, bytes(0xCC, 4), at(120));
        assert_eq!(resp(&replies[0].1).0, GetStatus::Fresh);
        // …but the value may predate the push, so the next read refetches.
        assert!(matches!(get(&mut o, A, 9, NONE, 121), Applied::Parked { fetch: Some(9) }));
        // A fetch nothing overtook installs a servable entry.
        o.fetched(9, bytes(0xDD, 4), at(130));
        assert_eq!(read(&mut o, 9, NONE, 131).0, GetStatus::Fresh);
    }

    #[test]
    fn a_lost_origin_answers_each_waiter_its_own_fallback_then_degrades_at_once() {
        let (mut o, c) = owner(true);
        put(&mut o, 1, bytes(0x01, 4), 0, 100);
        assert!(matches!(get(&mut o, A, 1, 50, 175), Applied::Parked { fetch: Some(1) }));
        assert!(matches!(get(&mut o, B, 2, NONE, 180), Applied::Parked { fetch: Some(2) }));

        let mut replies = o.origin_lost();
        replies.sort_by_key(|(to, _)| to.slot);
        let fallbacks: Vec<_> = replies.iter().map(|(to, r)| (*to, resp(r).0, resp(r).1)).collect();
        assert_eq!(fallbacks, [(A, GetStatus::RefusedStale, 75), (B, GetStatus::Miss, 0)]);
        assert_eq!(count(&c.origin_errors), 2);
        assert_eq!((count(&c.refused), count(&c.misses)), (1, 1));

        // Link down: no parking, the fallback comes back from `apply`.
        assert_eq!(read(&mut o, 2, NONE, 190).0, GetStatus::Miss);
        assert_eq!((count(&c.origin_errors), count(&c.refetches)), (3, 2));
        // Told the link is back, reads park again.
        o.origin_link(true);
        assert!(matches!(get(&mut o, A, 2, NONE, 200), Applied::Parked { fetch: Some(2) }));
    }

    /// Decode `wire` fed in pieces cut at `cuts` and apply every message
    /// the way the reactor does: puts and updates through `apply` (the
    /// first `Update` in place, the second as a handoff install), the
    /// `FetchResp` through `fetched`.
    fn serve_wire(o: &mut Owner, wire: &[u8], cuts: &[usize]) {
        let mut codec = fresca_net::FrameCodec::new();
        let mut updates = 0;
        let mut from = 0;
        for &to in cuts.iter().chain([&wire.len()]) {
            codec.feed(&wire[from..to]);
            from = to;
            while let Some(msg) = codec.next().expect("well-formed frames") {
                match msg {
                    Message::PutReq { id, key, value, ttl } => {
                        o.apply(A, Op::Put { id, key, value, ttl }, at(1));
                    }
                    Message::FetchResp { key, value, .. } => {
                        o.fetched(key, value, at(1));
                    }
                    Message::Update { items, .. } => {
                        updates += 1;
                        push(o, Op::UpdateItems { batch: 7, items, install: updates == 2 }, 1);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert!(codec.is_idle());
    }

    #[test]
    fn every_cached_value_owns_exactly_its_bytes() {
        use fresca_net::payload::pattern;
        let put = |key: u64, len| Message::PutReq {
            id: RequestId(key),
            key,
            value: pattern(key, len),
            ttl: 0,
        };
        let update = |items: &[(u64, usize)]| Message::Update {
            seq: 1,
            items: items
                .iter()
                .map(|&(key, len)| UpdateItem { key, version: 1, value: pattern(key, len) })
                .collect(),
        };
        let msgs = [
            put(1, 100),
            put(2, 511),
            put(3, 512),
            put(4, 513),
            put(5, 4096),
            put(6, 16 * 1024),
            Message::FetchResp { key: 7, version: 1, value: pattern(7, 3000) },
            update(&[(2, 800), (3, 100)]),   // in place
            update(&[(9, 300), (10, 2048)]), // handoff install
        ];
        let mut wire = bytes::BytesMut::new();
        let mut starts = Vec::new();
        for m in &msgs {
            starts.push(wire.len());
            fresca_net::FrameCodec::encode(m, &mut wire);
        }
        // One chunk; then cuts inside a header (put 4, the fetch), inside
        // a payload (put 6) and inside an update item.
        let split = [starts[3] + 10, starts[5] + 33 + 5000, starts[6] + 20, starts[7] + 40];
        let want: [(u64, usize); 9] = [
            (1, 100),
            (2, 800),
            (3, 100),
            (4, 513),
            (5, 4096),
            (6, 16384),
            (7, 3000),
            (9, 300),
            (10, 2048),
        ];
        for cuts in [&[][..], &split[..]] {
            let (mut o, _) = owner(false);
            serve_wire(&mut o, &wire, cuts);
            let mut cached = Vec::new();
            for shard in &o.shards {
                for key in shard.keys() {
                    cached.push((key, shard.peek(key).expect("listed key").value.clone()));
                }
            }
            cached.sort_by_key(|(key, _)| *key);
            let lens: Vec<(u64, usize)> = cached.iter().map(|(k, v)| (*k, v.len())).collect();
            assert_eq!(lens, want, "cuts {cuts:?}");
            for (i, (key, value)) in cached.iter().enumerate() {
                assert!(fresca_net::payload::verify(*key, value), "key {key}: bytes intact");
                assert_eq!(
                    value.allocation_size(),
                    value.len(),
                    "key {key} ({} B, cuts {cuts:?}) pins more than its bytes",
                    value.len()
                );
                for (other, v) in &cached[i + 1..] {
                    assert!(!value.shares_allocation_with(v), "keys {key} and {other} share");
                }
            }
        }
    }

    #[test]
    fn moved_ships_only_servably_fresh_entries_and_removes_the_rest() {
        let (mut o, _) = owner(false);
        let ring = HashRing::from_nodes(DEFAULT_VNODES, &["a", "b"]);
        // By key % 3: fresh for good, past its TTL at 500, invalidated.
        for key in 0..90u64 {
            put(&mut o, key, bytes(key as u8, 4), if key % 3 == 1 { 100 } else { 0 }, 0);
        }
        let stale: Vec<u64> = (0..90).filter(|k| k % 3 == 2).collect();
        assert_eq!(o.invalidate(&stale), 30);

        let moved = o.moved(&ring, "a", at(500));
        let leaving = |key: &u64| ring.node_for(*key) == Some("b");
        let mut shipped: Vec<u64> = moved["b"].iter().map(|item| item.key).collect();
        shipped.sort_unstable();
        let want: Vec<u64> = (0..90).filter(|k| k % 3 == 0).filter(leaving).collect();
        assert!(!want.is_empty() && moved.len() == 1, "only `b` gains keys");
        assert_eq!(shipped, want);
        for item in &moved["b"] {
            assert_eq!(item.value[..], [item.key as u8; 4][..]);
        }
        // Everything that left is gone, servable or not; the rest stays.
        for key in 0..90u64 {
            let gone = read(&mut o, key, NONE, 500).0 == GetStatus::Miss;
            assert_eq!(gone, leaving(&key), "key {key}");
        }
        assert_eq!(o.gauges().0, (0..90).filter(|k| !leaving(k)).count() as u64);
    }
}
