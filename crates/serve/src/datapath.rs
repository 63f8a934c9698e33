//! The data path: everything a node does to one shard, as plain calls
//! on an [`Owner`].
//!
//! An [`Owner`] is one shard of a node's data: its slab, the
//! in-flight-refetch table of its keys, and the serving counters it
//! shares with every other shard; `OriginLink` is one event loop's
//! origin link without its socket. The rest — sockets, dials, the poll
//! set, inboxes, and the lock each shard sits behind — is the reactor
//! in [`crate::server`], which serialises the calls on a shard and
//! calls in here to run them. Nothing in this file does I/O, takes a
//! lock or reads a clock (fresca-lint's `lock-free-serve-path` rule):
//! every entry takes `now` as a parameter, is *told* the state of the
//! calling loop's origin link ([`Link`], carried by [`Op::Get`]), and
//! *hands back* what has to leave the node — the key to fetch, the
//! `(ReplyTo, Message)` pairs to deliver, a dial that is due — instead
//! of queuing it anywhere. So the one copy of the serving logic runs
//! under the reactor at wall-clock time, under `#[test]` at a chosen
//! `now`, and under the model checker (`tests/miniloom.rs`).
//!
//! ## Ownership
//!
//! A node's keys are split over `S` shards (rounded up to a power of
//! two; [`Topology::shard_of`]), one [`Owner`] each, for the server's
//! lifetime. Each owner keeps its shard in one [`SlabCache`]
//! (slab-backed storage with intrusive recency lists, evicting by
//! `ServerConfig.cache.eviction` — see [`fresca_cache::slab`]) and
//! mutates it through `&mut`. The reactor holds a shard's lock around
//! every call, so each call is atomic: multi-step operations ("allocate
//! a version, then insert") cannot interleave with another op on the
//! same key.
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
//! ([`fresca_cache::refetch::RefetchTable`]). Concurrent readers of the
//! same key coalesce onto the one in-flight fetch (dogpile guard — and
//! because a key has one shard, coalescing is global, not per-loop),
//! whatever the state of their own loop's link. A read opens a fetch
//! only when its loop's link is up, and then hands the key back: that
//! loop sends the `FetchReq` and owes the shard its answer.
//! [`Owner::fetched`] installs the entry like a put and answers every
//! parked reader `Fresh` at age 0. If the link that carried the fetch
//! dies ([`Owner::fetch_failed`]) every reader parked on the key
//! immediately receives the refusal/miss it would have gotten without
//! an origin (counted in `origin_errors`), and so does a read that
//! would open a fetch while its loop's link is down. A store push that
//! reaches the owner while its key's fetch is in flight is remembered:
//! the `FetchResp` on its way may have been read before that write, so
//! once it has been installed and the parked readers answered, the
//! entry is marked known-stale and the next read refetches. Refetching
//! through the origin is also the paper's §3.1 backchannel — the fetch
//! clears the key's invalidation-suppression mark at the store.

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

/// The static key → shard map every thread routes by, and the share of
/// the shards each loop counts as its own.
#[derive(Debug, Clone, Copy)]
pub struct Topology {
    /// Global shard count minus one (shard count is a power of two).
    shard_mask: u64,
    num_loops: usize,
}

impl Topology {
    /// `shards` (rounded up to a power of two) shared out across
    /// `event_loops` loops; both are at least one.
    pub fn new(shards: usize, event_loops: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        Topology { shard_mask: shards as u64 - 1, num_loops: event_loops.max(1) }
    }

    /// How many loops the shards are shared out across.
    pub fn num_loops(&self) -> usize {
        self.num_loops
    }

    /// How many shards there are (a power of two).
    pub fn total_shards(&self) -> usize {
        self.shard_mask as usize + 1
    }

    /// The shard `key` lives in — what routing and replays of the
    /// node's sharding key on.
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        (shard_hash(key) & self.shard_mask) as usize
    }

    /// The loop whose share holds `key`'s shard (shard `s` is in loop
    /// `s % L`'s share). Any loop serves any key; an op applied outside
    /// the decoding loop's share counts as a cross-core forward.
    #[inline]
    pub fn owner_of(&self, key: u64) -> usize {
        self.shard_of(key) % self.num_loops
    }
}

/// A node's counters, one set shared by every owner and event loop: the
/// version counter, the serving counters the owners bump and the
/// reactor's own (requests decoded, connections, writes). Relaxed
/// ordering everywhere: these are statistics (and a number dispenser),
/// not synchronisation. `ServerStatsSnapshot` is their point-in-time
/// copy.
#[derive(Debug, Default)]
pub struct Counters {
    // One global version counter: versions are monotone across all keys,
    // which is stronger than the per-key monotonicity clients rely on.
    // Per-key alloc+insert needs no lock of its own: both run in one
    // call on the key's owner, which the reactor serialises.
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
    pub(crate) gets: AtomicU64,
    pub(crate) puts: AtomicU64,
    pub(crate) push_batches: AtomicU64,
    pub(crate) connections: AtomicU64,
    pub(crate) open_connections: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) cross_core_forwards: AtomicU64,
    pub(crate) reply_writes: AtomicU64,
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

/// The state of the reading loop's origin link, as [`Op::Get`] carries
/// it: whether a read that wants a refetch may open one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Link {
    /// No origin: refusals and misses are answered as they are.
    #[default]
    NoOrigin,
    /// The link is down, backing off or redialling: a read joins a fetch
    /// already in flight, or degrades to its fallback at once.
    Down,
    /// The link is up: a read may open a fetch on it.
    Up,
}

/// Hand the pending read-count batch over once this many reads
/// accumulate…
const READ_STATS_FLUSH_READS: u32 = 1024;

/// …or once this many distinct keys do, whichever comes first.
const READ_STATS_FLUSH_KEYS: usize = 256;

/// With the origin link down, stop hoarding read counts past this many
/// distinct keys — the estimator feed is advisory, memory is not.
const READ_STATS_MAX_BUFFERED_KEYS: usize = 4096;

/// Backoff between origin dials. While it runs, refused and missed
/// reads degrade to their fallback replies immediately.
const ORIGIN_RETRY: SimDuration = SimDuration::from_secs(1);

/// One event loop's origin link, minus the socket the loop owns: the
/// [`Link`] its reads are told, when to dial again, the keys the link
/// owes a `FetchResp` for and the read-count batch it carries.
#[derive(Debug, Default)]
pub(crate) struct OriginLink {
    link: Link,
    /// When the next dial is due; `None` while one is in flight, the
    /// link is up or there is no origin.
    retry_at: Option<SimTime>,
    /// Keys whose `FetchReq` left on the link and whose `FetchResp`
    /// has not come back: what an outage of the link fails.
    owed: HashSet<u64>,
    /// The read-count batch owed to the origin's `E[W]` estimator.
    read_counts: HashMap<u64, u32>,
    reads_pending: u32,
}

impl OriginLink {
    /// With an `origin`, a link whose first dial is in flight; without,
    /// reads are told [`Link::NoOrigin`] and no dial is ever due.
    pub(crate) fn new(origin: bool) -> Self {
        let link = if origin { Link::Down } else { Link::NoOrigin };
        OriginLink { link, ..OriginLink::default() }
    }

    /// Count one decoded read for the origin's estimator (every read
    /// counts once, parked or answered) and tell it the link's state.
    pub(crate) fn read(&mut self, key: u64) -> Link {
        if self.link != Link::NoOrigin {
            *self.read_counts.entry(key).or_insert(0) += 1;
            self.reads_pending += 1;
        }
        self.link
    }

    /// True when the backoff has run out at `now` with no dial in flight;
    /// the caller's dial is in flight until [`dialed`](Self::dialed).
    pub(crate) fn dial_due(&mut self, now: SimTime) -> bool {
        self.retry_at.take_if(|at| now >= *at).is_some()
    }

    /// A dial finished at `now`: the link is up, or it backs off.
    pub(crate) fn dialed(&mut self, up: bool, now: SimTime) {
        self.link = if up { Link::Up } else { Link::Down };
        self.retry_at = (!up).then(|| now + ORIGIN_RETRY);
    }

    /// `key`'s `FetchReq` left on the link, which now owes its answer.
    pub(crate) fn sent(&mut self, key: u64) {
        self.owed.insert(key);
    }

    /// `key`'s `FetchResp` came back on the link.
    pub(crate) fn answered(&mut self, key: u64) {
        self.owed.remove(&key);
    }

    /// The link died at `now`: back off, and hand back every key it owed.
    pub(crate) fn lost(&mut self, now: SimTime) -> Vec<u64> {
        self.dialed(false, now);
        self.owed.drain().collect()
    }

    /// The pending read-count batch as a `ReadStats` frame, when it is
    /// due and the link is up to carry it (with the link down, the
    /// batch is shed once it outgrows its cap).
    pub(crate) fn read_stats(&mut self) -> Option<Message> {
        let keys = self.read_counts.len();
        if self.link != Link::Up {
            if keys > READ_STATS_MAX_BUFFERED_KEYS {
                self.read_counts.clear();
                self.reads_pending = 0;
            }
            return None;
        }
        if self.reads_pending < READ_STATS_FLUSH_READS && keys < READ_STATS_FLUSH_KEYS {
            return None;
        }
        self.reads_pending = 0;
        let entries = self.read_counts.drain().map(|(key, reads)| ReadStat { key, reads }).collect();
        Some(Message::ReadStats { entries })
    }
}

/// An operation on keys that all live in one shard — what the reactor
/// builds from a request and [`Owner::apply`] runs under the shard's
/// lock.
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
        /// The reading loop's origin link.
        link: Link,
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
    /// One shard's share of a store-pushed `Invalidate`.
    InvalidateKeys {
        /// This shard's share of the batch.
        keys: Vec<u64>,
    },
    /// One shard's share of a store-pushed `Update`. `install` is true
    /// for handoff streams: absent keys are installed instead of
    /// counting as missed updates.
    UpdateItems {
        /// This shard's share of the batch.
        items: Vec<UpdateItem>,
        /// Handoff stream: install absent keys.
        install: bool,
    },
}

/// What [`Owner::apply`] did with an op.
#[derive(Debug)]
pub enum Applied {
    /// A get or put ran; this reply goes to the op's `ReplyTo`.
    Reply(Message),
    /// A store-push share ran. It owes no reply of its own: the reactor
    /// acknowledges the whole batch once every share is applied.
    Pushed,
    /// A read that would have been refused or missed is parked on its
    /// key's refetch; [`Owner::fetched`] or [`Owner::fetch_failed`]
    /// answers it. `fetch` names the key when this read opened the
    /// fetch — the caller owes the origin exactly one `FetchReq` for it,
    /// on its own link — and is `None` when it joined one already in
    /// flight.
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

/// One shard, and every operation on it. See the module docs.
#[derive(Debug)]
pub struct Owner {
    shard: SlabCache,
    counters: Arc<Counters>,
    /// The readers parked on each of this shard's in-flight fetches.
    table: RefetchTable<Waiter>,
    /// Keys a store push reached while their fetch was in flight. The
    /// `FetchResp` on its way may predate that write, and the origin
    /// already counts the key as invalidated (§3.1 suppression), so no
    /// later push would correct it: `fetched` answers the parked
    /// readers and then invalidates the entry it just installed.
    overtaken: HashSet<u64>,
}

impl Owner {
    /// The owner of one of `topo`'s shards. `cache` is the node's
    /// *total* capacity and the eviction policy the shard runs.
    pub fn new(topo: Topology, cache: CacheConfig, counters: Arc<Counters>) -> Self {
        // Per-shard capacity divides the configured total across the
        // shards, so the aggregate matches the configured total.
        let total = topo.total_shards();
        let capacity = match cache.capacity {
            Capacity::Entries(e) => Capacity::Entries((e / total).max(1)),
            Capacity::Bytes(b) => Capacity::Bytes((b / total as u64).max(1)),
            Capacity::Unbounded => Capacity::Unbounded,
        };
        Owner {
            shard: SlabCache::with_config(CacheConfig { capacity, ..cache }),
            counters,
            table: RefetchTable::new(),
            overtaken: HashSet::new(),
        }
    }

    /// The next serving version. The store's and a handoff donor's
    /// versions live in different counter domains, so every install
    /// allocates here, keeping the global monotonicity clients' anomaly
    /// checks rely on.
    fn next_version(&self) -> u64 {
        self.counters.versions.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Live entries, allocated slab slots (the storage high-water mark)
    /// and evictions so far.
    pub fn gauges(&self) -> [u64; 3] {
        let s = &self.shard;
        [s.len() as u64, s.slab_capacity() as u64, s.stats().evictions]
    }

    /// Run `op` against the shard at time `now` — the single entry for
    /// ops on its keys, whichever loop decoded them (`to.home`).
    pub fn apply(&mut self, to: ReplyTo, op: Op, now: SimTime) -> Applied {
        match op {
            Op::Get { id, key, max_staleness, link } => {
                self.get(to, id, key, max_staleness, link, now)
            }
            Op::Put { id, key, value, ttl } => {
                let version = self.put(key, value, ttl, now);
                Applied::Reply(Message::PutResp { id, key, version })
            }
            Op::InvalidateKeys { keys } => {
                let applied = self.invalidate(&keys);
                bump(&self.counters.keys_invalidated, applied);
                Applied::Pushed
            }
            Op::UpdateItems { items, install } => {
                let applied = self.update(items, install, now);
                bump(&self.counters.keys_updated, applied);
                Applied::Pushed
            }
        }
    }

    /// Bounded read (`bound` in nanoseconds, `u64::MAX` for none).
    fn get(
        &mut self,
        to: ReplyTo,
        id: RequestId,
        key: u64,
        bound: u64,
        link: Link,
        now: SimTime,
    ) -> Applied {
        let bound = (bound != u64::MAX).then(|| SimDuration::from_nanos(bound));
        // The bounded read clones the entry out of the shard — for the
        // value that is a refcount bump on the cached Bytes handle. The
        // same handle then rides the outbound segment queue (or the late
        // reply), so a hit never copies the payload.
        //
        // A refusal carries no value, only the entry's age, so the client
        // can see by how much the bound was missed.
        let (status, age, served) = match self.shard.get_bounded(key, now, bound) {
            BoundedGet::Fresh(e) => (GetStatus::Fresh, e.age(now), Some((e.version, e.value))),
            BoundedGet::ServedStale(e) => {
                (GetStatus::ServedStale, e.age(now), Some((e.version, e.value)))
            }
            BoundedGet::Refused(e) => (GetStatus::RefusedStale, e.age(now), None),
            BoundedGet::Miss => (GetStatus::Miss, SimDuration::ZERO, None),
        };
        let age = age.as_nanos();
        if served.is_none() {
            // Join a fetch in flight whatever this loop's link; open one
            // only on a live link.
            let park = match link {
                Link::NoOrigin => false,
                Link::Down => self.table.is_in_flight(key),
                Link::Up => true,
            };
            if park {
                let waiter = Waiter { to, id, fallback_status: status, fallback_age: age };
                let fetch = match self.table.park(key, waiter) {
                    Park::Fetch => {
                        bump(&self.counters.refetches, 1);
                        Some(key)
                    }
                    Park::Coalesced => {
                        bump(&self.counters.refetch_coalesced, 1);
                        None
                    }
                };
                return Applied::Parked { fetch };
            }
            if link == Link::Down {
                // Origin down and the retry backoff running: degrade now.
                bump(&self.counters.origin_errors, 1);
            }
        }
        self.count_read_outcome(status);
        Applied::Reply(get_resp(id, key, status, age, served))
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

    /// Write: allocate a serving version and install into the shard.
    /// The value handle moves into the cache as-is unless it is a short
    /// slice of a receive chunk, which is re-pinned.
    fn put(&mut self, key: u64, value: Bytes, ttl: u64, now: SimTime) -> u64 {
        let expires_at = (ttl > 0).then(|| now + SimDuration::from_nanos(ttl));
        let value = repin_small(value, DEFAULT_PIN_THRESHOLD);
        let version = self.next_version();
        self.shard.insert_value(key, version, value, now, expires_at);
        version
    }

    /// Mark `keys` known-stale — this shard's share of a store-pushed
    /// invalidation batch, or one key from the operator's
    /// `ServerHandle::invalidate`. Returns how many were actually
    /// cached; keys the cache does not hold are no-ops (counted by the
    /// cache as missed invalidations), exactly like the simulation path.
    pub fn invalidate(&mut self, keys: &[u64]) -> u64 {
        let mut applied = 0u64;
        for &key in keys {
            self.note_push(key);
            if self.shard.apply_invalidate(key) {
                applied += 1;
            }
        }
        applied
    }

    /// A store push for `key` arrived: remember it if a fetch of the key
    /// is in flight (see `Owner::overtaken`).
    fn note_push(&mut self, key: u64) {
        if self.table.is_in_flight(key) {
            self.overtaken.insert(key);
        }
    }

    /// This shard's share of a store-pushed update batch; returns how
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
            let present = self.shard.contains(item.key);
            // A missed update burns no serving version on a key that is
            // not here.
            let version = if present || install { self.next_version() } else { 0 };
            let value = repin_small(item.value, DEFAULT_PIN_THRESHOLD);
            let refreshed = if present || !install {
                // In place — or, on an absent key, counted by the cache
                // as a missed update.
                self.shard.apply_update_value(item.key, version, value, now, None)
            } else {
                // Handoff install: the donor streamed a key this node
                // now owns. No TTL — fresh until invalidated/evicted,
                // exactly like a refetch install.
                self.shard.insert_value(item.key, version, value, now, None);
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
        self.shard.insert_value(key, version, value.clone(), now, None);
        let replies = self
            .table
            .complete(key)
            .into_iter()
            .map(|w| {
                bump(&self.counters.fresh, 1);
                let served = Some((version, value.clone()));
                (w.to, get_resp(w.id, key, GetStatus::Fresh, 0, served))
            })
            .collect();
        if self.overtaken.remove(&key) {
            // A push overtook this fetch: the value may be the one that
            // push superseded, so the next read refetches (re-clearing
            // the origin's mark).
            self.shard.apply_invalidate(key);
        }
        replies
    }

    /// The link that carried `key`'s fetch died: close the fetch and
    /// answer every reader parked on it the refusal/miss it would have
    /// gotten without an origin.
    pub fn fetch_failed(&mut self, key: u64) -> Vec<(ReplyTo, Message)> {
        self.overtaken.remove(&key);
        let waiters = self.table.complete(key);
        bump(&self.counters.origin_errors, waiters.len() as u64);
        waiters
            .into_iter()
            .map(|w| {
                self.count_read_outcome(w.fallback_status);
                (w.to, get_resp(w.id, key, w.fallback_status, w.fallback_age, None))
            })
            .collect()
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
        let keys: Vec<u64> = self.shard.keys().collect();
        for key in keys {
            let Some(owner) = ring.node_for(key) else { continue };
            if owner == me {
                continue;
            }
            if let Some(entry) = self.shard.peek(key) {
                let servable =
                    entry.state == Freshness::Fresh && entry.expires_at.is_none_or(|at| now < at);
                if servable {
                    moved.entry(owner.to_string()).or_default().push(UpdateItem {
                        key,
                        version: entry.version,
                        value: entry.value.clone(),
                    });
                }
            }
            self.shard.remove(key);
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

    /// One unbounded LRU shard.
    fn owner() -> (Owner, Arc<Counters>) {
        let counters = Arc::new(Counters::default());
        let cache = CacheConfig { capacity: Capacity::Unbounded, eviction: EvictionPolicy::Lru };
        (Owner::new(Topology::new(1, 1), cache, Arc::clone(&counters)), counters)
    }

    fn count(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    fn put(o: &mut Owner, key: u64, value: Bytes, ttl: u64, now: u64) -> u64 {
        match o.apply(A, Op::Put { id: RequestId(1), key, value, ttl }, at(now)) {
            Applied::Reply(Message::PutResp { version, .. }) => version,
            other => panic!("put answered {other:?}"),
        }
    }

    fn get(o: &mut Owner, to: ReplyTo, key: u64, bound: u64, link: Link, now: u64) -> Applied {
        let max_staleness = bound;
        o.apply(to, Op::Get { id: RequestId(to.token), key, max_staleness, link }, at(now))
    }

    /// A read that must park: the key it opened a fetch for, if any.
    fn park(o: &mut Owner, to: ReplyTo, key: u64, bound: u64, link: Link, now: u64) -> Option<u64> {
        match get(o, to, key, bound, link, now) {
            Applied::Parked { fetch } => fetch,
            other => panic!("did not park: {other:?}"),
        }
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

    /// A read on a node without an origin: it answers at once.
    fn read(o: &mut Owner, key: u64, bound: u64, now: u64) -> (GetStatus, u64, u64, Bytes) {
        match get(o, A, key, bound, Link::NoOrigin, now) {
            Applied::Reply(reply) => resp(&reply),
            other => panic!("read answered {other:?}"),
        }
    }

    fn push(o: &mut Owner, op: Op, now: u64) {
        assert!(matches!(o.apply(B, op, at(now)), Applied::Pushed));
    }

    #[test]
    fn read_outcomes_turn_exactly_at_the_ttl_deadline_and_the_bound() {
        use GetStatus::*;
        let (mut o, c) = owner();
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

    /// One shard of 8 entries under `eviction`, then a script through
    /// `apply`: keys 1 and 2 are put and read once; a handoff burst
    /// installs 20 one-shot keys; the last of those the burst evicted is
    /// put again; a second burst installs 20 more. Returns which of 1, 2
    /// and that key are resident after each burst.
    fn scan_script(eviction: EvictionPolicy) -> [[bool; 3]; 2] {
        let cache = CacheConfig { capacity: Capacity::Entries(8), eviction };
        let mut o = Owner::new(Topology::new(1, 1), cache, Arc::default());
        for key in [1, 2] {
            put(&mut o, key, bytes(key as u8, 4), 0, 0);
            assert_eq!(read(&mut o, key, NONE, 0).0, GetStatus::Fresh);
        }
        let burst = |o: &mut Owner, keys: std::ops::Range<u64>| {
            let items = keys.map(|key| UpdateItem { key, version: 1, value: bytes(0, 4) }).collect();
            push(o, Op::UpdateItems { items, install: true }, 1);
        };
        burst(&mut o, 100..120);
        // The one-shots leave oldest first.
        let back = (100..120).rev().find(|&key| !o.shard.contains(key)).unwrap_or(0);
        let resident = |o: &Owner| [1, 2, back].map(|key| o.shard.contains(key));
        let first = resident(&o);
        put(&mut o, back, bytes(3, 4), 0, 2);
        burst(&mut o, 200..220);
        [first, resident(&o)]
    }

    #[test]
    fn twice_read_keys_survive_a_handoff_burst_under_the_node_default() {
        // ARC: the reads moved 1 and 2 to T2, which one-shot installs do
        // not reach; the key put back came from its B1 ghost straight
        // into T2.
        let arc = scan_script(crate::ServerConfig::default().cache.eviction);
        assert_eq!(arc, [[true, true, false], [true, true, true]]);
        // LRU: each burst flushes everything that was there before it.
        let lru = scan_script(EvictionPolicy::Lru);
        assert_eq!(lru, [[false, false, false], [false, false, false]]);
    }

    #[test]
    fn versions_rise_with_every_install_of_a_key() {
        let (mut o, _) = owner();
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
        let (mut o, c) = owner();
        let item = |key, b| UpdateItem { key, version: 999, value: bytes(b, 4) };
        let v1 = put(&mut o, 1, bytes(0x01, 4), 0, 10);

        // Present key: refreshed in place under a fresh serving version.
        push(&mut o, Op::UpdateItems { items: vec![item(1, 0x02)], install: false }, 20);
        let (status, age, v2, value) = read(&mut o, 1, NONE, 25);
        assert_eq!((status, age, &value[..]), (GetStatus::Fresh, 5, &[0x02; 4][..]));
        assert!(v2 > v1 && v2 != 999, "the store's version is another domain");
        assert_eq!(count(&c.keys_updated), 1);

        // Absent key, store push: nothing happens, no version is burned.
        push(&mut o, Op::UpdateItems { items: vec![item(2, 0x03)], install: false }, 30);
        assert_eq!(read(&mut o, 2, NONE, 30).0, GetStatus::Miss);
        assert_eq!((count(&c.keys_updated), count(&c.handoff_in)), (1, 0));
        assert_eq!(put(&mut o, 3, bytes(0, 1), 0, 30), v2 + 1);

        // Absent key, handoff stream: installed, fresh from now.
        push(&mut o, Op::UpdateItems { items: vec![item(2, 0x04)], install: true }, 40);
        let (status, age, _, value) = read(&mut o, 2, 10, 45);
        assert_eq!((status, age, &value[..]), (GetStatus::Fresh, 5, &[0x04; 4][..]));
        assert_eq!((count(&c.keys_updated), count(&c.handoff_in)), (2, 1));
    }

    #[test]
    fn parked_readers_coalesce_and_are_all_answered_fresh_at_age_zero() {
        let (mut o, c) = owner();
        assert_eq!(park(&mut o, A, 9, 50, Link::Up, 100), Some(9));
        // B's own link is down, but a fetch is in flight: it joins.
        assert_eq!(park(&mut o, B, 9, NONE, Link::Down, 101), None);
        assert_eq!((count(&c.refetches), count(&c.refetch_coalesced)), (1, 1));
        assert!(o.table.is_in_flight(9) && !o.table.is_in_flight(8));

        let replies = o.fetched(9, bytes(0xCC, 16), at(200));
        assert!(!o.table.is_in_flight(9), "the fetch completed");
        assert_eq!(replies.iter().map(|(to, _)| *to).collect::<Vec<_>>(), [A, B]);
        for (_, reply) in &replies {
            let (status, age, version, value) = resp(reply);
            assert_eq!((status, age, &value[..]), (GetStatus::Fresh, 0, &[0xCC; 16][..]));
            assert_eq!(version, read(&mut o, 9, NONE, 200).2, "the installed entry's version");
        }
        assert_eq!(count(&c.fresh), 2 + 2, "two waiters, two follow-up reads");
        assert_eq!((count(&c.refetches), count(&c.refetch_coalesced)), (1, 1));
        assert_eq!(count(&c.misses), 0, "a parked read is counted when it is answered");
        assert_eq!(count(&c.origin_errors), 0, "joining with a down link is no error");
    }

    #[test]
    fn a_push_that_overtakes_a_fetch_leaves_the_installed_entry_known_stale() {
        let (mut o, _) = owner();
        assert_eq!(park(&mut o, A, 9, NONE, Link::Up, 100), Some(9));
        push(&mut o, Op::InvalidateKeys { keys: vec![9] }, 110);
        // The waiter is still answered from the fetch it asked for…
        let replies = o.fetched(9, bytes(0xCC, 4), at(120));
        assert_eq!(resp(&replies[0].1).0, GetStatus::Fresh);
        // …but the value may predate the push, so the next read refetches.
        assert_eq!(park(&mut o, A, 9, NONE, Link::Up, 121), Some(9));
        // A fetch nothing overtook installs a servable entry.
        o.fetched(9, bytes(0xDD, 4), at(130));
        assert_eq!(read(&mut o, 9, NONE, 131).0, GetStatus::Fresh);

        // A failed fetch forgets its overtaking push: the next fetch of
        // the key, which nothing overtook, installs a servable entry.
        push(&mut o, Op::InvalidateKeys { keys: vec![9] }, 140);
        assert_eq!(park(&mut o, A, 9, NONE, Link::Up, 141), Some(9));
        push(&mut o, Op::InvalidateKeys { keys: vec![9] }, 142);
        assert_eq!(o.fetch_failed(9).len(), 1);
        assert_eq!(park(&mut o, A, 9, NONE, Link::Up, 150), Some(9));
        o.fetched(9, bytes(0xEE, 4), at(160));
        assert_eq!(read(&mut o, 9, NONE, 161).0, GetStatus::Fresh);
    }

    #[test]
    fn a_failed_fetch_answers_each_waiter_its_own_fallback_and_a_down_link_degrades_at_once() {
        let (mut o, c) = owner();
        put(&mut o, 1, bytes(0x01, 4), 0, 100);
        assert_eq!(park(&mut o, A, 1, 50, Link::Up, 175), Some(1));
        assert_eq!(park(&mut o, B, 1, 50, Link::Down, 176), None);
        assert_eq!(park(&mut o, B, 2, NONE, Link::Up, 180), Some(2));

        // Key 1's link died; key 2's fetch rode another and stays.
        let replies = o.fetch_failed(1);
        assert!(!o.table.is_in_flight(1) && o.table.is_in_flight(2));
        let fallbacks: Vec<_> = replies.iter().map(|(to, r)| (*to, resp(r).0, resp(r).1)).collect();
        assert_eq!(fallbacks, [(A, GetStatus::RefusedStale, 75), (B, GetStatus::RefusedStale, 76)]);
        assert_eq!(count(&c.origin_errors), 2, "one per waiter");
        assert_eq!(count(&c.refused), 2);
        let (to, reply) = &o.fetch_failed(2)[0];
        assert_eq!((*to, resp(reply).0, resp(reply).1), (B, GetStatus::Miss, 0));
        assert_eq!((count(&c.origin_errors), count(&c.misses)), (3, 1));

        // Link down and nothing in flight: the fallback comes back from
        // `apply`, counted as an origin error; without an origin it is
        // not one.
        match get(&mut o, A, 2, NONE, Link::Down, 190) {
            Applied::Reply(reply) => assert_eq!(resp(&reply).0, GetStatus::Miss),
            other => panic!("parked with the link down: {other:?}"),
        }
        assert_eq!((count(&c.origin_errors), count(&c.refetches)), (4, 2));
        assert_eq!(read(&mut o, 2, NONE, 195).0, GetStatus::Miss);
        assert_eq!(count(&c.origin_errors), 4);
        // On a live link, reads park again.
        assert_eq!(park(&mut o, A, 2, NONE, Link::Up, 200), Some(2));
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
                        push(o, Op::UpdateItems { items, install: updates == 2 }, 1);
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
            let (mut o, _) = owner();
            serve_wire(&mut o, &wire, cuts);
            let mut cached = Vec::new();
            for key in o.shard.keys() {
                cached.push((key, o.shard.peek(key).expect("listed key").value.clone()));
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
        let (mut o, _) = owner();
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
        assert_eq!(o.gauges()[0], (0..90).filter(|k| !leaving(k)).count() as u64);
    }

    /// The link, up since `now`.
    fn link_up(now: u64) -> OriginLink {
        let mut l = OriginLink::new(true);
        l.dialed(true, at(now));
        l
    }

    /// The `(key, reads)` pairs of a `ReadStats` frame, by key.
    fn stats(frame: Option<Message>) -> Vec<(u64, u32)> {
        let Some(Message::ReadStats { entries }) = frame else { panic!("no ReadStats") };
        let mut counts: Vec<(u64, u32)> = entries.iter().map(|e| (e.key, e.reads)).collect();
        counts.sort_unstable();
        counts
    }

    #[test]
    fn a_redial_falls_due_once_per_retry_and_waits_on_the_dial_in_flight() {
        const RETRY: u64 = ORIGIN_RETRY.as_nanos();
        // The first dial is in flight from the start.
        let mut l = OriginLink::new(true);
        assert_eq!((l.read(1), l.dial_due(at(10 * RETRY))), (Link::Down, false));
        l.dialed(true, at(0));
        assert_eq!((l.read(1), l.dial_due(at(10 * RETRY))), (Link::Up, false));

        let lost_at = 5 * RETRY;
        l.lost(at(lost_at));
        assert_eq!((l.read(1), l.dial_due(at(lost_at + RETRY - 1))), (Link::Down, false));
        assert!(l.dial_due(at(lost_at + RETRY)));
        // One dial in flight: nothing more is due until it is answered.
        assert_eq!((l.read(1), l.dial_due(at(lost_at + 10 * RETRY))), (Link::Down, false));
        // A failed dial backs off from when it failed.
        let failed_at = lost_at + RETRY + 100;
        l.dialed(false, at(failed_at));
        assert_eq!((l.read(1), l.dial_due(at(failed_at + RETRY - 1))), (Link::Down, false));
        assert!(l.dial_due(at(failed_at + RETRY)));
        l.dialed(true, at(failed_at + RETRY + 5));
        assert_eq!((l.read(1), l.dial_due(at(failed_at + 10 * RETRY))), (Link::Up, false));

        // Without an origin a read is told so, counts nothing and no
        // dial is ever due.
        let mut none = OriginLink::new(false);
        for key in 0..2 * READ_STATS_FLUSH_READS as u64 {
            assert_eq!(none.read(key), Link::NoOrigin);
        }
        assert!(!none.dial_due(at(10 * RETRY)));
        assert_eq!(none.read_stats(), None);
    }

    #[test]
    fn a_lost_link_hands_back_exactly_the_keys_it_owed() {
        let mut l = link_up(0);
        for key in [4, 5, 6] {
            l.sent(key);
        }
        l.answered(5);
        let mut failed = l.lost(at(1));
        failed.sort_unstable();
        assert_eq!(failed, [4, 6]);
        l.dialed(true, at(2));
        assert_eq!(l.lost(at(3)), Vec::<u64>::new(), "nothing is owed twice");
    }

    #[test]
    fn read_counts_leave_in_full_batches_and_are_shed_while_the_link_is_down() {
        // Due at READ_STATS_FLUSH_READS reads…
        let mut l = link_up(0);
        for i in 1..READ_STATS_FLUSH_READS {
            l.read(u64::from(i % 3));
            assert_eq!(l.read_stats(), None, "{i} reads");
        }
        l.read(7);
        assert_eq!(stats(l.read_stats()), [(0, 341), (1, 341), (2, 341), (7, 1)]);
        assert_eq!(l.read_stats(), None, "every count leaves once");

        // …or at READ_STATS_FLUSH_KEYS distinct keys.
        let keys = READ_STATS_FLUSH_KEYS as u64;
        for key in 1..keys {
            l.read(key);
            assert_eq!(l.read_stats(), None, "{key} keys");
        }
        l.read(keys);
        assert_eq!(stats(l.read_stats()), (1..=keys).map(|k| (k, 1)).collect::<Vec<_>>());

        // With the link down a batch waits for it, up to
        // READ_STATS_MAX_BUFFERED_KEYS keys…
        let cap = READ_STATS_MAX_BUFFERED_KEYS as u64;
        l.lost(at(1));
        for key in 0..cap {
            l.read(key);
        }
        assert_eq!(l.read_stats(), None);
        l.dialed(true, at(2));
        assert_eq!(stats(l.read_stats()).len() as u64, cap);

        // …and past that it is shed.
        l.lost(at(3));
        for key in 0..=cap {
            l.read(key);
        }
        assert_eq!(l.read_stats(), None);
        l.dialed(true, at(4));
        l.read(cap + 1);
        assert_eq!(l.read_stats(), None, "the shed batch is gone, the new one not due");
    }
}
