//! The slab-backed cache — the one store every engine and server runs.
//!
//! [`SlabCache`] keeps entries in one contiguous `Vec` slab with the
//! recency lists threaded *through* them as intrusive `prev`/`next`
//! indices, and the key index maps keys to slab slots through a
//! SplitMix-based hasher instead of SipHash. A read touches exactly two
//! arrays (index probe, slab slot) with no per-entry allocation and no
//! DoS-resistant-but-slow hashing — the right trade for a store that is
//! used by one thread at a time (the simulation engine, or one node
//! shard behind its lock) and never sees attacker-controlled hash
//! flooding (the serving path already partitions keys with the same
//! function).
//!
//! All mutating operations take `now` explicitly — the cache has no
//! clock of its own, which is what makes it usable under the simulation
//! engine and the wall-clock server alike. Both write the same way: an
//! entry holds its value bytes, and its size is their length.
//! Freshness semantics: lazy TTL expiry, invalidate-marks-in-place,
//! update-rewrites-if-present, and the [`BoundedGet`] classification of
//! staleness-bounded reads.
//!
//! Eviction is a plain `match` on the [`EvictionPolicy`] in two places:
//! what a hit does to the lists ([`SlabCache::get`] and friends call
//! `touch`) and which slot overflow evicts (`pick_victim`). LRU, FIFO and
//! the freshness-aware probe use the main list only; SLRU adds a second
//! head/tail pair for its protected segment, with a per-slot flag naming
//! the list a slot is on.
//!
//! ARC ([`EvictionPolicy::Adaptive`], Megiddo & Modha, FAST '03) runs on
//! the same two lists — T1 is the main list, T2 the protected one — and
//! adds only key-only ghost lists B1/B2 (keys recently evicted from T1
//! and T2) and its self-tuning target `p` for |T1|. With c the entry
//! capacity (the resident count under a byte budget):
//!
//! * a hit anywhere moves the key to the head of T2; a put or install
//!   over a resident key is a hit;
//! * the insert of a key found in B1 sets p ← min(c, p + max(|B2|/|B1|, 1)),
//!   one found in B2 sets p ← max(0, p − max(|B1|/|B2|, 1)); either goes
//!   to the head of T2, any other insert to the head of T1;
//! * while the shard is over capacity, REPLACE evicts T1's tail into B1
//!   when |T1| > p (or |T1| = p on a B2 hit), else T2's tail into B2 —
//!   |T1| not counting the key being inserted, which is never evicted;
//! * then the ghosts are trimmed from their tails to |T1|+|B1| ≤ c and
//!   |T1|+|T2|+|B1|+|B2| ≤ 2c (B1 first, then B2) — on a full shard
//!   exactly ARC's case-IV deletions, done after REPLACE instead of
//!   before.
//!
//! A ghost is never a slab slot and never holds a payload: it is a key
//! whose entry in the key index is tagged `GHOST` and names a node of
//! the small ghost list instead of a slot, so an eviction rewrites the
//! victim's index entry in place and a ghost hit is found by the lookup
//! every insert makes anyway. `len`, `keys`, `peek` and
//! [`SlabCache::slab_capacity`] count resident entries only, as under
//! every other policy. [`SlabCache::remove`] and every insert drop the
//! key's ghost.
//!
//! Free slots are chained through the same `next` field (a freed slot's
//! payload handle is dropped eagerly so a dead entry cannot pin a shared
//! receive-buffer allocation), so the slab's high-water mark —
//! [`SlabCache::slab_capacity`] — is the live ceiling, not a leak.

use crate::cache::{BoundedGet, CacheConfig, CacheStats, Capacity, EvictionPolicy, GetResult};
use crate::entry::{Entry, Freshness};
use bytes::Bytes;
use fresca_sim::rng::mix64;
use fresca_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Index sentinel: "no slot".
const NIL: u32 = u32::MAX;

/// Tags a key-index value that names an ARC ghost node, not a slab slot
/// (slots and ghost nodes are numbered below it).
const GHOST: u32 = 1 << 31;

/// A [`Hasher`] that finalises `u64` keys with one SplitMix64 round —
/// ~3 multiplies instead of SipHash's keyed rounds. Only suitable where
/// the key space is not attacker-controlled per shard (the serving path
/// partitions keys with the same function before they reach a shard).
#[derive(Debug, Default, Clone, Copy)]
pub struct SplitMixHasher {
    state: u64,
}

impl Hasher for SplitMixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused on the u64-key hot path).
        for &b in bytes {
            self.state = mix64(self.state ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = mix64(n);
    }
}

/// [`BuildHasher`] for [`SplitMixHasher`].
#[derive(Debug, Default, Clone, Copy)]
pub struct SplitMixBuild;

impl BuildHasher for SplitMixBuild {
    type Hasher = SplitMixHasher;

    #[inline]
    fn build_hasher(&self) -> SplitMixHasher {
        SplitMixHasher::default()
    }
}

/// The main recency list (SLRU's probationary segment, ARC's T1); also
/// names ARC's ghost list B1.
const MAIN: usize = 0;
/// SLRU's protected segment (ARC's T2); empty under every other policy.
/// Also names ARC's ghost list B2.
const PROTECTED: usize = 1;

/// One slab slot: the entry plus its intrusive list links. Occupied
/// slots chain through `prev`/`next` in recency order on the list
/// `protected` names; free slots reuse `next` as the free-list link
/// (with `prev == NIL` and an empty placeholder entry, so freed payload
/// handles drop immediately).
#[derive(Debug)]
struct Slot {
    key: u64,
    entry: Entry,
    prev: u32,
    next: u32,
    /// True while the slot is on the [`PROTECTED`] list.
    protected: bool,
}

// The segment flag may cost one aligned word per slot, no more.
const _: () = assert!(std::mem::size_of::<Slot>() <= std::mem::size_of::<Entry>() + 24);

/// Head (most recent) and tail (coldest) of one recency list.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

/// One ghost: a key recently evicted under ARC, linked into B1 or B2.
#[derive(Debug)]
struct Ghost {
    key: u64,
    prev: u32,
    next: u32,
    list: usize,
}

/// ARC's ghost lists B1 ([`MAIN`]) and B2 ([`PROTECTED`]): keys only,
/// most recent at the head, in their own small slab with a free list.
/// The key index maps each ghost's key to `GHOST | node`.
#[derive(Debug)]
struct Ghosts {
    nodes: Vec<Ghost>,
    lists: [List; 2],
    lens: [usize; 2],
    free: u32,
}

impl Ghosts {
    fn new() -> Self {
        Ghosts { nodes: Vec::new(), lists: [List { head: NIL, tail: NIL }; 2], lens: [0; 2], free: NIL }
    }

    fn total(&self) -> usize {
        self.lens[MAIN] + self.lens[PROTECTED]
    }

    /// Link `key` at the head of `list`; returns its node.
    fn push(&mut self, list: usize, key: u64) -> u32 {
        let head = self.lists[list].head;
        let node = Ghost { key, prev: NIL, next: head, list };
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx < GHOST, "ghost slab full: 2^31 nodes");
            self.nodes.push(node);
            idx
        };
        if head == NIL {
            self.lists[list].tail = idx;
        } else {
            self.nodes[head as usize].prev = idx;
        }
        self.lists[list].head = idx;
        self.lens[list] += 1;
        idx
    }

    /// Unlink and free node `idx`; returns the list it was on.
    fn unlink(&mut self, idx: u32) -> usize {
        let Ghost { prev, next, list, .. } = self.nodes[idx as usize];
        if prev == NIL {
            self.lists[list].head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.lists[list].tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
        self.lens[list] -= 1;
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
        list
    }

    /// Unlink the oldest ghost of `list`; returns its key.
    fn pop_tail(&mut self, list: usize) -> Option<u64> {
        let tail = self.lists[list].tail;
        (tail != NIL).then(|| {
            self.unlink(tail);
            self.nodes[tail as usize].key
        })
    }
}

/// Single-owner slab cache: contiguous entry storage, intrusive recency
/// lists, SplitMix-indexed. See the [module docs](self) for the design.
///
/// ```
/// use bytes::Bytes;
/// use fresca_cache::{slab::SlabCache, Capacity};
/// use fresca_sim::{SimDuration, SimTime};
///
/// let mut shard = SlabCache::new(Capacity::Entries(1024));
/// let t0 = SimTime::ZERO;
/// let value = Bytes::from(vec![0u8; 128]);
/// shard.insert_value(42, 1, value, t0, Some(t0 + SimDuration::from_secs(10)));
/// let read = shard.get_bounded(42, t0 + SimDuration::from_secs(3), Some(SimDuration::from_secs(5)));
/// assert!(read.is_served());
/// ```
pub struct SlabCache {
    config: CacheConfig,
    slots: Vec<Slot>,
    /// Key → slab slot, or → `GHOST | node` for an ARC ghost.
    map: HashMap<u64, u32, SplitMixBuild>,
    /// `[MAIN, PROTECTED]`, indexed by `Slot::protected`.
    lists: [List; 2],
    /// Entries on the [`PROTECTED`] list.
    protected_len: usize,
    /// Free-list head (chained through `Slot::next`).
    free: u32,
    bytes: u64,
    stats: CacheStats,
    /// ARC's target size for T1; 0 under every other policy.
    arc_p: usize,
    /// ARC's ghost lists; empty under every other policy.
    ghosts: Ghosts,
}

impl std::fmt::Debug for SlabCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabCache")
            .field("config", &self.config)
            .field("len", &self.len())
            .field("slab_capacity", &self.slots.len())
            .finish()
    }
}

impl SlabCache {
    /// New slab cache with the given capacity limit and LRU eviction.
    pub fn new(capacity: Capacity) -> Self {
        Self::with_config(CacheConfig { capacity, eviction: EvictionPolicy::Lru })
    }

    /// New slab cache with the given capacity limit and eviction policy.
    pub fn with_config(config: CacheConfig) -> Self {
        if let Capacity::Entries(n) = config.capacity {
            assert!(n > 0, "entry capacity must be positive");
        }
        match config.eviction {
            EvictionPolicy::FreshnessAware { probe_depth } => {
                assert!(probe_depth > 0, "probe depth must be positive");
            }
            EvictionPolicy::Slru { protected_pct } => assert!(
                (1..=99).contains(&protected_pct),
                "protected_pct must be in 1..=99, got {protected_pct}"
            ),
            EvictionPolicy::Lru | EvictionPolicy::Fifo | EvictionPolicy::Adaptive => {}
        }
        SlabCache {
            config,
            slots: Vec::new(),
            map: HashMap::with_hasher(SplitMixBuild),
            lists: [List { head: NIL, tail: NIL }; 2],
            protected_len: 0,
            free: NIL,
            bytes: 0,
            stats: CacheStats::default(),
            arc_p: 0,
            ghosts: Ghosts::new(),
        }
    }

    /// Number of cached entries (including stale ones).
    pub fn len(&self) -> usize {
        self.map.len() - self.ghosts.total()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot holding `key`, if it is resident.
    #[inline]
    fn slot(&self, key: u64) -> Option<u32> {
        self.map.get(&key).copied().filter(|&i| i & GHOST == 0)
    }

    /// Total value bytes currently cached.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Allocated slab slots (live + free-listed) — the high-water mark
    /// reported as the `slab_capacity` stats gauge.
    pub fn slab_capacity(&self) -> usize {
        self.slots.len()
    }

    /// True if `key` is present (fresh or stale).
    pub fn contains(&self, key: u64) -> bool {
        self.slot(key).is_some()
    }

    /// Peek at an entry without touching recency or stats.
    pub fn peek(&self, key: u64) -> Option<&Entry> {
        self.slot(key).map(|i| &self.slots[i as usize].entry)
    }

    /// Iterate over the cached keys (arbitrary order; for state mirrors
    /// and debugging, not for anything order-sensitive).
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.map.iter().filter(|&(_, &i)| i & GHOST == 0).map(|(&k, _)| k)
    }

    // ---- intrusive recency lists --------------------------------------

    fn unlink(&mut self, idx: u32) {
        let (prev, next, list) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next, s.protected as usize)
        };
        if prev == NIL {
            self.lists[list].head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.lists[list].tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Link `idx` at the head of the list its `protected` flag names.
    fn push_front(&mut self, idx: u32) {
        let list = self.slots[idx as usize].protected as usize;
        let old_head = self.lists[list].head;
        {
            let s = &mut self.slots[idx as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = idx;
        }
        self.lists[list].head = idx;
        if self.lists[list].tail == NIL {
            self.lists[list].tail = idx;
        }
    }

    fn move_to_front(&mut self, idx: u32) {
        if self.lists[self.slots[idx as usize].protected as usize].head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Unlink `idx`, flip its segment flag, and relink it at the head of
    /// the other list.
    fn move_to_list(&mut self, idx: u32, protected: bool) {
        self.unlink(idx);
        self.slots[idx as usize].protected = protected;
        self.push_front(idx);
    }

    /// List maintenance for a hit or an in-place rewrite of `idx`.
    #[inline]
    fn touch(&mut self, idx: u32) {
        match self.config.eviction {
            EvictionPolicy::Fifo => {}
            EvictionPolicy::Lru | EvictionPolicy::FreshnessAware { .. } => self.move_to_front(idx),
            EvictionPolicy::Adaptive => _ = self.promote(idx),
            EvictionPolicy::Slru { protected_pct } => {
                if self.promote(idx) {
                    self.rebalance(protected_pct);
                }
            }
        }
    }

    /// Move `idx` to the head of the protected list (SLRU's protected
    /// segment, ARC's T2); true when it came from the main list.
    fn promote(&mut self, idx: u32) -> bool {
        if self.slots[idx as usize].protected {
            self.move_to_front(idx);
            return false;
        }
        self.move_to_list(idx, true);
        self.protected_len += 1;
        true
    }

    /// The entry count SLRU's budget and ARC's c are shares of: the
    /// entry capacity, or — with a byte or unbounded capacity — the
    /// current population.
    fn entry_budget(&self) -> usize {
        match self.config.capacity {
            Capacity::Entries(n) => n,
            Capacity::Bytes(_) | Capacity::Unbounded => self.len(),
        }
    }

    /// After an SLRU promotion, the protected segment's coldest entries
    /// drop back to probationary MRU while it is over its budget
    /// (demotion is not eviction).
    fn rebalance(&mut self, protected_pct: u8) {
        let budget = (self.entry_budget() * protected_pct as usize / 100).max(1);
        while self.protected_len > budget {
            self.move_to_list(self.lists[PROTECTED].tail, false);
            self.protected_len -= 1;
        }
    }

    // ---- slot allocation ---------------------------------------------

    /// A slot holding `entry`, not yet on any list.
    fn alloc(&mut self, key: u64, entry: Entry) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let slot = &mut self.slots[idx as usize];
            self.free = slot.next;
            slot.key = key;
            slot.entry = entry;
            slot.prev = NIL;
            slot.next = NIL;
            idx
        } else {
            let idx = self.slots.len() as u32;
            assert!(idx < GHOST, "slab full: 2^31 slots");
            self.slots.push(Slot { key, entry, prev: NIL, next: NIL, protected: false });
            idx
        }
    }

    fn release(&mut self, idx: u32) {
        // Drop the payload handle eagerly: a free-listed slot must not
        // keep a (possibly large, possibly shared) allocation alive.
        let slot = &mut self.slots[idx as usize];
        slot.entry.value = Bytes::new();
        slot.prev = NIL;
        slot.next = self.free;
        slot.protected = false;
        self.free = idx;
    }

    // ---- reads --------------------------------------------------------

    /// Read `key` at time `now`. Classifies the access, updates stats and
    /// (for every policy but FIFO) recency. The caller is responsible for
    /// the consequent backend fetch on misses.
    pub fn get(&mut self, key: u64, now: SimTime) -> GetResult {
        let Some(idx) = self.slot(key) else {
            self.stats.cold_misses += 1;
            return GetResult::ColdMiss;
        };
        let entry = self.slots[idx as usize].entry.clone();
        self.touch(idx);
        if entry.is_stale(now) {
            self.stats.stale_misses += 1;
            GetResult::StaleMiss(entry)
        } else {
            self.stats.fresh_hits += 1;
            GetResult::FreshHit(entry)
        }
    }

    /// Read `key` at `now` under a maximum acceptable staleness: the
    /// serving-path read. `max_staleness` bounds the entry's *age* (time
    /// since it was last made fresh); `None` accepts any age.
    ///
    /// Classification:
    ///
    /// * absent → [`BoundedGet::Miss`]
    /// * invalidated → [`BoundedGet::Refused`] (known stale; its true
    ///   staleness is unknowable, so no bound can admit it)
    /// * age ≤ bound, within TTL → [`BoundedGet::Fresh`]
    /// * age ≤ bound, past TTL → [`BoundedGet::ServedStale`] (the
    ///   server's default contract expired, but the caller's explicit
    ///   bound still admits it)
    /// * age > bound → [`BoundedGet::Refused`] — even when the TTL says
    ///   fresh: the reader's bound is tighter than the write's TTL
    ///
    /// Stats: `Fresh` counts as a fresh hit and `Miss` as a cold miss;
    /// both `ServedStale` and `Refused` count as stale misses (the
    /// paper's `C_S` event) and additionally bump `stale_served` /
    /// `bound_refusals`, so [`CacheStats::reads`] stays the total over
    /// every read path.
    pub fn get_bounded(
        &mut self,
        key: u64,
        now: SimTime,
        max_staleness: Option<SimDuration>,
    ) -> BoundedGet {
        let Some(idx) = self.slot(key) else {
            self.stats.cold_misses += 1;
            return BoundedGet::Miss;
        };
        let entry = self.slots[idx as usize].entry.clone();
        self.touch(idx);
        let within_bound = entry.state != Freshness::Invalidated
            && max_staleness.is_none_or(|bound| entry.age(now) <= bound);
        match (within_bound, entry.is_stale(now)) {
            (true, false) => {
                self.stats.fresh_hits += 1;
                BoundedGet::Fresh(entry)
            }
            (true, true) => {
                self.stats.stale_misses += 1;
                self.stats.stale_served += 1;
                BoundedGet::ServedStale(entry)
            }
            (false, _) => {
                self.stats.stale_misses += 1;
                self.stats.bound_refusals += 1;
                BoundedGet::Refused(entry)
            }
        }
    }

    // ---- writes -------------------------------------------------------

    fn over_capacity(&self) -> bool {
        match self.config.capacity {
            Capacity::Entries(n) => self.len() > n,
            Capacity::Bytes(b) => self.bytes > b,
            Capacity::Unbounded => false,
        }
    }

    /// The coldest slot of `list` that does not hold `protect` (which
    /// can only sit at the tail itself in a single-entry list).
    fn coldest(&self, list: usize, protect: u64) -> u32 {
        let tail = self.lists[list].tail;
        if tail != NIL && self.slots[tail as usize].key == protect {
            self.slots[tail as usize].prev
        } else {
            tail
        }
    }

    /// The coldest slot of `first`, else of `second` (never `protect`).
    fn coldest_of(&self, first: usize, second: usize, protect: u64) -> u32 {
        match self.coldest(first, protect) {
            NIL => self.coldest(second, protect),
            victim => victim,
        }
    }

    /// The slot to evict next, or `NIL` when only `protect` remains.
    /// `ghost` is the ghost list `protect` was found on (ARC only).
    fn pick_victim(&self, protect: u64, ghost: Option<usize>, now: SimTime) -> u32 {
        match self.config.eviction {
            EvictionPolicy::Lru | EvictionPolicy::Fifo => self.coldest(MAIN, protect),
            // Probationary segment empty: take the protected tail.
            EvictionPolicy::Slru { .. } => self.coldest_of(MAIN, PROTECTED, protect),
            EvictionPolicy::Adaptive => {
                // REPLACE, with |T1| not counting the key being inserted
                // (it sits at T1's head unless it came from a ghost list).
                let t1 = self.len() - self.protected_len - ghost.is_none() as usize;
                let p = self.arc_p;
                if t1 > 0 && (t1 > p || (ghost == Some(PROTECTED) && t1 == p)) {
                    self.coldest_of(MAIN, PROTECTED, protect)
                } else {
                    self.coldest_of(PROTECTED, MAIN, protect)
                }
            }
            EvictionPolicy::FreshnessAware { probe_depth } => {
                // The coldest already-stale entry among the `probe_depth`
                // coldest, else the coldest outright.
                let mut fallback = NIL;
                let mut cur = self.lists[MAIN].tail;
                for _ in 0..probe_depth {
                    if cur == NIL {
                        break;
                    }
                    let slot = &self.slots[cur as usize];
                    if slot.key != protect {
                        if slot.entry.is_stale(now) {
                            return cur;
                        }
                        if fallback == NIL {
                            fallback = cur;
                        }
                    }
                    cur = slot.prev;
                }
                fallback
            }
        }
    }

    /// Evict until within capacity; never evicts `protect` (the key just
    /// inserted — evicting it immediately would make the insert a lie).
    /// Hands each evicted key to `evicted`, in eviction order. Under ARC
    /// each victim becomes a ghost on the list named after its own.
    fn enforce_capacity(
        &mut self,
        protect: u64,
        ghost: Option<usize>,
        now: SimTime,
        mut evicted: impl FnMut(u64),
    ) {
        while self.over_capacity() {
            let victim = self.pick_victim(protect, ghost, now);
            if victim == NIL {
                break; // only the protected key remains
            }
            let Slot { key, protected, .. } = self.slots[victim as usize];
            self.drop_slot(victim);
            if self.config.eviction == EvictionPolicy::Adaptive {
                let node = self.ghosts.push(protected as usize, key);
                self.map.insert(key, GHOST | node);
            } else {
                self.map.remove(&key);
            }
            self.stats.evictions += 1;
            evicted(key);
        }
    }

    /// ARC's ghost bounds: trim B1 from its tail to |T1|+|B1| ≤ c, then
    /// B2 (B1 if B2 is empty) to a directory of at most 2c, and keep
    /// p ≤ c (c moves with the population under a byte budget).
    fn trim_ghosts(&mut self) {
        let c = self.entry_budget();
        let t1 = self.len() - self.protected_len;
        while t1 + self.ghosts.lens[MAIN] > c && self.drop_oldest_ghost(MAIN) {}
        while self.len() + self.ghosts.total() > 2 * c
            && (self.drop_oldest_ghost(PROTECTED) || self.drop_oldest_ghost(MAIN))
        {}
        self.arc_p = self.arc_p.min(c);
    }

    /// Forget the oldest ghost of `list`; false when it is empty.
    fn drop_oldest_ghost(&mut self, list: usize) -> bool {
        self.ghosts.pop_tail(list).map(|key| self.map.remove(&key)).is_some()
    }

    fn remove_idx(&mut self, key: u64, idx: u32) {
        self.map.remove(&key);
        self.drop_slot(idx);
    }

    /// Unlink and free slot `idx`, leaving the key index alone.
    fn drop_slot(&mut self, idx: u32) {
        let slot = &self.slots[idx as usize];
        self.bytes -= slot.entry.value.len() as u64;
        self.protected_len -= slot.protected as usize;
        self.unlink(idx);
        self.release(idx);
    }

    /// ARC's learning step for the insert of a key whose ghost is
    /// `node`: a B1 ghost says T1 was too small, a B2 ghost that T2 was.
    /// Unlinks the ghost (its index entry is about to name the new slot)
    /// and returns the list it was on.
    fn adapt(&mut self, node: u32) -> usize {
        let [b1, b2] = self.ghosts.lens;
        let c = self.entry_budget();
        let list = self.ghosts.unlink(node);
        self.arc_p = if list == MAIN {
            (self.arc_p + (b2 / b1).max(1)).min(c)
        } else {
            self.arc_p.saturating_sub((b1 / b2).max(1))
        };
        list
    }

    /// Insert or overwrite `key` with a fresh entry holding `value`,
    /// evicting as needed and handing each evicted key to `on_evict`, in
    /// eviction order (an overwrite never evicts). Byte accounting uses
    /// the payload's length; the stored handle is the caller's
    /// refcounted [`Bytes`], so nothing is copied. A new entry starts on
    /// the main list (SLRU's probationary segment, ARC's T1) — except,
    /// under ARC, a ghost's, which adapts `p` and starts on T2.
    pub fn insert_with(
        &mut self,
        key: u64,
        version: u64,
        value: Bytes,
        now: SimTime,
        expires_at: Option<SimTime>,
        on_evict: impl FnMut(u64),
    ) {
        let entry = Entry::with_value(version, value, now, expires_at);
        let found = self.map.get(&key).copied();
        if let Some(idx) = found.filter(|&i| i & GHOST == 0) {
            self.rewrite(idx, entry);
            self.touch(idx);
            return;
        }
        let ghost = found.map(|tagged| self.adapt(tagged & !GHOST));
        self.bytes += entry.value.len() as u64;
        let idx = self.alloc(key, entry);
        if ghost.is_some() {
            self.slots[idx as usize].protected = true;
            self.protected_len += 1;
        }
        self.push_front(idx);
        self.map.insert(key, idx);
        self.enforce_capacity(key, ghost, now, on_evict);
        if self.config.eviction == EvictionPolicy::Adaptive {
            self.trim_ghosts();
        }
    }

    /// [`SlabCache::insert_with`], returning how many entries it evicted.
    pub fn insert_value(
        &mut self,
        key: u64,
        version: u64,
        value: Bytes,
        now: SimTime,
        expires_at: Option<SimTime>,
    ) -> usize {
        let mut evicted = 0;
        self.insert_with(key, version, value, now, expires_at, |_| evicted += 1);
        evicted
    }

    /// Replace slot `idx`'s entry, keeping the byte count.
    fn rewrite(&mut self, idx: u32, entry: Entry) {
        self.bytes += entry.value.len() as u64;
        let old = std::mem::replace(&mut self.slots[idx as usize].entry, entry);
        self.bytes -= old.value.len() as u64;
    }

    /// Remove `key` outright (proactive TTL expiry / external eviction,
    /// a handoff), dropping its ARC ghost too. Returns true if it was
    /// present.
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(idx) = self.map.get(&key).copied() else { return false };
        if idx & GHOST != 0 {
            self.ghosts.unlink(idx & !GHOST);
            self.map.remove(&key);
        } else {
            self.remove_idx(key, idx);
        }
        if self.config.eviction == EvictionPolicy::Adaptive {
            self.trim_ghosts();
        }
        idx & GHOST == 0
    }

    /// Apply a backend invalidation: mark the entry stale in place.
    /// Returns true if the entry was present (and is now invalidated).
    pub fn apply_invalidate(&mut self, key: u64) -> bool {
        match self.slot(key) {
            Some(idx) => {
                self.slots[idx as usize].entry.state = Freshness::Invalidated;
                self.stats.invalidations_applied += 1;
                true
            }
            None => {
                self.stats.invalidations_missed += 1;
                false
            }
        }
    }

    /// Apply a backend update: rewrite the entry with the pushed value
    /// (refcounted, not copied) if present, *do nothing* if absent (the
    /// paper's definition of an update message). Returns true if applied.
    pub fn apply_update_value(
        &mut self,
        key: u64,
        version: u64,
        value: Bytes,
        now: SimTime,
        expires_at: Option<SimTime>,
    ) -> bool {
        match self.slot(key) {
            Some(idx) => {
                self.rewrite(idx, Entry::with_value(version, value, now, expires_at));
                self.stats.updates_applied += 1;
                true
            }
            None => {
                self.stats.updates_missed += 1;
                false
            }
        }
    }

    /// Apply a TTL-polling refresh: re-arm the deadline and version of a
    /// cached entry (its size — and payload, if any — are unchanged).
    /// Returns false if the entry is gone (poll raced an eviction).
    pub fn apply_refresh(
        &mut self,
        key: u64,
        version: u64,
        now: SimTime,
        expires_at: Option<SimTime>,
    ) -> bool {
        match self.slot(key) {
            Some(idx) => {
                self.slots[idx as usize].entry.rearm(version, now, expires_at);
                self.stats.refreshes += 1;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
impl SlabCache {
    /// Every slot is on exactly one of the free / main / protected lists,
    /// the two live lists hold exactly the indexed entries with
    /// consistent back-links and segment flags, and the byte gauge is
    /// the sum of the live entries' sizes. ARC's ghost lists are
    /// well-formed, never name a resident key and stay within
    /// |T1|+|B1| ≤ c and |T1|+|T2|+|B1|+|B2| ≤ 2c, with 0 ≤ p ≤ c.
    fn check_invariants(&self) {
        self.check_ghosts();
        let mut seen = vec![false; self.slots.len()];
        let mut mark = |idx: u32| {
            assert!(!std::mem::replace(&mut seen[idx as usize], true), "slot {idx} is on two lists");
        };
        let mut cur = self.free;
        while cur != NIL {
            mark(cur);
            cur = self.slots[cur as usize].next;
        }
        let mut bytes = 0;
        let mut linked = [0usize; 2];
        for list in [MAIN, PROTECTED] {
            let (mut prev, mut cur) = (NIL, self.lists[list].head);
            while cur != NIL {
                mark(cur);
                let slot = &self.slots[cur as usize];
                assert_eq!(slot.protected as usize, list, "slot {cur} flags the other list");
                assert_eq!(slot.prev, prev, "slot {cur} back-link");
                assert_eq!(self.map.get(&slot.key), Some(&cur), "slot {cur} not indexed");
                bytes += slot.entry.value.len() as u64;
                linked[list] += 1;
                (prev, cur) = (cur, slot.next);
            }
            assert_eq!(self.lists[list].tail, prev, "list {list} tail");
        }
        assert!(seen.iter().all(|&s| s), "a slot is on no list");
        assert_eq!(linked[MAIN] + linked[PROTECTED], self.len());
        assert_eq!(linked[PROTECTED], self.protected_len);
        assert_eq!(bytes, self.bytes());
    }

    fn check_ghosts(&self) {
        let g = &self.ghosts;
        if self.config.eviction != EvictionPolicy::Adaptive {
            assert_eq!((g.total(), self.arc_p), (0, 0), "ghost state outside ARC");
            return;
        }
        for list in [MAIN, PROTECTED] {
            let (mut prev, mut cur, mut len) = (NIL, g.lists[list].head, 0);
            while cur != NIL {
                let node = &g.nodes[cur as usize];
                assert_eq!((node.list, node.prev), (list, prev), "ghost {cur} links");
                assert_eq!(self.map.get(&node.key), Some(&(GHOST | cur)), "ghost {cur} not indexed");
                assert!(!self.contains(node.key), "ghost {} is resident", node.key);
                (prev, cur, len) = (cur, node.next, len + 1);
            }
            assert_eq!((g.lists[list].tail, g.lens[list]), (prev, len), "ghost list {list}");
        }
        assert_eq!(self.map.values().filter(|&&i| i & GHOST != 0).count(), g.total());
        let c = self.entry_budget();
        let t1 = self.len() - self.protected_len;
        assert!(t1 + g.lens[MAIN] <= c, "|T1|+|B1| = {} > c = {c}", t1 + g.lens[MAIN]);
        assert!(self.len() + g.total() <= 2 * c, "directory over 2c = {}", 2 * c);
        assert!(self.arc_p <= c, "p = {} > c = {c}", self.arc_p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn bound(s: u64) -> Option<SimDuration> {
        Some(SimDuration::from_secs(s))
    }

    /// Insert a `size`-byte value; returns the keys evicted, in order.
    fn put(
        c: &mut SlabCache,
        key: u64,
        version: u64,
        size: usize,
        now: SimTime,
        expires_at: Option<SimTime>,
    ) -> Vec<u64> {
        let mut evicted = Vec::new();
        let value = Bytes::from(vec![0; size]);
        c.insert_with(key, version, value, now, expires_at, |k| evicted.push(k));
        evicted
    }

    fn small_cache(n: usize) -> SlabCache {
        SlabCache::new(Capacity::Entries(n))
    }

    fn slru(entries: usize, pct: u8) -> SlabCache {
        SlabCache::with_config(CacheConfig {
            capacity: Capacity::Entries(entries),
            eviction: EvictionPolicy::Slru { protected_pct: pct },
        })
    }

    #[test]
    fn bounded_get_classifies_all_outcomes() {
        let mut c = SlabCache::new(Capacity::Entries(4));
        assert_eq!(c.get_bounded(1, t(0), bound(10)), BoundedGet::Miss);
        put(&mut c, 1, 1, 8, t(0), Some(t(10)));
        assert!(matches!(c.get_bounded(1, t(5), bound(10)), BoundedGet::Fresh(_)));
        assert!(matches!(c.get_bounded(1, t(5), bound(2)), BoundedGet::Refused(_)));
        assert!(matches!(c.get_bounded(1, t(12), bound(20)), BoundedGet::ServedStale(_)));
        assert!(matches!(c.get_bounded(1, t(12), bound(3)), BoundedGet::Refused(_)));
        let s = c.stats();
        assert_eq!(s.fresh_hits, 1);
        assert_eq!(s.stale_misses, 3);
        assert_eq!(s.stale_served, 1);
        assert_eq!(s.bound_refusals, 2);
        assert_eq!(s.cold_misses, 1);
        assert_eq!(s.reads(), 5);
    }

    #[test]
    fn invalidated_refused_at_any_bound_until_update_heals() {
        let mut c = SlabCache::new(Capacity::Entries(4));
        put(&mut c, 1, 1, 8, t(0), None);
        assert!(c.apply_invalidate(1));
        assert!(matches!(c.get_bounded(1, t(0), None), BoundedGet::Refused(_)));
        assert!(c.apply_update_value(1, 2, Bytes::from(vec![7u8; 4]), t(1), None));
        assert!(matches!(c.get_bounded(1, t(1), None), BoundedGet::Fresh(_)));
        assert!(!c.apply_invalidate(99));
        let s = c.stats();
        assert_eq!((s.invalidations_applied, s.invalidations_missed), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = SlabCache::new(Capacity::Entries(2));
        put(&mut c, 1, 1, 1, t(0), None);
        put(&mut c, 2, 1, 1, t(1), None);
        c.get(1, t(2)); // touch 1 → 2 is now coldest
        let evicted = put(&mut c, 3, 1, 1, t(3), None);
        assert_eq!(evicted, vec![2]);
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn bounded_get_touches_recency() {
        let mut c = SlabCache::new(Capacity::Entries(2));
        put(&mut c, 1, 1, 1, t(0), None);
        put(&mut c, 2, 1, 1, t(1), None);
        c.get_bounded(1, t(2), bound(100));
        let evicted = put(&mut c, 3, 1, 1, t(3), None);
        assert_eq!(evicted, vec![2]);
    }

    #[test]
    fn byte_capacity_evicts_until_fit() {
        let mut c = SlabCache::new(Capacity::Bytes(100));
        put(&mut c, 1, 1, 40, t(0), None);
        put(&mut c, 2, 1, 40, t(1), None);
        let evicted = put(&mut c, 3, 1, 60, t(2), None);
        assert_eq!(evicted, vec![1]);
        assert_eq!(c.bytes(), 100);
        let evicted = put(&mut c, 4, 1, 90, t(3), None);
        assert_eq!(evicted, vec![2, 3]);
        assert_eq!(c.bytes(), 90);
    }

    #[test]
    fn protected_key_survives_single_slot() {
        let mut c = SlabCache::new(Capacity::Entries(1));
        put(&mut c, 1, 1, 1, t(0), None);
        let evicted = put(&mut c, 2, 1, 1, t(1), None);
        assert_eq!(evicted, vec![1]);
        assert!(c.contains(2));
    }

    #[test]
    fn oversized_single_entry_stays() {
        let mut c = SlabCache::new(Capacity::Bytes(10));
        put(&mut c, 1, 1, 50, t(0), None);
        assert!(c.contains(1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut c = SlabCache::new(Capacity::Entries(4));
        for k in 0..100u64 {
            put(&mut c, k, 1, 8, t(k), None);
        }
        assert_eq!(c.len(), 4);
        // Eviction churn recycles slots through the free list: the slab
        // high-water mark stays at capacity + the one transient slot an
        // insert occupies before eviction runs.
        assert!(c.slab_capacity() <= 5, "slab grew to {}", c.slab_capacity());
        assert_eq!(c.len(), 4);
        c.remove(99);
        assert_eq!(c.len(), 3);
        put(&mut c, 200, 1, 8, t(200), None);
        assert!(c.slab_capacity() <= 5, "remove+insert must reuse the freed slot");
    }

    #[test]
    fn freed_slot_drops_payload_handle() {
        let mut c = SlabCache::new(Capacity::Entries(4));
        let payload = Bytes::from(vec![9u8; 4096]);
        c.insert_value(1, 1, payload.clone(), t(0), None);
        assert!(c.peek(1).unwrap().value.shares_allocation_with(&payload));
        c.remove(1);
        // The slot is free-listed but its entry was overwritten: no slab
        // slot still shares the payload allocation.
        assert_eq!(c.len(), 0);
        for k in c.keys() {
            assert!(!c.peek(k).unwrap().value.shares_allocation_with(&payload));
        }
        // Reusing the slot installs the new value cleanly.
        c.insert_value(2, 1, Bytes::from(vec![1u8; 8]), t(1), None);
        assert_eq!(&c.peek(2).unwrap().value[..], &[1u8; 8]);
    }

    #[test]
    fn value_hits_share_the_allocation() {
        let mut c = SlabCache::new(Capacity::Entries(4));
        let payload = Bytes::from(vec![0xAB; 300]);
        c.insert_value(1, 1, payload.clone(), t(0), None);
        match c.get_bounded(1, t(1), None) {
            BoundedGet::Fresh(e) => {
                assert!(e.value.shares_allocation_with(&payload), "hit must not copy");
                assert_eq!(e.value.len(), 300);
            }
            other => panic!("expected fresh, got {other:?}"),
        }
    }

    #[test]
    fn refresh_rearms_keeping_payload() {
        let mut c = SlabCache::new(Capacity::Entries(4));
        c.insert_value(1, 1, Bytes::from(vec![2u8; 25]), t(0), Some(t(5)));
        assert!(c.apply_refresh(1, 3, t(4), Some(t(9))));
        assert!(matches!(c.get_bounded(1, t(6), None), BoundedGet::Fresh(_)));
        assert_eq!(&c.peek(1).unwrap().value[..], &[2u8; 25]);
        assert!(!c.apply_refresh(9, 1, t(4), None));
        assert_eq!(c.stats().refreshes, 1);
    }

    #[test]
    fn reinsert_existing_key_updates_in_place() {
        let mut c = SlabCache::new(Capacity::Entries(2));
        put(&mut c, 1, 1, 10, t(0), None);
        let evicted = put(&mut c, 1, 2, 30, t(1), None);
        assert!(evicted.is_empty());
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 30);
        assert_eq!(c.peek(1).unwrap().version, 2);
    }

    #[test]
    fn cold_then_fresh_then_stale() {
        let mut c = small_cache(4);
        assert_eq!(c.get(1, t(0)), GetResult::ColdMiss);
        put(&mut c, 1, 1, 100, t(0), Some(t(10)));
        assert!(c.get(1, t(5)).is_fresh_hit());
        assert!(c.get(1, t(10)).is_stale_miss());
        let s = c.stats();
        assert_eq!((s.cold_misses, s.fresh_hits, s.stale_misses), (1, 1, 1));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut c = SlabCache::with_config(CacheConfig {
            capacity: Capacity::Entries(2),
            eviction: EvictionPolicy::Fifo,
        });
        put(&mut c, 1, 1, 1, t(0), None);
        put(&mut c, 2, 1, 1, t(1), None);
        c.get(1, t(2)); // does not protect 1 under FIFO
        let evicted = put(&mut c, 3, 1, 1, t(3), None);
        assert_eq!(evicted, vec![1]);
    }

    #[test]
    fn invalidate_marks_stale_in_place() {
        let mut c = small_cache(4);
        put(&mut c, 1, 1, 1, t(0), None);
        assert!(c.apply_invalidate(1));
        assert!(c.contains(1), "invalidation must not remove the entry");
        assert!(c.get(1, t(1)).is_stale_miss());
        assert!(!c.apply_invalidate(99));
        let s = c.stats();
        assert_eq!((s.invalidations_applied, s.invalidations_missed), (1, 1));
    }

    #[test]
    fn update_rewrites_or_does_nothing() {
        let mut c = small_cache(4);
        put(&mut c, 1, 1, 10, t(0), None);
        assert!(c.apply_update_value(1, 2, Bytes::from(vec![0; 20]), t(1), None));
        assert_eq!(c.peek(1).unwrap().version, 2);
        assert_eq!(c.bytes(), 20);
        let value = Bytes::from(vec![0; 10]);
        assert!(!c.apply_update_value(2, 1, value, t(1), None), "update of uncached key does nothing");
        assert!(!c.contains(2));
        let s = c.stats();
        assert_eq!((s.updates_applied, s.updates_missed), (1, 1));
    }

    #[test]
    fn value_inserts_account_actual_bytes_and_serve_refcounted() {
        let mut c = SlabCache::with_config(CacheConfig {
            capacity: Capacity::Bytes(100),
            eviction: EvictionPolicy::Lru,
        });
        let payload = Bytes::from(vec![0xAB; 60]);
        c.insert_value(1, 1, payload.clone(), t(0), None);
        assert_eq!(c.bytes(), 60, "accounting uses the payload's actual length");
        // A bounded read hands back the same allocation, refcounted.
        match c.get_bounded(1, t(1), None) {
            BoundedGet::Fresh(e) => {
                assert!(e.value.shares_allocation_with(&payload), "hit must not copy");
                assert_eq!(e.value.len(), 60);
            }
            other => panic!("expected fresh, got {other:?}"),
        }
        // Value re-insert swaps accounting to the new length...
        c.insert_value(1, 2, Bytes::from(vec![1u8; 30]), t(2), None);
        assert_eq!(c.bytes(), 30);
        // ...and byte-capacity eviction fires on real lengths.
        c.insert_value(2, 1, Bytes::from(vec![2u8; 90]), t(3), None);
        assert!(c.bytes() <= 100, "bytes {} over budget", c.bytes());
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn value_update_refreshes_payload_in_place() {
        let mut c = small_cache(4);
        c.insert_value(1, 1, Bytes::from(vec![1u8; 10]), t(0), None);
        assert!(c.apply_update_value(1, 2, Bytes::from(vec![2u8; 25]), t(1), None));
        assert_eq!(c.bytes(), 25);
        let e = c.peek(1).unwrap();
        assert_eq!((e.version, e.value.len()), (2, 25));
        assert_eq!(&e.value[..], &[2u8; 25]);
        assert!(
            !c.apply_update_value(9, 1, Bytes::from(vec![0u8; 5]), t(1), None),
            "update of uncached key does nothing"
        );
        // A TTL-poll refresh keeps the payload.
        assert!(c.apply_refresh(1, 3, t(2), Some(t(10))));
        assert_eq!(&c.peek(1).unwrap().value[..], &[2u8; 25]);
    }

    #[test]
    fn update_heals_invalidated_entry() {
        let mut c = small_cache(4);
        put(&mut c, 1, 1, 1, t(0), None);
        c.apply_invalidate(1);
        c.apply_update_value(1, 2, Bytes::from(vec![0; 1]), t(1), None);
        assert!(c.get(1, t(2)).is_fresh_hit());
    }

    #[test]
    fn stale_read_then_refetch_cycle() {
        let mut c = small_cache(4);
        let ttl = SimDuration::from_secs(10);
        put(&mut c, 1, 1, 1, t(0), Some(t(0) + ttl));
        assert!(c.get(1, t(12)).is_stale_miss());
        // Engine refetches and re-inserts.
        put(&mut c, 1, 2, 1, t(12), Some(t(12) + ttl));
        assert!(c.get(1, t(13)).is_fresh_hit());
    }

    #[test]
    fn freshness_aware_prefers_stale_victim() {
        let mut c = SlabCache::with_config(CacheConfig {
            capacity: Capacity::Entries(3),
            eviction: EvictionPolicy::FreshnessAware { probe_depth: 3 },
        });
        put(&mut c, 1, 1, 1, t(0), None);
        put(&mut c, 2, 1, 1, t(1), None);
        put(&mut c, 3, 1, 1, t(2), None);
        // Recency order (cold→hot): 1, 2, 3. Invalidate 2: it should be
        // evicted instead of the colder-but-fresh 1.
        c.apply_invalidate(2);
        let evicted = put(&mut c, 4, 1, 1, t(3), None);
        assert_eq!(evicted, vec![2]);
        assert!(c.contains(1));
    }

    #[test]
    fn freshness_aware_falls_back_to_lru() {
        let mut c = SlabCache::with_config(CacheConfig {
            capacity: Capacity::Entries(2),
            eviction: EvictionPolicy::FreshnessAware { probe_depth: 4 },
        });
        put(&mut c, 1, 1, 1, t(0), None);
        put(&mut c, 2, 1, 1, t(1), None);
        let evicted = put(&mut c, 3, 1, 1, t(2), None);
        assert_eq!(evicted, vec![1], "no stale entries → coldest fresh entry goes");
    }

    #[test]
    fn refresh_rearms_ttl() {
        let mut c = small_cache(4);
        put(&mut c, 1, 1, 1, t(0), Some(t(5)));
        assert!(c.apply_refresh(1, 2, t(4), Some(t(9))));
        assert!(c.get(1, t(6)).is_fresh_hit(), "refresh must extend the deadline");
        assert!(!c.apply_refresh(9, 1, t(4), None));
        assert_eq!(c.stats().refreshes, 1);
    }

    #[test]
    fn bounded_get_unbounded_serves_any_age() {
        let mut c = small_cache(4);
        put(&mut c, 1, 1, 8, t(0), Some(t(1)));
        // No bound: a TTL-expired entry is still served (flagged stale).
        assert!(matches!(c.get_bounded(1, t(1000), None), BoundedGet::ServedStale(_)));
        assert!(c.get_bounded(1, t(1000), None).is_served());
    }

    #[test]
    fn bounded_get_refuses_invalidated_at_any_bound() {
        let mut c = small_cache(4);
        put(&mut c, 1, 1, 8, t(0), None);
        c.apply_invalidate(1);
        // Age 0 and no TTL, but invalidated means known-stale: refuse
        // even with an unbounded tolerance.
        let r = c.get_bounded(1, t(0), None);
        assert!(matches!(r, BoundedGet::Refused(_)));
        assert!(!r.is_served());
        assert_eq!(c.stats().bound_refusals, 1);
    }

    #[test]
    fn bounded_get_age_resets_on_refresh() {
        let mut c = small_cache(4);
        put(&mut c, 1, 1, 8, t(0), None);
        assert!(matches!(c.get_bounded(1, t(8), bound(5)), BoundedGet::Refused(_)));
        c.apply_update_value(1, 2, Bytes::from(vec![0; 8]), t(8), None);
        assert!(matches!(c.get_bounded(1, t(9), bound(5)), BoundedGet::Fresh(_)));
    }

    #[test]
    fn slru_scan_resistance() {
        // Key 1 is inserted and hit once -> protected. A scan of one-shot
        // keys larger than the whole cache must not evict it. Plain LRU
        // would lose it.
        let mut c = slru(8, 50);
        put(&mut c, 1, 1, 1, t(0), None);
        assert!(c.get(1, t(1)).is_fresh_hit(), "hit promotes");
        for k in 100..120 {
            put(&mut c, k, 1, 1, t(k), None);
        }
        assert!(c.contains(1), "protected entry survives the scan");
        assert!(c.get(1, t(200)).is_fresh_hit());

        let mut lru = small_cache(8);
        put(&mut lru, 1, 1, 1, t(0), None);
        lru.get(1, t(1));
        for k in 100..120 {
            put(&mut lru, k, 1, 1, t(k), None);
        }
        assert!(!lru.contains(1), "LRU control: the scan evicts key 1");
    }

    #[test]
    fn slru_protected_segment_bounded() {
        // Capacity 10, 50% protected -> at most 5 protected entries; the
        // 6th promotion demotes the coldest protected entry.
        let mut c = slru(10, 50);
        for k in 0..6u64 {
            put(&mut c, k, 1, 1, t(k), None);
            c.get(k, t(10 + k)); // promote each
        }
        assert_eq!(c.len(), 6);
        // All six keys still present (demotion is not eviction).
        for k in 0..6u64 {
            assert!(c.contains(k), "key {k}");
        }
        // Fill to capacity with one-shot keys, then overflow by one: the
        // victim must be a probationary key, and specifically not one of
        // the five most recently promoted.
        for k in 100..104 {
            put(&mut c, k, 1, 1, t(50 + k), None);
        }
        let evicted = put(&mut c, 200, 1, 1, t(300), None);
        assert_eq!(evicted.len(), 1);
        assert!(
            evicted[0] == 0 || evicted[0] >= 100,
            "victim {} must come from the probationary segment",
            evicted[0]
        );
    }

    #[test]
    fn slru_falls_back_to_protected_when_probation_empty() {
        let mut c = slru(2, 50);
        put(&mut c, 1, 1, 1, t(0), None);
        put(&mut c, 2, 1, 1, t(1), None);
        c.get(1, t(2));
        c.get(2, t(3)); // both promoted (cap*50% = 1 -> demotions ping-pong)
        // Inserting a new key must still find a victim.
        let evicted = put(&mut c, 3, 1, 1, t(4), None);
        assert_eq!(evicted.len(), 1);
        assert_eq!(c.len(), 2);
        assert!(c.contains(3));
    }

    #[test]
    fn slru_stale_classification_still_works() {
        let mut c = slru(4, 50);
        put(&mut c, 1, 1, 1, t(0), None);
        c.get(1, t(1)); // promote
        c.apply_invalidate(1);
        assert!(c.get(1, t(2)).is_stale_miss(), "protected entries can be stale too");
        // Re-insert heals and stays present.
        put(&mut c, 1, 2, 1, t(3), None);
        assert!(c.get(1, t(4)).is_fresh_hit());
    }

    fn arc(entries: usize) -> SlabCache {
        SlabCache::with_config(CacheConfig {
            capacity: Capacity::Entries(entries),
            eviction: EvictionPolicy::Adaptive,
        })
    }

    /// Whether `key` is resident on T2 (the protected list).
    fn in_t2(c: &SlabCache, key: u64) -> bool {
        c.slot(key).is_some_and(|i| c.slots[i as usize].protected)
    }

    fn is_ghost(c: &SlabCache, key: u64) -> bool {
        c.map.get(&key).is_some_and(|&i| i & GHOST != 0)
    }

    #[test]
    fn arc_scan_resistance() {
        // Keys 1 and 2 are inserted and hit once -> T2. A scan of
        // one-shot keys larger than the whole cache churns T1 only.
        let mut c = arc(8);
        for k in [1, 2] {
            put(&mut c, k, 1, 1, t(0), None);
            assert!(c.get(k, t(1)).is_fresh_hit());
            assert!(in_t2(&c, k), "a hit moves {k} to T2");
        }
        for k in 100..120 {
            put(&mut c, k, 1, 1, t(k), None);
            c.check_invariants();
        }
        assert!(c.contains(1) && c.contains(2), "T2 survives the scan");
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn arc_ghost_hits_adapt_p_and_land_in_t2() {
        let mut c = arc(4);
        for k in 1..=4 {
            put(&mut c, k, 1, 1, t(k), None);
        }
        c.get(4, t(5)); // T1 = [3, 2, 1], T2 = [4]
        // p = 0 and |T1| = 3 > 0: REPLACE takes T1's tail into B1.
        assert_eq!(put(&mut c, 5, 1, 1, t(6), None), vec![1]);
        assert_eq!(c.ghosts.lens, [1, 0]);
        // Key 1 comes back: B1 hit, p ← 0 + max(0/1, 1) = 1, straight to T2.
        let evicted = put(&mut c, 1, 1, 1, t(7), None);
        assert_eq!(c.arc_p, 1);
        assert!(in_t2(&c, 1), "a ghost hit installs into T2");
        assert_eq!(evicted, vec![2], "|T1| = 3 > p = 1: T1's tail goes");
        assert!(is_ghost(&c, 2) && !is_ghost(&c, 1));
        c.check_invariants();
        // Fill T2 so REPLACE has a choice, then hit the B2 ghost.
        c.get(3, t(8));
        c.get(5, t(8)); // T1 = [], T2 = [5, 3, 1, 4]
        assert_eq!(put(&mut c, 6, 1, 1, t(9), None), vec![4], "T1 empty: T2's tail");
        assert_eq!(c.ghosts.lens, [1, 1]);
        put(&mut c, 4, 1, 1, t(10), None); // B2 hit: p ← 1 − max(1/1, 1) = 0
        assert_eq!(c.arc_p, 0);
        assert!(in_t2(&c, 4));
        c.check_invariants();
    }

    #[test]
    fn arc_remove_drops_the_ghost() {
        let mut c = arc(2);
        put(&mut c, 1, 1, 1, t(1), None);
        put(&mut c, 2, 1, 1, t(2), None);
        c.get(2, t(2));
        put(&mut c, 3, 1, 1, t(3), None);
        assert!(is_ghost(&c, 1));
        assert!(!c.remove(1), "a ghost is not resident");
        assert!(!is_ghost(&c, 1), "remove drops the ghost");
        assert_eq!(c.len(), 2);
        c.check_invariants();
    }

    #[test]
    fn arc_full_t1_evicts_outright() {
        // Only one-shot inserts: T1 holds all c entries, so case IV-A
        // evicts T1's tail without keeping a ghost.
        let mut c = arc(3);
        for k in 0..10 {
            put(&mut c, k, 1, 1, t(k), None);
            c.check_invariants();
        }
        assert_eq!(c.ghosts.total(), 0);
    }

    #[test]
    #[should_panic(expected = "protected_pct")]
    fn slru_rejects_bad_pct() {
        slru(4, 0);
    }

    /// A deterministic pseudo-random op stream over every policy and both
    /// bounded capacity kinds: the slab stays well-formed after each op
    /// and within its capacity.
    #[test]
    fn slab_stays_well_formed_under_every_policy() {
        for eviction in [
            EvictionPolicy::Lru,
            EvictionPolicy::Fifo,
            EvictionPolicy::Slru { protected_pct: 50 },
            EvictionPolicy::FreshnessAware { probe_depth: 4 },
            EvictionPolicy::Adaptive,
        ] {
            for capacity in [Capacity::Entries(32), Capacity::Bytes(1024)] {
                let mut c = SlabCache::with_config(CacheConfig { capacity, eviction });
                let mut rng: u64 = 0x1234_5678;
                let mut next = move || {
                    // xorshift64*: deterministic, no rand dependency.
                    rng ^= rng >> 12;
                    rng ^= rng << 25;
                    rng ^= rng >> 27;
                    rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
                };
                for step in 0..5_000u64 {
                    let r = next();
                    let key = (r >> 8) % 128;
                    let size = (r >> 20) as usize % 128;
                    let now = t(step / 10);
                    let absent = !c.contains(key);
                    let value = Bytes::from(vec![0u8; size]);
                    match r % 8 {
                        0 => drop(put(&mut c, key, step, size, now, Some(t(step / 10 + 3)))),
                        1 => _ = c.insert_value(key, step, value, now, None),
                        2 | 3 => drop(c.get(key, now)),
                        4 => drop(c.get_bounded(key, now, bound(r % 5))),
                        5 => drop(c.apply_invalidate(key)),
                        6 => drop(c.apply_update_value(key, step, value, now, None)),
                        _ => drop(c.remove(key)),
                    }
                    c.check_invariants();
                    match capacity {
                        Capacity::Entries(n) => assert!(c.len() <= n),
                        // Rewrites may grow an entry in place; only the
                        // insert of an absent key enforces a byte budget.
                        _ if absent && r % 8 < 2 => assert!(c.bytes() <= 1024 || c.len() == 1),
                        _ => {}
                    }
                }
                assert!(c.stats().evictions > 0, "{eviction:?}/{capacity:?} never evicted");
            }
        }
    }
}
