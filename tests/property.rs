//! Property-based tests on cross-crate invariants: the cache against a
//! reference model and the engines' accounting identities over arbitrary
//! workloads.

use fresca::prelude::*;
use proptest::prelude::*;
use fresca::fresca_cache::{BoundedGet, CacheStats};
use std::collections::HashMap;

// ---------------------------------------------------------------------
// Cache vs reference model
// ---------------------------------------------------------------------

/// One entry of the reference model. `stamp` orders entries within a
/// segment: the smallest stamp is the coldest.
#[derive(Debug, Clone, Copy)]
struct ModelEntry {
    stamp: u64,
    protected: bool,
    invalidated: bool,
    size: u32,
    refreshed_at: u64,
    expires_at: Option<u64>,
}

impl ModelEntry {
    fn is_stale(&self, now: u64) -> bool {
        self.invalidated || self.expires_at.is_some_and(|deadline| now >= deadline)
    }
}

/// Naive reference cache for all five eviction policies: a map of
/// entries carrying recency stamps, with every "which is coldest"
/// question answered by scanning. ARC's T1/T2 are the unprotected and
/// protected entries, and its ghost lists B1/B2 are plain vectors
/// (most recent first). Times are nanoseconds.
struct ModelCache {
    config: CacheConfig,
    entries: HashMap<u64, ModelEntry>,
    clock: u64,
    stats: CacheStats,
    /// ARC's `[B1, B2]`, most recent first.
    ghosts: [Vec<u64>; 2],
    /// ARC's target size for T1.
    p: usize,
}

impl ModelCache {
    fn new(config: CacheConfig) -> Self {
        ModelCache {
            config,
            entries: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
            ghosts: [Vec::new(), Vec::new()],
            p: 0,
        }
    }

    /// ARC's c: the entry capacity, or the population under a byte or
    /// unbounded capacity.
    fn c(&self) -> usize {
        match self.config.capacity {
            Capacity::Entries(n) => n,
            _ => self.entries.len(),
        }
    }

    fn t1_len(&self) -> usize {
        self.entries.values().filter(|e| !e.protected).count()
    }

    /// Drop `key` from whichever ghost list holds it; returns which.
    fn take_ghost(&mut self, key: u64) -> Option<usize> {
        let list = self.ghosts.iter().position(|g| g.contains(&key))?;
        self.ghosts[list].retain(|&k| k != key);
        Some(list)
    }

    /// ARC's ghost bounds after an insert or a removal.
    fn trim_ghosts(&mut self) {
        let c = self.c();
        while self.t1_len() + self.ghosts[0].len() > c && self.ghosts[0].pop().is_some() {}
        while self.entries.len() + self.ghosts[0].len() + self.ghosts[1].len() > 2 * c {
            if self.ghosts[1].pop().is_none() && self.ghosts[0].pop().is_none() {
                break;
            }
        }
        self.p = self.p.min(c);
    }

    fn remove(&mut self, key: u64) -> bool {
        let present = self.entries.remove(&key).is_some();
        if self.config.eviction == EvictionPolicy::Adaptive {
            self.take_ghost(key);
            self.trim_ghosts();
        }
        present
    }

    fn bytes(&self) -> u64 {
        self.entries.values().map(|e| e.size as u64).sum()
    }

    /// Keys of one segment, coldest first.
    fn coldest_first(&self, protected: bool) -> Vec<u64> {
        let mut keys: Vec<u64> =
            self.entries.iter().filter(|(_, e)| e.protected == protected).map(|(&k, _)| k).collect();
        keys.sort_by_key(|k| self.entries[k].stamp);
        keys
    }

    /// Place `key` at the hot end of `protected`'s segment.
    fn restamp(&mut self, key: u64, protected: bool) {
        self.clock += 1;
        let e = self.entries.get_mut(&key).expect("restamping a present key");
        e.stamp = self.clock;
        e.protected = protected;
    }

    /// What a hit, or an insert over a present key, does to the order.
    fn touch(&mut self, key: u64) {
        match self.config.eviction {
            EvictionPolicy::Fifo => {}
            EvictionPolicy::Lru | EvictionPolicy::FreshnessAware { .. } => self.restamp(key, false),
            EvictionPolicy::Adaptive => self.restamp(key, true),
            EvictionPolicy::Slru { protected_pct } => {
                let promoted = !self.entries[&key].protected;
                self.restamp(key, true);
                if !promoted {
                    return;
                }
                // Only a promotion rebalances the segments.
                let budget = match self.config.capacity {
                    Capacity::Entries(n) => n,
                    _ => self.entries.len(),
                };
                let budget = (budget * protected_pct as usize / 100).max(1);
                let protected = self.coldest_first(true);
                for &demoted in &protected[..protected.len().saturating_sub(budget)] {
                    self.restamp(demoted, false);
                }
            }
        }
    }

    fn over_capacity(&self) -> bool {
        match self.config.capacity {
            Capacity::Entries(n) => self.entries.len() > n,
            Capacity::Bytes(b) => self.bytes() > b,
            Capacity::Unbounded => false,
        }
    }

    /// `ghost` is the ARC ghost list `spare` came from.
    fn pick_victim(&self, spare: u64, ghost: Option<usize>, now: u64) -> Option<u64> {
        let main = self.coldest_first(false);
        let other_than_spare = |keys: &[u64]| keys.iter().copied().find(|&k| k != spare);
        match self.config.eviction {
            EvictionPolicy::Lru | EvictionPolicy::Fifo => other_than_spare(&main),
            EvictionPolicy::Adaptive => {
                let t1 = main.iter().filter(|&&k| k != spare).count();
                let t2 = self.coldest_first(true);
                let from_t1 = t1 >= 1 && (t1 > self.p || (ghost == Some(1) && t1 == self.p));
                let (first, second) = if from_t1 { (&main, &t2) } else { (&t2, &main) };
                other_than_spare(first).or_else(|| other_than_spare(second))
            }
            EvictionPolicy::Slru { .. } => {
                other_than_spare(&main).or_else(|| other_than_spare(&self.coldest_first(true)))
            }
            EvictionPolicy::FreshnessAware { probe_depth } => {
                let probed = &main[..main.len().min(probe_depth)];
                probed
                    .iter()
                    .copied()
                    .find(|&k| k != spare && self.entries[&k].is_stale(now))
                    .or_else(|| other_than_spare(probed))
            }
        }
    }

    /// Insert or overwrite; returns the evicted keys in eviction order.
    fn insert(&mut self, key: u64, size: u32, now: u64, expires_at: Option<u64>) -> Vec<u64> {
        if let Some(e) = self.entries.get_mut(&key) {
            (e.invalidated, e.size, e.refreshed_at, e.expires_at) = (false, size, now, expires_at);
            self.touch(key);
            return Vec::new();
        }
        let adaptive = self.config.eviction == EvictionPolicy::Adaptive;
        let [b1, b2] = [self.ghosts[0].len(), self.ghosts[1].len()];
        let ghost = if adaptive { self.take_ghost(key) } else { None };
        match ghost {
            Some(0) => self.p = (self.p + (b2 / b1).max(1)).min(self.c()),
            Some(_) => self.p = self.p.saturating_sub((b1 / b2).max(1)),
            None => {}
        }
        self.clock += 1;
        self.entries.insert(
            key,
            ModelEntry {
                stamp: self.clock,
                protected: ghost.is_some(),
                invalidated: false,
                size,
                refreshed_at: now,
                expires_at,
            },
        );
        let mut evicted = Vec::new();
        while self.over_capacity() {
            let Some(victim) = self.pick_victim(key, ghost, now) else { break };
            let e = self.entries.remove(&victim).expect("victim is resident");
            if adaptive {
                self.ghosts[e.protected as usize].insert(0, victim);
            }
            self.stats.evictions += 1;
            evicted.push(victim);
        }
        if adaptive {
            self.trim_ghosts();
        }
        evicted
    }

    fn invalidate(&mut self, key: u64) -> bool {
        match self.entries.get_mut(&key) {
            Some(e) => {
                e.invalidated = true;
                self.stats.invalidations_applied += 1;
                true
            }
            None => {
                self.stats.invalidations_missed += 1;
                false
            }
        }
    }

    /// Rewrites a present entry in place: no recency touch, no eviction.
    fn update(&mut self, key: u64, size: u32, now: u64) -> bool {
        match self.entries.get_mut(&key) {
            Some(e) => {
                (e.invalidated, e.size, e.refreshed_at, e.expires_at) = (false, size, now, None);
                self.stats.updates_applied += 1;
                true
            }
            None => {
                self.stats.updates_missed += 1;
                false
            }
        }
    }

    /// One read of `key`: touches it and reports `(stale, within_bound)`,
    /// or `None` when absent.
    fn read(&mut self, key: u64, now: u64, bound: Option<u64>) -> Option<(bool, bool)> {
        let e = self.entries.get(&key).copied()?;
        self.touch(key);
        let within_bound = !e.invalidated && bound.is_none_or(|b| now - e.refreshed_at <= b);
        Some((e.is_stale(now), within_bound))
    }

    fn get(&mut self, key: u64, now: u64) -> &'static str {
        match self.read(key, now, None) {
            None => {
                self.stats.cold_misses += 1;
                "cold"
            }
            Some((true, _)) => {
                self.stats.stale_misses += 1;
                "stale"
            }
            Some((false, _)) => {
                self.stats.fresh_hits += 1;
                "fresh"
            }
        }
    }

    fn get_bounded(&mut self, key: u64, now: u64, bound: u64) -> &'static str {
        match self.read(key, now, Some(bound)) {
            None => {
                self.stats.cold_misses += 1;
                "miss"
            }
            Some((false, true)) => {
                self.stats.fresh_hits += 1;
                "fresh"
            }
            Some((true, true)) => {
                self.stats.stale_misses += 1;
                self.stats.stale_served += 1;
                "served-stale"
            }
            Some((_, false)) => {
                self.stats.stale_misses += 1;
                self.stats.bound_refusals += 1;
                "refused"
            }
        }
    }
}

#[derive(Debug, Clone)]
enum CacheOp {
    Get(u64),
    /// Key, staleness bound in nanoseconds.
    GetBounded(u64, u64),
    /// Key, declared size, TTL in nanoseconds.
    Insert(u64, u32, u64),
    /// Key, payload length.
    InsertValue(u64, u32),
    Invalidate(u64),
    /// Key, declared size.
    Update(u64, u32),
    Remove(u64),
}

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    let key = || 0u64..32;
    proptest::collection::vec(
        prop_oneof![
            key().prop_map(CacheOp::Get),
            key().prop_map(CacheOp::Get),
            (key(), 0u64..40).prop_map(|(k, b)| CacheOp::GetBounded(k, b)),
            (key(), 0u32..24, 1u64..60).prop_map(|(k, s, ttl)| CacheOp::Insert(k, s, ttl)),
            (key(), 0u32..24).prop_map(|(k, s)| CacheOp::InsertValue(k, s)),
            key().prop_map(CacheOp::Invalidate),
            (key(), 0u32..24).prop_map(|(k, s)| CacheOp::Update(k, s)),
            key().prop_map(CacheOp::Remove),
        ],
        1..400,
    )
}

fn eviction_policies() -> impl Strategy<Value = EvictionPolicy> {
    prop_oneof![
        Just(EvictionPolicy::Lru),
        Just(EvictionPolicy::Fifo),
        (1u8..=99).prop_map(|protected_pct| EvictionPolicy::Slru { protected_pct }),
        (1usize..6).prop_map(|probe_depth| EvictionPolicy::FreshnessAware { probe_depth }),
        Just(EvictionPolicy::Adaptive),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slab cache agrees with a naive reference model on every
    /// observable outcome (read classification, eviction victims in
    /// order, membership, byte gauge, counters) under arbitrary operation
    /// sequences, for every eviction policy and both capacity kinds.
    #[test]
    fn cache_matches_reference_lru(
        ops in cache_ops(),
        eviction in eviction_policies(),
        cap in 1usize..16,
        by_bytes in any::<bool>(),
    ) {
        let capacity =
            if by_bytes { Capacity::Bytes(cap as u64 * 12) } else { Capacity::Entries(cap) };
        let config = CacheConfig { capacity, eviction };
        let mut real = SlabCache::with_config(config);
        let mut model = ModelCache::new(config);
        let mut now = 0u64;
        for op in ops {
            now += 1;
            let t = SimTime::from_nanos(now);
            match op {
                CacheOp::Get(k) => {
                    let got = match real.get(k, t) {
                        GetResult::FreshHit(_) => "fresh",
                        GetResult::StaleMiss(_) => "stale",
                        GetResult::ColdMiss => "cold",
                    };
                    prop_assert_eq!(got, model.get(k, now), "get({}) diverged", k);
                }
                CacheOp::GetBounded(k, bound) => {
                    let got = match real.get_bounded(k, t, Some(SimDuration::from_nanos(bound))) {
                        BoundedGet::Fresh(_) => "fresh",
                        BoundedGet::ServedStale(_) => "served-stale",
                        BoundedGet::Refused(_) => "refused",
                        BoundedGet::Miss => "miss",
                    };
                    let want = model.get_bounded(k, now, bound);
                    prop_assert_eq!(got, want, "get_bounded({}, {}) diverged", k, bound);
                }
                CacheOp::Insert(k, size, ttl) => {
                    let expires = Some(SimTime::from_nanos(now + ttl));
                    let mut got = Vec::new();
                    real.insert_with(k, 1, vec![0u8; size as usize].into(), t, expires, |e| got.push(e));
                    let want = model.insert(k, size, now, Some(now + ttl));
                    prop_assert_eq!(got, want, "insert({}) evicted differently", k);
                }
                CacheOp::InsertValue(k, len) => {
                    let got = real.insert_value(k, 1, vec![0u8; len as usize].into(), t, None);
                    let want = model.insert(k, len, now, None);
                    prop_assert_eq!(got, want.len(), "insert_value({}) evicted differently", k);
                }
                CacheOp::Invalidate(k) => {
                    prop_assert_eq!(real.apply_invalidate(k), model.invalidate(k), "invalidate({})", k);
                }
                CacheOp::Update(k, size) => {
                    let got = real.apply_update_value(k, 2, vec![0u8; size as usize].into(), t, None);
                    prop_assert_eq!(got, model.update(k, size, now), "apply_update_value({})", k);
                }
                CacheOp::Remove(k) => {
                    prop_assert_eq!(real.remove(k), model.remove(k), "remove({})", k);
                }
            }
            prop_assert_eq!(real.len(), model.entries.len(), "size diverged");
            prop_assert_eq!(real.bytes(), model.bytes(), "byte gauge diverged");
            if let Capacity::Entries(cap) = capacity {
                prop_assert!(real.len() <= cap, "capacity violated");
            }
            for k in 0..32u64 {
                prop_assert_eq!(
                    real.contains(k),
                    model.entries.contains_key(&k),
                    "membership of {} diverged", k
                );
            }
        }
        prop_assert_eq!(real.stats(), model.stats, "counters diverged");
    }

    /// Engine accounting identities hold on arbitrary small workloads:
    /// every read is classified exactly once; C_S events equal stale
    /// fetches; C_F components are consistent with the unit cost model.
    #[test]
    fn engine_accounting_identities(
        seed in any::<u64>(),
        rate in 5.0f64..50.0,
        read_ratio in 0.05f64..0.95,
        bound_ms in 100u64..5_000,
        policy_idx in 0usize..5,
    ) {
        let trace = PoissonZipfConfig {
            rate,
            num_keys: 30,
            read_ratio,
            horizon: SimDuration::from_secs(60),
            ..Default::default()
        }
        .generate(seed);
        prop_assume!(!trace.is_empty());
        let policy = [
            PolicyConfig::TtlExpiry,
            PolicyConfig::TtlPolling,
            PolicyConfig::AlwaysInvalidate,
            PolicyConfig::AlwaysUpdate,
            PolicyConfig::adaptive(),
        ][policy_idx];
        let report = TraceEngine::new(
            EngineConfig {
                staleness_bound: SimDuration::from_millis(bound_ms),
                ..EngineConfig::default()
            },
            policy,
        )
        .run(&trace);

        // Reads classified exactly once.
        prop_assert_eq!(
            report.cache.fresh_hits + report.cache.stale_misses + report.cache.cold_misses,
            report.reads
        );
        // C_S == stale fetches == cache stale misses.
        prop_assert_eq!(report.cs_events, report.breakdown.stale_fetches);
        prop_assert_eq!(report.cs_events, report.cache.stale_misses);
        // Unit-cost identity: C_F = 0.1*inv + 0.5*upd + 1.0*(stale + poll).
        let b = &report.breakdown;
        let expect = 0.1 * b.invalidates_sent as f64
            + 0.5 * b.updates_sent as f64
            + (b.stale_fetches + b.polling_refreshes) as f64;
        prop_assert!((report.cf_total - expect).abs() < 1e-6);
        // Normalised forms are finite and non-negative.
        prop_assert!(report.cf_normalized.is_finite() && report.cf_normalized >= 0.0);
        prop_assert!((0.0..=1.0).contains(&report.cs_normalized));
        // Store writes equal trace writes.
        prop_assert_eq!(report.store_writes, report.writes);
    }

    /// Zero-staleness policies never produce staleness events, for any
    /// workload and bound.
    #[test]
    fn proactive_policies_never_stale(
        seed in any::<u64>(),
        read_ratio in 0.1f64..0.9,
        bound_ms in 50u64..10_000,
    ) {
        let trace = PoissonZipfConfig {
            rate: 20.0,
            num_keys: 20,
            read_ratio,
            horizon: SimDuration::from_secs(30),
            ..Default::default()
        }
        .generate(seed);
        for policy in [PolicyConfig::TtlPolling, PolicyConfig::AlwaysUpdate] {
            let report = TraceEngine::new(
                EngineConfig {
                    staleness_bound: SimDuration::from_millis(bound_ms),
                    ..EngineConfig::default()
                },
                policy,
            )
            .run(&trace);
            prop_assert_eq!(report.cs_events, 0, "{} leaked staleness", report.policy);
        }
    }
}

// ---------------------------------------------------------------------
// Consistent-hash ring (fresca-serve)
// ---------------------------------------------------------------------

/// Deterministic member names: the ring is a cluster-wide contract, so
/// the properties are checked over the name shapes real deployments use.
fn ring_members(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("10.1.0.{i}:7440")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Keys spread across nodes within tolerance: with 128 virtual nodes
    /// per member, every member owns between a third and three times its
    /// fair share of an arbitrary contiguous key range.
    #[test]
    fn ring_distributes_keys_within_tolerance(
        n in 2usize..=8,
        key_base in any::<u64>(),
    ) {
        let ring = HashRing::from_nodes(128, &ring_members(n));
        let keys = 8_192u64;
        let mut counts = vec![0u64; n];
        for i in 0..keys {
            let k = key_base.wrapping_add(i);
            counts[ring.node_index_for(k).expect("non-empty ring")] += 1;
        }
        let fair = keys as f64 / n as f64;
        for (node, &c) in counts.iter().enumerate() {
            let share = c as f64 / fair;
            prop_assert!(
                (1.0 / 3.0..=3.0).contains(&share),
                "node {} owns {} of {} keys ({:.2}x fair share)",
                node, c, keys, share
            );
        }
    }

    /// Membership changes remap minimally. Adding one node to n moves
    /// only keys that land *on the new node* — an exact structural
    /// property — and about K/(n+1) of them, bounded here by 3·K/(n+1).
    /// Removing a node moves only the keys that node owned.
    #[test]
    fn ring_membership_changes_remap_minimally(
        n in 2usize..=8,
        key_base in any::<u64>(),
        removed_pick in 0usize..8,
    ) {
        let members = ring_members(n);
        let base = HashRing::from_nodes(128, &members);
        let keys = 4_096u64;

        // Adding a node: every moved key moves TO the newcomer.
        let mut grown = base.clone();
        grown.add_node("10.1.0.99:7440");
        let mut moved = 0u64;
        for i in 0..keys {
            let k = key_base.wrapping_add(i);
            let old = base.node_for(k).unwrap();
            let new = grown.node_for(k).unwrap();
            if old != new {
                moved += 1;
                prop_assert_eq!(new, "10.1.0.99:7440", "key {} moved between old nodes", k);
            }
        }
        let fair = keys as f64 / (n + 1) as f64;
        prop_assert!(
            (moved as f64) <= 3.0 * fair,
            "adding 1 node to {} moved {} of {} keys (fair share {:.0})",
            n, moved, keys, fair
        );

        // Removing a node: only its keys move, and they move off it.
        let removed = &members[removed_pick % n];
        let mut shrunk = base.clone();
        prop_assert!(shrunk.remove_node(removed));
        for i in 0..keys {
            let k = key_base.wrapping_add(i);
            let old = base.node_for(k).unwrap();
            let new = shrunk.node_for(k).unwrap();
            if old == removed {
                prop_assert_ne!(new, removed);
            } else {
                prop_assert_eq!(old, new, "key {} moved although its owner stayed", k);
            }
        }
    }

    /// Placement is a pure function of the member *set*: permuting the
    /// insertion order never changes any key's owner (what lets every
    /// cluster participant derive routing independently).
    #[test]
    fn ring_placement_ignores_insertion_order(
        n in 2usize..=8,
        rotate in 0usize..8,
        key_base in any::<u64>(),
    ) {
        let members = ring_members(n);
        let mut rotated = members.clone();
        rotated.rotate_left(rotate % n);
        let a = HashRing::from_nodes(128, &members);
        let b = HashRing::from_nodes(128, &rotated);
        for i in 0..2_048u64 {
            let k = key_base.wrapping_add(i);
            prop_assert_eq!(a.node_for(k), b.node_for(k), "key {} owner depends on order", k);
        }
    }
}
