//! Simulation engines.
//!
//! * [`TraceEngine`] (this module) — the *analysis-mode* engine used for
//!   Figures 2, 3 and 5: replays a trace against the cache + store with a
//!   chosen freshness policy, metering `C_F`/`C_S`. Freshness messages are
//!   applied at interval boundaries with no propagation delay, matching
//!   the paper's simulation setup.
//! * [`system`] — the *system-mode* engine: same components, but every
//!   cache⇄store interaction is a real [`fresca_net::Message`] subject to
//!   delay, loss and reordering; used for the §5 open-question experiments
//!   (lost invalidates, reliable delivery).

pub mod system;

use crate::cost::{CostModel, ObjectSize};
use crate::metrics::{CostBreakdown, CostMeters};
use crate::policy::{AdaptivePolicy, FlushDecision, OraclePolicy, SloAdaptivePolicy};
use fresca_cache::{CacheConfig, CacheStats, Capacity, EvictionPolicy, SlabCache};
use fresca_sim::{Scheduler, SimDuration, SimTime};
use fresca_sketch::{CountMinEw, EwEstimator, ExactEw, TopKEw};
use fresca_store::{CacheStateMirror, DataStore, InvalidationTracker, WriteBuffer};
use fresca_workload::{Op, Trace};
use serde::{Deserialize, Serialize};

/// Which `E[W]` estimator backs the adaptive policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EstimatorConfig {
    /// Exact three-counter tracking (paper §3.3).
    Exact,
    /// Count-min sketches of the given geometry.
    CountMin {
        /// Columns per row.
        width: usize,
        /// Rows.
        depth: usize,
    },
    /// Top-K exact entries over a Count-min tail.
    TopK {
        /// Exact slots.
        k: usize,
        /// Tail sketch columns.
        width: usize,
        /// Tail sketch rows.
        depth: usize,
    },
}

impl EstimatorConfig {
    pub(crate) fn build(self) -> Box<dyn EwEstimator> {
        match self {
            EstimatorConfig::Exact => Box::new(ExactEw::new()),
            EstimatorConfig::CountMin { width, depth } => Box::new(CountMinEw::new(width, depth)),
            EstimatorConfig::TopK { k, width, depth } => Box::new(TopKEw::new(k, width, depth)),
        }
    }
}

/// The freshness policy to run (the seven bars of Figure 5, plus the
/// §3.2 SLO-constrained variant).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyConfig {
    /// TTL-expiry: entries expire `T` after they were fetched.
    TtlExpiry,
    /// TTL-polling: entries re-fetch from the store every `T`.
    TtlPolling,
    /// Always send invalidates on writes (batched per `T`).
    AlwaysInvalidate,
    /// Always send updates on writes (batched per `T`).
    AlwaysUpdate,
    /// The paper's adaptive policy ("Adpt.").
    Adaptive(EstimatorConfig),
    /// Adaptive with backend knowledge of cache contents ("Adpt.+C.S.").
    AdaptiveCacheState(EstimatorConfig),
    /// §3.2's throughput-max-under-staleness-SLO adaptive policy.
    AdaptiveSlo {
        /// Upper bound on the acceptable stale-miss ratio, in `[0, 1]`.
        staleness_slo: f64,
    },
    /// Omniscient optimal ("Opt.").
    Oracle,
}

impl PolicyConfig {
    /// `Adaptive` with the paper-recommended Top-K estimator.
    pub fn adaptive() -> Self {
        PolicyConfig::Adaptive(EstimatorConfig::TopK { k: 128, width: 1024, depth: 4 })
    }

    /// `AdaptiveCacheState` with the Top-K estimator.
    pub fn adaptive_cache_state() -> Self {
        PolicyConfig::AdaptiveCacheState(EstimatorConfig::TopK { k: 128, width: 1024, depth: 4 })
    }

    /// TTL-expiry shorthand.
    pub fn ttl_expiry() -> Self {
        PolicyConfig::TtlExpiry
    }

    /// TTL-polling shorthand.
    pub fn ttl_polling() -> Self {
        PolicyConfig::TtlPolling
    }

    /// Short display name used in reports and figures.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyConfig::TtlExpiry => "ttl-expiry",
            PolicyConfig::TtlPolling => "ttl-polling",
            PolicyConfig::AlwaysInvalidate => "invalidate",
            PolicyConfig::AlwaysUpdate => "update",
            PolicyConfig::Adaptive(_) => "adaptive",
            PolicyConfig::AdaptiveCacheState(_) => "adaptive+cs",
            PolicyConfig::AdaptiveSlo { .. } => "adaptive-slo",
            PolicyConfig::Oracle => "oracle",
        }
    }

    /// True for the policies that react to writes (and therefore batch
    /// flushes per interval).
    pub fn reacts_to_writes(&self) -> bool {
        !matches!(self, PolicyConfig::TtlExpiry | PolicyConfig::TtlPolling)
    }
}

/// Engine configuration shared by all policies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// The staleness bound `T` (also the TTL and the batching interval).
    pub staleness_bound: SimDuration,
    /// Cache capacity and eviction.
    pub cache: CacheConfig,
    /// Cost model.
    pub cost: CostModel,
    /// Simulated key size in bytes (for byte-scaled cost models).
    pub key_size: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            staleness_bound: SimDuration::from_secs(1),
            cache: CacheConfig { capacity: Capacity::Entries(512), eviction: EvictionPolicy::Lru },
            cost: CostModel::default(),
            key_size: 16,
        }
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Policy short name.
    pub policy: String,
    /// Workload (trace generator) name.
    pub workload: String,
    /// Staleness bound in seconds.
    pub staleness_bound_s: f64,
    /// Requests replayed.
    pub requests: u64,
    /// Reads replayed.
    pub reads: u64,
    /// Writes replayed.
    pub writes: u64,
    /// Total freshness cost `C_F` (cost units).
    pub cf_total: f64,
    /// Staleness events `C_S` (stale-data misses).
    pub cs_events: u64,
    /// `C'_F` — `C_F` over useful read cost.
    pub cf_normalized: f64,
    /// `C'_S` — stale-miss ratio over present reads.
    pub cs_normalized: f64,
    /// Event counts and per-component costs.
    pub breakdown: CostBreakdown,
    /// Cache counters.
    pub cache: CacheStats,
    /// Backend reads served.
    pub store_reads: u64,
    /// Backend writes applied.
    pub store_writes: u64,
    /// Invalidates suppressed by backend tracking.
    pub tracker_suppressed: u64,
    /// Writes coalesced in the interval buffer.
    pub buffer_coalesced: u64,
    /// Messages skipped thanks to cache-state knowledge.
    pub mirror_skipped: u64,
    /// Estimator memory at end of run (adaptive policies).
    pub estimator_memory_bytes: Option<usize>,
    /// `(updates, invalidates)` decided by the adaptive policy.
    pub adaptive_decisions: Option<(u64, u64)>,
}

/// Engine-internal policy state.
enum PolicyState {
    TtlExpiry,
    TtlPolling,
    Static { update: bool },
    Adaptive { policy: AdaptivePolicy<Box<dyn EwEstimator>>, cache_state: bool },
    Slo(SloAdaptivePolicy),
    Oracle(OraclePolicy),
}

/// Events the engine schedules between requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineEvent {
    /// Interval boundary: flush the write buffer.
    Flush,
    /// TTL-polling refresh for a key (with a generation guard so evicted
    /// and re-inserted entries don't double their polling chains).
    Refresh { key: u64, generation: u64 },
}

/// The analysis-mode, trace-driven engine.
pub struct TraceEngine {
    config: EngineConfig,
    policy_config: PolicyConfig,
}

impl TraceEngine {
    /// New engine.
    pub fn new(config: EngineConfig, policy: PolicyConfig) -> Self {
        assert!(!config.staleness_bound.is_zero(), "staleness bound must be positive");
        TraceEngine { config, policy_config: policy }
    }

    /// Replay `trace` and report costs.
    pub fn run(&self, trace: &Trace) -> RunReport {
        let cfg = &self.config;
        let t = cfg.staleness_bound;
        let horizon = if trace.meta().horizon.is_zero() {
            trace.end_time()
        } else {
            SimTime::ZERO + trace.meta().horizon
        };

        let mut cache = SlabCache::with_config(cfg.cache);
        let mut store = DataStore::new();
        let mut buffer = WriteBuffer::new();
        let mut tracker = InvalidationTracker::new();
        let mut mirror = CacheStateMirror::new();
        let mut meters = CostMeters::new();
        let mut sched: Scheduler<EngineEvent> = Scheduler::new();
        let mut generations: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();

        let mut policy = match self.policy_config {
            PolicyConfig::TtlExpiry => PolicyState::TtlExpiry,
            PolicyConfig::TtlPolling => PolicyState::TtlPolling,
            PolicyConfig::AlwaysInvalidate => PolicyState::Static { update: false },
            PolicyConfig::AlwaysUpdate => PolicyState::Static { update: true },
            PolicyConfig::Adaptive(est) => {
                PolicyState::Adaptive { policy: AdaptivePolicy::new(est.build()), cache_state: false }
            }
            PolicyConfig::AdaptiveCacheState(est) => {
                PolicyState::Adaptive { policy: AdaptivePolicy::new(est.build()), cache_state: true }
            }
            PolicyConfig::AdaptiveSlo { staleness_slo } => {
                PolicyState::Slo(SloAdaptivePolicy::new(staleness_slo))
            }
            PolicyConfig::Oracle => PolicyState::Oracle(OraclePolicy::new(trace)),
        };

        if self.policy_config.reacts_to_writes() {
            sched.schedule(SimTime::ZERO + t, EngineEvent::Flush);
        }

        let handle_event = |now: SimTime,
                                ev: EngineEvent,
                                cache: &mut SlabCache,
                                store: &mut DataStore,
                                buffer: &mut WriteBuffer,
                                tracker: &mut InvalidationTracker,
                                mirror: &mut CacheStateMirror,
                                meters: &mut CostMeters,
                                sched: &mut Scheduler<EngineEvent>,
                                generations: &mut std::collections::HashMap<u64, u64>,
                                policy: &mut PolicyState| {
            match ev {
                EngineEvent::Flush => {
                    for key in buffer.drain() {
                        let value_size =
                            store.peek(key).map(|r| r.value_size).unwrap_or(0);
                        let size = ObjectSize { key: cfg.key_size, value: value_size };
                        let decision = match policy {
                            PolicyState::Static { update: true } => FlushDecision::Update,
                            PolicyState::Static { update: false } => FlushDecision::Invalidate,
                            PolicyState::Adaptive { policy, cache_state } => {
                                if *cache_state && !mirror.should_send(key) {
                                    FlushDecision::Nothing
                                } else {
                                    policy.decide(key, &cfg.cost, size)
                                }
                            }
                            PolicyState::Slo(policy) => policy.decide(key, &cfg.cost, size),
                            PolicyState::Oracle(oracle) => oracle.decide(
                                key,
                                now,
                                cache.contains(key),
                                tracker.is_invalidated(key),
                                &cfg.cost,
                                size,
                            ),
                            PolicyState::TtlExpiry | PolicyState::TtlPolling => {
                                unreachable!("TTL policies never flush")
                            }
                        };
                        match decision {
                            FlushDecision::Update => {
                                meters.on_update_sent(cfg.cost.update_cost(size));
                                let rec = store
                                    .peek(key)
                                    .expect("dirty key must exist in the store");
                                if cache.apply_update(key, rec.version, rec.value_size, now, None)
                                {
                                    tracker.clear(key);
                                }
                            }
                            FlushDecision::Invalidate => {
                                if tracker.should_send(key) {
                                    meters.on_invalidate_sent(cfg.cost.invalidate_cost(size));
                                    cache.apply_invalidate(key);
                                }
                            }
                            FlushDecision::Nothing => {}
                        }
                    }
                    let next = now + t;
                    if next <= horizon {
                        sched.schedule(next, EngineEvent::Flush);
                    }
                }
                EngineEvent::Refresh { key, generation } => {
                    if generations.get(&key) == Some(&generation) && cache.contains(key) {
                        let value_size = cache.peek(key).map(|e| e.value_size).unwrap_or(0);
                        let size = ObjectSize { key: cfg.key_size, value: value_size };
                        meters.on_polling_refresh(cfg.cost.miss_cost(size));
                        let rec = store.read(key, value_size);
                        cache.apply_refresh(key, rec.version, now, None);
                        let next = now + t;
                        if next <= horizon {
                            sched.schedule(next, EngineEvent::Refresh { key, generation });
                        }
                    }
                }
            }
        };

        for req in trace {
            // Boundary/refresh events due at or before this request run
            // first (a flush at exactly `at` covers the *previous*
            // interval).
            while let Some((et, ev)) = sched.pop_until(req.at) {
                handle_event(
                    et, ev, &mut cache, &mut store, &mut buffer, &mut tracker, &mut mirror,
                    &mut meters, &mut sched, &mut generations, &mut policy,
                );
            }
            let now = req.at;
            let key = req.key.0;
            let size = ObjectSize { key: cfg.key_size, value: req.value_size };
            match req.op {
                Op::Read => {
                    meters.on_read(cfg.cost.hit_cost(size));
                    match &mut policy {
                        PolicyState::Adaptive { policy, .. } => policy.on_read(key),
                        PolicyState::Slo(policy) => policy.on_read(key),
                        _ => {}
                    }
                    let expires = match policy {
                        PolicyState::TtlExpiry => Some(now + t),
                        _ => None,
                    };
                    match cache.get(key, now) {
                        fresca_cache::GetResult::FreshHit(_) => {}
                        fresca_cache::GetResult::StaleMiss(_) => {
                            meters.on_stale_fetch(cfg.cost.miss_cost(size));
                            let rec = store.read(key, req.value_size);
                            let evicted = cache.insert(key, rec.version, rec.value_size, now, expires);
                            debug_assert!(evicted.is_empty(), "in-place refresh never evicts");
                            tracker.clear(key);
                        }
                        fresca_cache::GetResult::ColdMiss => {
                            meters.on_cold_fetch();
                            let rec = store.read(key, req.value_size);
                            let evicted = cache.insert(key, rec.version, rec.value_size, now, expires);
                            mirror.on_populate(key);
                            tracker.clear(key);
                            for ek in evicted {
                                mirror.on_evict(ek);
                                generations.remove(&ek);
                            }
                            if matches!(policy, PolicyState::TtlPolling) {
                                let generation = generations.entry(key).or_insert(0);
                                *generation += 1;
                                let generation = *generation;
                                let next = now + t;
                                if next <= horizon {
                                    sched.schedule(next, EngineEvent::Refresh { key, generation });
                                }
                            }
                        }
                    }
                }
                Op::Write => {
                    store.write(key, req.value_size, now);
                    match &mut policy {
                        PolicyState::Adaptive { policy, .. } => policy.on_write(key),
                        PolicyState::Slo(policy) => policy.on_write(key),
                        _ => {}
                    }
                    if self.policy_config.reacts_to_writes() {
                        buffer.mark_dirty(key);
                    }
                }
            }
        }
        // Drain boundary events through the horizon so trailing flushes
        // (and their costs) are accounted.
        while let Some((et, ev)) = sched.pop_until(horizon) {
            handle_event(
                et, ev, &mut cache, &mut store, &mut buffer, &mut tracker, &mut mirror,
                &mut meters, &mut sched, &mut generations, &mut policy,
            );
        }

        let cache_stats = cache.stats();
        let (estimator_memory_bytes, adaptive_decisions) = match &policy {
            PolicyState::Adaptive { policy, .. } => {
                (Some(policy.estimator().memory_bytes()), Some(policy.decision_counts()))
            }
            PolicyState::Slo(policy) => {
                (Some(policy.memory_bytes()), Some(policy.decision_counts()))
            }
            _ => (None, None),
        };
        RunReport {
            policy: self.policy_config.name().into(),
            workload: trace.meta().generator.clone(),
            staleness_bound_s: t.as_secs_f64(),
            requests: trace.len() as u64,
            reads: trace.num_reads() as u64,
            writes: trace.num_writes() as u64,
            cf_total: meters.cf_total(),
            cs_events: meters.cs_total(),
            cf_normalized: meters.cf_normalized(),
            cs_normalized: meters.cs_normalized(cache_stats.present_reads()),
            breakdown: meters.breakdown(),
            cache: cache_stats,
            store_reads: store.stats().reads,
            store_writes: store.stats().writes,
            tracker_suppressed: tracker.suppressed(),
            buffer_coalesced: buffer.coalesced(),
            mirror_skipped: mirror.skipped(),
            estimator_memory_bytes,
            adaptive_decisions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fresca_workload::request::TraceMeta;
    use fresca_workload::{Key, Request};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn config(bound_ms: u64) -> EngineConfig {
        EngineConfig {
            staleness_bound: SimDuration::from_millis(bound_ms),
            cache: CacheConfig { capacity: Capacity::Entries(64), eviction: EvictionPolicy::Lru },
            cost: CostModel::unit(1.0, 0.1, 0.5, 1.0),
            key_size: 16,
        }
    }

    fn mk_trace(reqs: Vec<Request>, horizon_ms: u64) -> Trace {
        Trace::from_sorted(
            TraceMeta {
                generator: "hand".into(),
                seed: 0,
                num_keys: 16,
                horizon: SimDuration::from_millis(horizon_ms),
            },
            reqs,
        )
    }

    /// read at 0 (cold), write at 10, read at 50 — all inside one T=100ms
    /// interval, then read at 150 (next interval).
    fn canonical_trace() -> Trace {
        mk_trace(
            vec![
                Request::read(t(0), Key(1), 100),
                Request::write(t(10), Key(1), 100),
                Request::read(t(50), Key(1), 100),
                Request::read(t(150), Key(1), 100),
            ],
            300,
        )
    }

    #[test]
    fn invalidate_policy_canonical_sequence() {
        let report = TraceEngine::new(config(100), PolicyConfig::AlwaysInvalidate)
            .run(&canonical_trace());
        // Read@0: cold miss. Read@50: within-interval, entry still valid
        // (fresh within bound). Flush@100: invalidate (c_i = 0.1).
        // Read@150: stale miss (c_m = 1.0).
        assert_eq!(report.cache.cold_misses, 1);
        assert_eq!(report.cs_events, 1);
        assert_eq!(report.breakdown.invalidates_sent, 1);
        assert!((report.cf_total - 1.1).abs() < 1e-12, "cf = {}", report.cf_total);
        // C'_S: stale misses / present reads = 1 / 2.
        assert!((report.cs_normalized - 0.5).abs() < 1e-12);
    }

    #[test]
    fn update_policy_canonical_sequence() {
        let report =
            TraceEngine::new(config(100), PolicyConfig::AlwaysUpdate).run(&canonical_trace());
        // Flush@100 sends one update (c_u = 0.5); read@150 hits fresh.
        assert_eq!(report.cs_events, 0);
        assert_eq!(report.breakdown.updates_sent, 1);
        assert!((report.cf_total - 0.5).abs() < 1e-12);
        assert_eq!(report.cache.fresh_hits, 2);
    }

    #[test]
    fn ttl_expiry_canonical_sequence() {
        let report =
            TraceEngine::new(config(100), PolicyConfig::TtlExpiry).run(&canonical_trace());
        // Entry fetched at 0 expires at 100. Read@50 hits. Read@150: the
        // entry is expired → stale miss, re-fetch (c_m = 1).
        assert_eq!(report.cs_events, 1);
        assert_eq!(report.breakdown.invalidates_sent, 0);
        assert_eq!(report.breakdown.updates_sent, 0);
        assert!((report.cf_total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ttl_polling_refreshes_every_interval() {
        // One cold read at 0, horizon 300ms, T = 100ms → polls at 100,
        // 200, 300 (3 refreshes, each c_m = 1).
        let trace = mk_trace(vec![Request::read(t(0), Key(1), 100)], 300);
        let report = TraceEngine::new(config(100), PolicyConfig::TtlPolling).run(&trace);
        assert_eq!(report.breakdown.polling_refreshes, 3);
        assert_eq!(report.cs_events, 0);
        assert!((report.cf_total - 3.0).abs() < 1e-12);
    }

    #[test]
    fn polling_stops_after_eviction() {
        // Cache of 1 entry: key 1 polled, then key 2 evicts key 1.
        let mut cfg = config(100);
        cfg.cache.capacity = Capacity::Entries(1);
        let trace = mk_trace(
            vec![Request::read(t(0), Key(1), 8), Request::read(t(10), Key(2), 8)],
            500,
        );
        let report = TraceEngine::new(cfg, PolicyConfig::TtlPolling).run(&trace);
        // Key 1's chain dies at eviction; only key 2 polls: at 110..510 →
        // 4 in-horizon refreshes (110, 210, 310, 410).
        assert_eq!(report.breakdown.polling_refreshes, 4);
    }

    #[test]
    fn tracker_suppresses_repeat_invalidates() {
        // Two writes in two consecutive intervals, no reads in between:
        // the second flush must not send a second invalidate.
        let trace = mk_trace(
            vec![
                Request::read(t(0), Key(1), 8),
                Request::write(t(10), Key(1), 8),
                Request::write(t(110), Key(1), 8),
                Request::read(t(250), Key(1), 8),
            ],
            400,
        );
        let report =
            TraceEngine::new(config(100), PolicyConfig::AlwaysInvalidate).run(&trace);
        assert_eq!(report.breakdown.invalidates_sent, 1, "tracking dedups");
        assert_eq!(report.tracker_suppressed, 1);
        assert_eq!(report.cs_events, 1, "single stale miss at the read");
    }

    #[test]
    fn buffer_coalesces_within_interval() {
        let trace = mk_trace(
            vec![
                Request::write(t(10), Key(1), 8),
                Request::write(t(20), Key(1), 8),
                Request::write(t(30), Key(1), 8),
            ],
            200,
        );
        let report = TraceEngine::new(config(100), PolicyConfig::AlwaysUpdate).run(&trace);
        assert_eq!(report.breakdown.updates_sent, 1, "one update per interval per key");
        assert_eq!(report.buffer_coalesced, 2);
    }

    #[test]
    fn update_of_uncached_key_costs_but_does_nothing() {
        let trace = mk_trace(vec![Request::write(t(10), Key(1), 8)], 200);
        let report = TraceEngine::new(config(100), PolicyConfig::AlwaysUpdate).run(&trace);
        assert_eq!(report.breakdown.updates_sent, 1);
        assert_eq!(report.cache.updates_missed, 1);
        assert!((report.cf_total - 0.5).abs() < 1e-12, "cost paid even though absent");
    }

    #[test]
    fn cache_state_mirror_skips_uncached_keys() {
        let trace = mk_trace(vec![Request::write(t(10), Key(1), 8)], 200);
        let report = TraceEngine::new(
            config(100),
            PolicyConfig::AdaptiveCacheState(EstimatorConfig::Exact),
        )
        .run(&trace);
        assert_eq!(report.breakdown.updates_sent, 0);
        assert_eq!(report.breakdown.invalidates_sent, 0);
        assert_eq!(report.mirror_skipped, 1);
        assert_eq!(report.cf_total, 0.0);
    }

    #[test]
    fn oracle_defers_when_no_read_follows() {
        let trace = mk_trace(
            vec![Request::read(t(0), Key(1), 8), Request::write(t(10), Key(1), 8)],
            300,
        );
        let report = TraceEngine::new(config(100), PolicyConfig::Oracle).run(&trace);
        assert_eq!(report.cf_total, 0.0, "no future read → nothing to keep fresh");
        assert_eq!(report.cs_events, 0);
    }

    #[test]
    fn oracle_never_worse_than_static_policies() {
        use fresca_workload::{PoissonZipfConfig, WorkloadGen};
        let trace = PoissonZipfConfig {
            rate: 50.0,
            num_keys: 50,
            read_ratio: 0.8,
            horizon: SimDuration::from_secs(200),
            ..Default::default()
        }
        .generate(5);
        let cfg = config(1000);
        let oracle = TraceEngine::new(cfg, PolicyConfig::Oracle).run(&trace);
        for policy in [PolicyConfig::AlwaysInvalidate, PolicyConfig::AlwaysUpdate] {
            let other = TraceEngine::new(cfg, policy).run(&trace);
            assert!(
                oracle.cf_total <= other.cf_total + 1e-9,
                "oracle {} vs {} {}",
                oracle.cf_total,
                other.policy,
                other.cf_total
            );
        }
    }

    #[test]
    fn slo_policy_bounds_staleness() {
        use fresca_workload::{PoissonZipfConfig, WorkloadGen};
        // Write-heavy workload where pure invalidation produces a large
        // stale-miss ratio; the SLO policy must trade throughput to keep
        // C'_S under the bound.
        // r = 0.3 sits below the throughput threshold c_u/(c_m+c_i) ≈
        // 0.45, so only the SLO clause can force updates.
        let trace = PoissonZipfConfig {
            rate: 40.0,
            num_keys: 40,
            read_ratio: 0.3,
            horizon: SimDuration::from_secs(500),
            ..Default::default()
        }
        .generate(17);
        // T = 100 ms: the SLO rule is the paper's T→0 formula, so test it
        // in the regime where that limit is accurate.
        let cfg = config(100);
        let inv = TraceEngine::new(cfg, PolicyConfig::AlwaysInvalidate).run(&trace);
        assert!(inv.cs_normalized > 0.1, "baseline staleness {}", inv.cs_normalized);
        let tight = TraceEngine::new(
            cfg,
            PolicyConfig::AdaptiveSlo { staleness_slo: 0.01 },
        )
        .run(&trace);
        assert!(
            tight.cs_normalized <= 0.01 + 1e-9,
            "SLO 1%: measured {}",
            tight.cs_normalized
        );
        // A loose SLO recovers invalidation's lower freshness cost.
        let loose = TraceEngine::new(
            cfg,
            PolicyConfig::AdaptiveSlo { staleness_slo: 0.9 },
        )
        .run(&trace);
        assert!(loose.cf_total < tight.cf_total, "loose SLO must cost less");
    }

    #[test]
    fn deterministic_runs() {
        use fresca_workload::{PoissonZipfConfig, WorkloadGen};
        let trace = PoissonZipfConfig {
            horizon: SimDuration::from_secs(100),
            ..Default::default()
        }
        .generate(9);
        let cfg = config(500);
        let a = TraceEngine::new(cfg, PolicyConfig::adaptive()).run(&trace);
        let b = TraceEngine::new(cfg, PolicyConfig::adaptive()).run(&trace);
        assert_eq!(a.cf_total, b.cf_total);
        assert_eq!(a.cs_events, b.cs_events);
        assert_eq!(a.breakdown, b.breakdown);
    }

    #[test]
    fn read_heavy_adaptive_behaves_like_update() {
        use fresca_workload::{PoissonZipfConfig, WorkloadGen};
        let trace = PoissonZipfConfig {
            rate: 20.0,
            num_keys: 20,
            read_ratio: 0.95,
            horizon: SimDuration::from_secs(500),
            ..Default::default()
        }
        .generate(3);
        let cfg = config(1000);
        let adaptive =
            TraceEngine::new(cfg, PolicyConfig::Adaptive(EstimatorConfig::Exact)).run(&trace);
        let (upd, inv) = adaptive.adaptive_decisions.unwrap();
        assert!(upd > 10 * inv.max(1), "read-heavy keys should update: {upd} vs {inv}");
    }

    #[test]
    fn write_heavy_adaptive_behaves_like_invalidate() {
        use fresca_workload::{PoissonZipfConfig, WorkloadGen};
        let trace = PoissonZipfConfig {
            rate: 20.0,
            num_keys: 20,
            read_ratio: 0.1,
            horizon: SimDuration::from_secs(500),
            ..Default::default()
        }
        .generate(3);
        let cfg = config(1000);
        let adaptive =
            TraceEngine::new(cfg, PolicyConfig::Adaptive(EstimatorConfig::Exact)).run(&trace);
        let (upd, inv) = adaptive.adaptive_decisions.unwrap();
        assert!(inv > upd, "write-heavy keys should invalidate: {inv} vs {upd}");
    }
}
