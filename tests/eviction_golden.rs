//! Golden counters for the `ablate_eviction` experiment: the same trace
//! under each eviction policy must reproduce, counter for counter, the
//! `CacheStats` recorded with the HashMap-backed cache the simulator ran
//! on before it moved onto `SlabCache` (captured at commit 4f261e0). Any
//! drift in touch order, victim choice or SLRU promotion/demotion shows
//! up here as a changed eviction count.

use fresca::fresca_cache::CacheStats;
use fresca::prelude::*;

/// Counters the `AlwaysInvalidate` policy can move; the other five
/// (`updates_*`, `refreshes`, `stale_served`, `bound_refusals`) are zero.
fn golden(
    fresh_hits: u64,
    stale_misses: u64,
    cold_misses: u64,
    evictions: u64,
    invalidations_applied: u64,
    invalidations_missed: u64,
) -> CacheStats {
    CacheStats {
        fresh_hits,
        stale_misses,
        cold_misses,
        evictions,
        invalidations_applied,
        invalidations_missed,
        ..CacheStats::default()
    }
}

#[test]
fn ablate_eviction_counters_are_pinned_per_policy() {
    // The `ablate_eviction` bin's trace and engine configuration.
    let trace = PoissonZipfConfig {
        rate: 100.0,
        num_keys: 2000,
        zipf_exponent: 0.9,
        read_ratio: 0.8,
        horizon: SimDuration::from_secs(2_000),
        ..Default::default()
    }
    .generate(workloads::SEED);
    for (name, eviction, want) in [
        ("lru", EvictionPolicy::Lru, golden(79240, 12729, 67216, 66916, 17778, 12474)),
        ("fifo", EvictionPolicy::Fifo, golden(73207, 10701, 75277, 74977, 16316, 13936)),
        (
            "slru-80",
            EvictionPolicy::Slru { protected_pct: 80 },
            golden(85595, 17811, 55779, 55479, 19415, 10837),
        ),
        (
            "freshness-aware",
            EvictionPolicy::FreshnessAware { probe_depth: 16 },
            golden(79338, 12445, 67402, 67102, 17796, 12456),
        ),
    ] {
        let cfg = EngineConfig {
            staleness_bound: SimDuration::from_secs(1),
            cache: CacheConfig { capacity: Capacity::Entries(300), eviction },
            ..EngineConfig::default()
        };
        let got = TraceEngine::new(cfg, PolicyConfig::AlwaysInvalidate).run(&trace).cache;
        assert_eq!(got, want, "{name}: CacheStats drifted from the recorded run");
    }
}
