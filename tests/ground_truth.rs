//! Ground-truth freshness on the ideal link: every policy that claims the
//! bound `T` serves no read whose data misses a write older than `T`,
//! judged against the store's real write history rather than the cache's
//! own view of its entries.

use fresca::prelude::*;

/// The four `workloads::all()` presets, each cut to a 200 s horizon so
/// the grid runs in seconds in a debug build (TTL-polling at T = 0.1 s
/// dominates: one refresh per cached key per interval).
fn short_workloads() -> Vec<(&'static str, Trace)> {
    let horizon = SimDuration::from_secs(200);
    let seed = workloads::SEED;
    let traces = vec![
        ("poisson", PoissonZipfConfig { horizon, ..workloads::poisson() }.generate(seed)),
        ("poisson-mix", PoissonMixConfig { horizon, ..workloads::poisson_mix() }.generate(seed)),
        ("meta", MetaLikeConfig { horizon, ..workloads::meta_like() }.generate(seed)),
        ("twitter", TwitterLikeConfig { horizon, ..workloads::twitter_like() }.generate(seed)),
    ];
    let names: Vec<&str> = traces.iter().map(|(name, _)| *name).collect();
    let all: Vec<&str> = workloads::all().iter().map(|(name, _)| *name).collect();
    assert_eq!(names, all, "cover every preset");
    traces
}

#[test]
fn ideal_link_never_violates_the_bound() {
    let policies = [
        PolicyConfig::TtlExpiry,
        PolicyConfig::TtlPolling,
        PolicyConfig::AlwaysInvalidate,
        PolicyConfig::AlwaysUpdate,
        PolicyConfig::adaptive(),
        PolicyConfig::adaptive_cache_state(),
        PolicyConfig::AdaptiveSlo { staleness_slo: 0.01 },
        PolicyConfig::Oracle,
    ];
    for (name, trace) in short_workloads() {
        for bound in [SimDuration::from_millis(100), SimDuration::from_secs(1)] {
            let cfg = EngineConfig { staleness_bound: bound, ..EngineConfig::default() };
            for policy in policies {
                let r = TraceEngine::new(cfg, policy).run(&trace);
                assert_eq!(
                    (r.violations, r.max_overage_s),
                    (0, 0.0),
                    "{name}, T = {bound}: {} served data older than the bound",
                    r.policy
                );
                assert_eq!(r.net.dropped, 0);
            }
        }
    }
}
