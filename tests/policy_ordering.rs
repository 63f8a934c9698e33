//! Figure 5, as assertions: across all four workloads, the orderings the
//! paper's bar chart shows must hold — write-reactive policies beat TTLs,
//! the adaptive policy matches or beats the better static arm, cache-state
//! knowledge helps, and the oracle lower-bounds everyone.

use fresca::prelude::*;

fn engine_config() -> EngineConfig {
    EngineConfig {
        staleness_bound: SimDuration::from_secs(1),
        cache: CacheConfig { capacity: Capacity::Entries(512), eviction: EvictionPolicy::Lru },
        cost: CostModel::default(),
        key_size: 16,
        link: LinkConfig::default(),
    }
}

fn short(gen: &dyn WorkloadGen) -> Trace {
    // The presets run 10_000s; integration tests trim the horizon by
    // regenerating with the same parameters but shorter span where the
    // generator allows it. Simplest: use the preset as-is for poisson
    // (cheap) and rely on the bench harness for full-length runs.
    gen.generate(workloads::SEED)
}

fn run(trace: &Trace, policy: PolicyConfig) -> RunReport {
    TraceEngine::new(engine_config(), policy).run(trace)
}

#[test]
fn figure5_orderings_hold_on_all_workloads() {
    for (name, gen) in workloads::all() {
        let trace = short(gen.as_ref());
        let exp = run(&trace, PolicyConfig::TtlExpiry);
        let poll = run(&trace, PolicyConfig::TtlPolling);
        let inv = run(&trace, PolicyConfig::AlwaysInvalidate);
        let upd = run(&trace, PolicyConfig::AlwaysUpdate);
        let adpt = run(&trace, PolicyConfig::Adaptive(EstimatorConfig::Exact));
        let adpt_cs = run(&trace, PolicyConfig::AdaptiveCacheState(EstimatorConfig::Exact));
        let opt = run(&trace, PolicyConfig::Oracle);

        // (1) Reacting to writes beats TTL-based policies on C_F.
        let best_ttl = exp.cf_total.min(poll.cf_total);
        for r in [&inv, &upd, &adpt, &adpt_cs, &opt] {
            assert!(
                r.cf_total < best_ttl,
                "{name}: {} C_F {} must beat best TTL {}",
                r.policy,
                r.cf_total,
                best_ttl
            );
        }

        // (2) Adaptive ~matches the better static arm (within 10%; it can
        // beat both because it decides per key).
        let best_static = inv.cf_total.min(upd.cf_total);
        assert!(
            adpt.cf_total <= best_static * 1.10,
            "{name}: adaptive {} vs best static {}",
            adpt.cf_total,
            best_static
        );

        // (3) Cache-state knowledge can only reduce messages.
        assert!(
            adpt_cs.cf_total <= adpt.cf_total + 1e-9,
            "{name}: +C.S. {} must not exceed adaptive {}",
            adpt_cs.cf_total,
            adpt.cf_total
        );

        // (4) The oracle lower-bounds every implementable policy.
        for r in [&inv, &upd, &adpt, &adpt_cs] {
            assert!(
                opt.cf_total <= r.cf_total + 1e-9,
                "{name}: oracle {} vs {} {}",
                opt.cf_total,
                r.policy,
                r.cf_total
            );
        }

        // (5) Staleness: update-flavoured policies are clean; TTL-expiry
        // is the worst.
        assert_eq!(upd.cs_events, 0, "{name}");
        assert!(inv.cs_normalized <= exp.cs_normalized, "{name}");
    }
}

#[test]
fn adaptive_splits_decisions_on_mixed_workload() {
    // On the 50-50 mix, the adaptive policy must actually use *both*
    // arms: updates for the read-heavy half, invalidates for the
    // write-heavy half.
    let trace = workloads::poisson_mix().generate(workloads::SEED);
    let r = run(&trace, PolicyConfig::Adaptive(EstimatorConfig::Exact));
    let (upd, inv) = r.adaptive_decisions.expect("adaptive run");
    assert!(upd > 0 && inv > 0, "both arms used: {upd} updates, {inv} invalidates");
}

#[test]
fn estimator_choice_preserves_orderings() {
    // Figure 6b's subject: sketch-backed adaptive stays close to
    // exact-backed adaptive.
    let trace = workloads::poisson().generate(workloads::SEED);
    let exact = run(&trace, PolicyConfig::Adaptive(EstimatorConfig::Exact));
    // Geometries sized for the 1000-key space: the point of a sketch is
    // to be smaller than a per-key table.
    let topk = run(
        &trace,
        PolicyConfig::Adaptive(EstimatorConfig::TopK { k: 64, width: 256, depth: 2 }),
    );
    let cm = run(
        &trace,
        PolicyConfig::Adaptive(EstimatorConfig::CountMin { width: 256, depth: 2 }),
    );
    for r in [&topk, &cm] {
        assert!(
            r.cf_total <= exact.cf_total * 1.25,
            "sketch-backed adaptive within 25% of exact: {} vs {}",
            r.cf_total,
            exact.cf_total
        );
    }
    // And sketches use less memory than exact tracking on this keyspace.
    assert!(topk.estimator_memory_bytes.unwrap() < exact.estimator_memory_bytes.unwrap());
}
