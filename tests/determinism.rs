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

/// The store side of every policy on one short preset trace at T = 1 s.
/// Each row is `(policy, [violations, cf_total bits, cs_events,
/// invalidates_sent, updates_sent, tracker_suppressed, buffer_coalesced,
/// mirror_skipped, store_reads, net.sent], adaptive_decisions)`. A
/// refactor of the flush path must leave every digit where it is.
#[test]
fn store_side_golden_for_every_policy() {
    type Row = (&'static str, [u64; 10], Option<(u64, u64)>);
    #[rustfmt::skip]
    const GOLDEN: [Row; 8] = [
        ("ttl-expiry", [0, 4656781388328992768, 2075, 0, 0, 0, 0, 0, 2431, 0], None),
        ("ttl-polling", [0, 4683982928043048960, 0, 0, 0, 0, 0, 0, 138393, 0], None),
        ("invalidate", [0, 4645714583893101783, 333, 653, 0, 1699, 466, 0, 689, 389], None),
        ("update", [0, 4652886918143410176, 0, 0, 2352, 0, 466, 0, 356, 596], None),
        ("adaptive", [0, 4648271608134657640, 197, 293, 698, 1361, 466, 0, 553, 640], Some((698, 1654))),
        ("adaptive+cs", [0, 4644947564581565236, 197, 227, 270, 1202, 466, 653, 553, 408], Some((270, 1429))),
        ("adaptive-slo", [0, 4652886918143410176, 0, 0, 2352, 0, 466, 0, 356, 596], Some((2352, 0))),
        ("oracle", [0, 4644117213400268800, 0, 0, 615, 0, 466, 0, 356, 392], None),
    ];
    let trace = PoissonMixConfig {
        horizon: SimDuration::from_secs(600),
        ..workloads::poisson_mix()
    }
    .generate(workloads::SEED);
    let cfg = EngineConfig { staleness_bound: SimDuration::from_secs(1), ..EngineConfig::default() };
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
    for (policy, (name, row, decisions)) in policies.into_iter().zip(GOLDEN) {
        let r = TraceEngine::new(cfg, policy).run(&trace);
        assert_eq!(r.policy, name);
        let got = [
            r.violations,
            r.cf_total.to_bits(),
            r.cs_events,
            r.breakdown.invalidates_sent,
            r.breakdown.updates_sent,
            r.tracker_suppressed,
            r.buffer_coalesced,
            r.mirror_skipped,
            r.store_reads,
            r.net.sent,
        ];
        assert_eq!((got, r.adaptive_decisions), (row, decisions), "{name}");
    }
}

/// The cache side of every policy on `store_side_golden_for_every_policy`'s
/// trace: every `CacheStats` field, in declaration order. None of these
/// runs evicts, so one more row runs Adpt.+C.S. under ARC with a byte
/// budget, on the same preset with log-normal sizes: eviction by bytes
/// and the mirror's eviction feed are pinned too (`mirror_skipped` is
/// appended to its row). A refactor of the cache's write path must leave
/// every digit where it is.
#[test]
fn cache_side_golden_for_every_policy() {
    use fresca::fresca_cache::CacheStats;
    use fresca::fresca_workload::gen::SizeModel;
    fn fields(s: CacheStats) -> [u64; 11] {
        let CacheStats {
            fresh_hits,
            stale_misses,
            cold_misses,
            evictions,
            invalidations_applied,
            invalidations_missed,
            updates_applied,
            updates_missed,
            refreshes,
            stale_served,
            bound_refusals,
        } = s;
        [
            fresh_hits,
            stale_misses,
            cold_misses,
            evictions,
            invalidations_applied,
            invalidations_missed,
            updates_applied,
            updates_missed,
            refreshes,
            stale_served,
            bound_refusals,
        ]
    }
    #[rustfmt::skip]
    const GOLDEN: [(&str, [u64; 11]); 8] = [
        ("ttl-expiry", [809, 2075, 356, 0, 0, 0, 0, 0, 0, 0, 0]),
        ("ttl-polling", [2884, 0, 356, 0, 0, 0, 0, 0, 138037, 0, 0]),
        ("invalidate", [2551, 333, 356, 0, 389, 264, 0, 0, 0, 0, 0]),
        ("update", [2884, 0, 356, 0, 0, 0, 1699, 653, 0, 0, 0]),
        ("adaptive", [2687, 197, 356, 0, 227, 66, 270, 428, 0, 0, 0]),
        ("adaptive+cs", [2687, 197, 356, 0, 227, 0, 270, 0, 0, 0, 0]),
        ("adaptive-slo", [2884, 0, 356, 0, 0, 0, 1699, 653, 0, 0, 0]),
        ("oracle", [2884, 0, 356, 0, 0, 0, 615, 0, 0, 0, 0]),
    ];
    const ARC_BYTES: [u64; 12] = [2519, 178, 543, 435, 208, 0, 181, 0, 0, 0, 0, 839];
    let mix = PoissonMixConfig { horizon: SimDuration::from_secs(600), ..workloads::poisson_mix() };
    let trace = mix.clone().generate(workloads::SEED);
    let cfg = EngineConfig { staleness_bound: SimDuration::from_secs(1), ..EngineConfig::default() };
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
    let rows: Vec<(String, [u64; 11])> = policies
        .into_iter()
        .map(|policy| {
            let r = TraceEngine::new(cfg, policy).run(&trace);
            (r.policy, fields(r.cache))
        })
        .collect();
    let golden: Vec<(String, [u64; 11])> =
        GOLDEN.iter().map(|&(name, row)| (name.to_string(), row)).collect();
    assert_eq!(rows, golden);

    let size = SizeModel::LogNormal { median: 512.0, sigma: 1.0, max: 16_384 };
    let trace = PoissonMixConfig { size, ..mix }.generate(workloads::SEED);
    let capacity = Capacity::Bytes(96 * 1024);
    let cache = CacheConfig { capacity, eviction: EvictionPolicy::Adaptive };
    let r = TraceEngine::new(EngineConfig { cache, ..cfg }, PolicyConfig::adaptive_cache_state())
        .run(&trace);
    let mut got = [0; 12];
    got[..11].copy_from_slice(&fields(r.cache));
    got[11] = r.mirror_skipped;
    assert_eq!(got, ARC_BYTES, "adaptive+cs under ARC, byte budget");
}
