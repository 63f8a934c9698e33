//! §5 open question 1, end to end: message loss breaks the staleness
//! bound for write-reactive policies; reliability machinery restores it;
//! TTLs never needed it.

use fresca::prelude::*;

fn workload() -> Trace {
    PoissonZipfConfig {
        rate: 80.0,
        num_keys: 120,
        zipf_exponent: 1.1,
        read_ratio: 0.8,
        horizon: SimDuration::from_secs(400),
        ..Default::default()
    }
    .generate(2025)
}

fn config(drop: f64, reliable: bool) -> EngineConfig {
    EngineConfig {
        staleness_bound: SimDuration::from_secs(1),
        link: LinkConfig {
            faults: FaultConfig { drop_prob: drop, ..FaultConfig::default() },
            net_seed: 31,
            reliable: reliable
                .then_some(Retransmit { rto: SimDuration::from_millis(40), max_retries: 10 }),
        },
        ..EngineConfig::default()
    }
}

#[test]
fn loss_violates_bound_for_both_invalidate_and_update() {
    let trace = workload();
    for policy in [PolicyConfig::AlwaysInvalidate, PolicyConfig::AlwaysUpdate] {
        let clean = TraceEngine::new(config(0.0, false), policy).run(&trace);
        let lossy = TraceEngine::new(config(0.15, false), policy).run(&trace);
        assert_eq!(clean.violations, 0, "{}: clean link is violation-free", clean.policy);
        assert!(
            lossy.violations > 100,
            "{}: loss must violate the bound, got {}",
            lossy.policy,
            lossy.violations
        );
    }
}

#[test]
fn reliability_restores_bound_within_retransmit_budget() {
    let trace = workload();
    for policy in [PolicyConfig::AlwaysInvalidate, PolicyConfig::AlwaysUpdate] {
        let lossy = TraceEngine::new(config(0.15, false), policy).run(&trace);
        let fixed = TraceEngine::new(config(0.15, true), policy).run(&trace);
        assert!(
            (fixed.violations as f64) < 0.02 * lossy.violations.max(1) as f64,
            "{}: reliable {} vs lossy {}",
            fixed.policy,
            fixed.violations,
            lossy.violations
        );
        assert!(fixed.retransmissions > 0);
        // Whatever residual violations remain are bounded by the RTO
        // chain, not unbounded like the lossy run's.
        assert!(
            fixed.max_overage_s < lossy.max_overage_s / 4.0,
            "{}: overage {} vs {}",
            fixed.policy,
            fixed.max_overage_s,
            lossy.max_overage_s
        );
    }
}

#[test]
fn ttl_needs_no_messages_and_cannot_be_violated() {
    let trace = workload();
    let r = TraceEngine::new(config(0.5, false), PolicyConfig::TtlExpiry).run(&trace);
    assert_eq!(r.net.sent, 0);
    assert_eq!(r.violations, 0);
    // But it pays with stale misses instead — the trade the paper frames.
    assert!(r.cache.stale_misses > 0);
}

#[test]
fn duplicates_and_reordering_are_handled() {
    let trace = workload();
    let mut cfg = config(0.1, true);
    cfg.link.faults.duplicate_prob = 0.3;
    cfg.link.faults.jitter = SimDuration::from_millis(5);
    let r = TraceEngine::new(cfg, PolicyConfig::AlwaysUpdate).run(&trace);
    assert!(r.duplicates_suppressed > 0, "dedup layer exercised");
    // Version guard + dedup keep correctness: residual violations only
    // from retry exhaustion, which the generous budget prevents here.
    assert_eq!(r.gave_up, 0);
    assert!(r.violation_ratio() < 0.001, "ratio {}", r.violation_ratio());
}

/// The `lossy` bin's §5 numbers at 5 % drop, pinned: its trace and link
/// settings (`net_seed` 7, rto 50 ms, 8 retries), with and without the
/// reliability layer. Columns: violations, retransmissions, messages sent.
#[test]
fn lossy_bin_five_percent_drop_is_pinned() {
    let trace = PoissonZipfConfig {
        rate: 100.0,
        num_keys: 200,
        zipf_exponent: 1.1,
        read_ratio: 0.8,
        horizon: SimDuration::from_secs(500),
        ..Default::default()
    }
    .generate(workloads::SEED);
    let golden = [
        (PolicyConfig::AlwaysInvalidate, false, (31225, 0, 446)),
        (PolicyConfig::AlwaysInvalidate, true, (2, 57, 557)),
        (PolicyConfig::AlwaysUpdate, false, (1967, 0, 500)),
        (PolicyConfig::AlwaysUpdate, true, (6, 57, 557)),
        (PolicyConfig::adaptive(), false, (1910, 0, 520)),
        (PolicyConfig::adaptive(), true, (7, 57, 583)),
    ];
    for (policy, reliable, want) in golden {
        let cfg = EngineConfig {
            staleness_bound: SimDuration::from_secs(1),
            link: LinkConfig {
                faults: FaultConfig { drop_prob: 0.05, ..FaultConfig::default() },
                net_seed: 7,
                reliable: reliable
                    .then_some(Retransmit { rto: SimDuration::from_millis(50), max_retries: 8 }),
            },
            ..EngineConfig::default()
        };
        let r = TraceEngine::new(cfg, policy).run(&trace);
        assert_eq!(
            (r.violations, r.retransmissions, r.net.sent),
            want,
            "{} reliable={reliable}: drifted from the recorded run",
            r.policy
        );
    }
}
