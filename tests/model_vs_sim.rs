//! Figures 2 and 3, as assertions: the closed-form model must predict the
//! simulated overheads "with reasonable accuracy" (paper §2.2) across the
//! staleness-bound sweep, despite the model's additivity/independence
//! assumptions and the simulator's limited cache capacity.

use fresca::prelude::*;

fn poisson_trace() -> Trace {
    PoissonZipfConfig {
        rate: 10.0,
        num_keys: 300,
        zipf_exponent: 1.3,
        read_ratio: 0.9,
        horizon: SimDuration::from_secs(4_000),
        ..Default::default()
    }
    .generate(workloads::SEED)
}

fn engine_config(t_s: f64) -> EngineConfig {
    EngineConfig {
        staleness_bound: SimDuration::from_secs_f64(t_s),
        // Generous capacity: Figures 2/3 test the freshness model, not
        // eviction; the paper's capacity-limited runs only shift curves.
        cache: CacheConfig { capacity: Capacity::Entries(4096), eviction: EvictionPolicy::Lru },
        cost: CostModel::default(),
        key_size: 16,
        link: LinkConfig::default(),
    }
}

/// Figure 2: TTL-expiry staleness cost, simulation vs theory.
#[test]
fn ttl_expiry_cs_matches_theory() {
    let trace = poisson_trace();
    for t in [1.0, 5.0, 20.0, 100.0] {
        let sim = TraceEngine::new(engine_config(t), PolicyConfig::TtlExpiry).run(&trace);
        let th = theory::ttl_expiry(&trace, &CostModel::default(), t, 16);
        let (s, m) = (sim.cs_normalized, th.cs_normalized);
        assert!(
            (s - m).abs() / m.max(1e-9) < 0.35,
            "T={t}: sim C'_S {s:.4} vs theory {m:.4}"
        );
    }
}

/// Figure 2's qualitative claim: C'_S → 100% as T → 0 (at T = 0.5s the
/// hottest Zipf keys still see multiple reads per interval, so the ratio
/// saturates from below as the bound tightens).
#[test]
fn ttl_expiry_miss_ratio_approaches_one_at_tight_bounds() {
    let trace = poisson_trace();
    let very_tight = TraceEngine::new(engine_config(0.1), PolicyConfig::TtlExpiry).run(&trace);
    let tight = TraceEngine::new(engine_config(0.5), PolicyConfig::TtlExpiry).run(&trace);
    let loose = TraceEngine::new(engine_config(100.0), PolicyConfig::TtlExpiry).run(&trace);
    assert!(very_tight.cs_normalized > 0.85, "T=0.1: {}", very_tight.cs_normalized);
    assert!(tight.cs_normalized > 0.65, "T=0.5: {}", tight.cs_normalized);
    assert!(very_tight.cs_normalized > tight.cs_normalized);
    assert!(loose.cs_normalized < tight.cs_normalized / 2.0);
}

/// Figure 3: TTL-polling freshness cost, simulation vs theory.
#[test]
fn ttl_polling_cf_matches_theory() {
    let trace = poisson_trace();
    for t in [1.0, 5.0, 20.0, 100.0] {
        let sim = TraceEngine::new(engine_config(t), PolicyConfig::TtlPolling).run(&trace);
        let th = theory::ttl_polling(&trace, &CostModel::default(), t, 16);
        let (s, m) = (sim.cf_normalized, th.cf_normalized);
        // The model polls every key for the whole horizon; the simulator
        // only polls keys after first touch — theory is an upper bound
        // that tightens as T shrinks.
        assert!(
            s <= m * 1.05 && s > m * 0.4,
            "T={t}: sim C'_F {s:.3} vs theory {m:.3}"
        );
    }
}

/// Figure 3's qualitative claim: polling cost grows as 1/T (slope −1 in
/// log-log).
#[test]
fn ttl_polling_cf_scales_inverse_t() {
    let trace = poisson_trace();
    let a = TraceEngine::new(engine_config(2.0), PolicyConfig::TtlPolling).run(&trace);
    let b = TraceEngine::new(engine_config(20.0), PolicyConfig::TtlPolling).run(&trace);
    let ratio = a.cf_normalized / b.cf_normalized;
    assert!((ratio - 10.0).abs() < 1.5, "10x tighter bound ⇒ ~10x cost, got {ratio:.2}");
}

/// §3.1's analytic orderings hold in simulation too.
#[test]
fn write_reactive_beats_ttl_in_simulation() {
    let trace = poisson_trace();
    for t in [1.0, 10.0] {
        let cfg = engine_config(t);
        let exp = TraceEngine::new(cfg, PolicyConfig::TtlExpiry).run(&trace);
        let poll = TraceEngine::new(cfg, PolicyConfig::TtlPolling).run(&trace);
        let inv = TraceEngine::new(cfg, PolicyConfig::AlwaysInvalidate).run(&trace);
        let upd = TraceEngine::new(cfg, PolicyConfig::AlwaysUpdate).run(&trace);
        assert!(inv.cs_normalized < exp.cs_normalized, "T={t}: inv C'_S < ttl-expiry C'_S");
        assert!(inv.cf_total < exp.cf_total, "T={t}: inv C_F < ttl-expiry C_F");
        assert!(upd.cf_total < poll.cf_total, "T={t}: upd C_F < ttl-polling C_F");
        assert_eq!(upd.cs_events, 0, "updates keep everything fresh");
        assert_eq!(poll.cs_events, 0, "polling keeps everything fresh");
    }
}

/// The invalidation model's C_S formula against simulation.
#[test]
fn invalidate_cs_matches_theory() {
    let trace = poisson_trace();
    for t in [1.0, 10.0, 50.0] {
        let sim = TraceEngine::new(engine_config(t), PolicyConfig::AlwaysInvalidate).run(&trace);
        let th = theory::invalidate(&trace, &CostModel::default(), t, 16);
        let (s, m) = (sim.cs_normalized, th.cs_normalized);
        assert!(
            (s - m).abs() / m.max(1e-9) < 0.4,
            "T={t}: sim C'_S {s:.4} vs theory {m:.4}"
        );
    }
}
