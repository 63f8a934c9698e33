//! Experiment presets and the theory-curve evaluator.
//!
//! [`workloads`] pins the four evaluation workloads of §2.2/§3.4 with the
//! parameters used throughout the benches, so every figure harness and
//! test runs the *same* traces. [`theory`] evaluates the closed-form model
//! per key — with per-key `λ` and `r` *measured from the trace* — and
//! aggregates, which is how the "Theoretical" curves of Figures 2 and 3
//! are produced for all workloads including the production stand-ins.

use crate::cost::CostModel;
use crate::model::{self, WorkloadPoint};
use crate::cost::ObjectSize;
use fresca_workload::analyze::TraceStats;
use fresca_workload::Trace;
use serde::{Deserialize, Serialize};

/// The paper's four workloads with pinned parameters.
pub mod workloads {
    use fresca_sim::SimDuration;
    use fresca_workload::gen::SizeModel;
    use fresca_workload::{
        MetaLikeConfig, PoissonMixConfig, PoissonZipfConfig, TwitterLikeConfig, WorkloadGen,
    };

    /// Shared horizon: long enough that interval statistics converge for
    /// bounds up to 100 s, short enough to sweep quickly.
    pub const HORIZON_S: u64 = 10_000;

    /// §2.2: "a synthetic Poisson workload with λ = 10 and Zipfian
    /// distribution (s = 1.3) across keys"; reads with r = 0.9.
    pub fn poisson() -> PoissonZipfConfig {
        PoissonZipfConfig {
            rate: 10.0,
            num_keys: 1000,
            zipf_exponent: 1.3,
            read_ratio: 0.9,
            horizon: SimDuration::from_secs(HORIZON_S),
            size: SizeModel::Fixed(512),
            key_base: 0,
        }
    }

    /// §3.4: "a 50-50 mix of two Poisson workloads, one that is
    /// read-heavy and another that is write-heavy".
    pub fn poisson_mix() -> PoissonMixConfig {
        PoissonMixConfig {
            rate: 10.0,
            num_keys_each: 500,
            zipf_exponent: 1.3,
            read_heavy_ratio: 0.95,
            write_heavy_ratio: 0.10,
            horizon: SimDuration::from_secs(HORIZON_S),
            size: SizeModel::Fixed(512),
        }
    }

    /// Meta production stand-in (substitution documented in DESIGN.md §4).
    pub fn meta_like() -> MetaLikeConfig {
        MetaLikeConfig { horizon: SimDuration::from_secs(HORIZON_S), ..Default::default() }
    }

    /// Twitter production stand-in (substitution documented in DESIGN.md §4).
    pub fn twitter_like() -> TwitterLikeConfig {
        TwitterLikeConfig { horizon: SimDuration::from_secs(HORIZON_S), ..Default::default() }
    }

    /// All four, in the order the paper's figures show them.
    pub fn all() -> Vec<(&'static str, Box<dyn WorkloadGen>)> {
        vec![
            ("poisson", Box::new(poisson())),
            ("poisson-mix", Box::new(poisson_mix())),
            ("meta", Box::new(meta_like())),
            ("twitter", Box::new(twitter_like())),
        ]
    }

    /// The master seed used by all figure harnesses.
    pub const SEED: u64 = 20241118; // HotNets '24 presentation day
}

/// Theory-side normalised costs for one `(workload, T)` point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TheoryPoint {
    /// Predicted `C'_F` (freshness cost over useful read cost).
    pub cf_normalized: f64,
    /// Predicted `C'_S` (stale-miss ratio).
    pub cs_normalized: f64,
}

/// Evaluate the closed-form model for `policy` over a trace: per touched
/// key, fit `(λ_k, r_k)` from the trace, evaluate the per-object closed
/// form, and aggregate with the paper's additivity assumption (§2.1).
pub mod theory {
    use super::*;

    /// One point per touched key, in key order: the sums in `aggregate`
    /// are then the same floating-point sums on every run.
    fn per_key_points(trace: &Trace, key_size: u32) -> (Vec<(WorkloadPoint, u64)>, f64, f64) {
        let stats = TraceStats::compute(trace);
        let span = trace.end_time().as_secs_f64().max(1e-9);
        let mut keys: Vec<_> = stats.per_key.iter().collect();
        keys.sort_unstable_by_key(|(key, _)| **key);
        let mut points = Vec::with_capacity(keys.len());
        for (_, ks) in keys {
            let total = ks.reads + ks.writes;
            if total == 0 {
                continue;
            }
            let lambda = total as f64 / span;
            let r = ks.reads as f64 / total as f64;
            if lambda <= 0.0 {
                continue;
            }
            let mut point = WorkloadPoint::new(lambda, r);
            point.size = ObjectSize { key: key_size, value: 512 };
            points.push((point, ks.reads));
        }
        (points, span, stats.reads as f64)
    }

    fn aggregate<F>(trace: &Trace, cost: &CostModel, t: f64, key_size: u32, f: F) -> TheoryPoint
    where
        F: Fn(&WorkloadPoint, &CostModel, f64, f64) -> model::PolicyCosts,
    {
        let (points, span, total_reads) = per_key_points(trace, key_size);
        let mut cf = 0.0;
        let mut cs = 0.0;
        let mut useful = 0.0;
        for (point, reads) in &points {
            let pc = f(point, cost, t, span);
            cf += pc.cf;
            cs += pc.cs;
            useful += *reads as f64 * cost.hit_cost(point.size);
        }
        TheoryPoint {
            cf_normalized: if useful > 0.0 { cf / useful } else { 0.0 },
            cs_normalized: if total_reads > 0.0 { cs / total_reads } else { 0.0 },
        }
    }

    /// TTL-expiry theory curve point.
    pub fn ttl_expiry(trace: &Trace, cost: &CostModel, t: f64, key_size: u32) -> TheoryPoint {
        aggregate(trace, cost, t, key_size, model::ttl_expiry)
    }

    /// TTL-polling theory curve point.
    pub fn ttl_polling(trace: &Trace, cost: &CostModel, t: f64, key_size: u32) -> TheoryPoint {
        aggregate(trace, cost, t, key_size, model::ttl_polling)
    }

    /// Always-invalidate theory point.
    pub fn invalidate(trace: &Trace, cost: &CostModel, t: f64, key_size: u32) -> TheoryPoint {
        aggregate(trace, cost, t, key_size, model::always_invalidate)
    }

    /// Always-update theory point.
    pub fn update(trace: &Trace, cost: &CostModel, t: f64, key_size: u32) -> TheoryPoint {
        aggregate(trace, cost, t, key_size, model::always_update)
    }

    /// Adaptive (per-key best arm) theory point.
    pub fn adaptive(trace: &Trace, cost: &CostModel, t: f64, key_size: u32) -> TheoryPoint {
        aggregate(trace, cost, t, key_size, model::adaptive)
    }
}

/// The staleness-bound sweep used by Figures 2 and 3 (log-spaced 0.5 s →
/// 200 s; the paper's x-axis spans 10⁰…10² s).
pub fn staleness_sweep() -> Vec<f64> {
    vec![0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fresca_workload::WorkloadGen;

    #[test]
    fn workload_presets_have_expected_mixes() {
        let tr = workloads::poisson().generate(1);
        let stats = TraceStats::compute(&tr);
        assert!((stats.read_ratio() - 0.9).abs() < 0.01);
        let tr = workloads::meta_like().generate(1);
        let stats = TraceStats::compute(&tr);
        assert!(stats.read_ratio() > 0.95);
    }

    #[test]
    fn theory_ttl_polling_scales_inverse_t() {
        let tr = workloads::poisson().generate(2);
        let cost = CostModel::default();
        let a = theory::ttl_polling(&tr, &cost, 1.0, 16);
        let b = theory::ttl_polling(&tr, &cost, 2.0, 16);
        assert!((a.cf_normalized / b.cf_normalized - 2.0).abs() < 1e-6);
        assert_eq!(a.cs_normalized, 0.0);
    }

    #[test]
    fn theory_points_are_bit_identical_across_calls() {
        let tr = workloads::poisson_mix().generate(3);
        let cost = CostModel::default();
        type Curve = fn(&Trace, &CostModel, f64, u32) -> TheoryPoint;
        let curves: [Curve; 5] = [
            theory::ttl_expiry,
            theory::ttl_polling,
            theory::invalidate,
            theory::update,
            theory::adaptive,
        ];
        for curve in curves {
            for t in [0.5, 10.0] {
                let (a, b) = (curve(&tr, &cost, t, 16), curve(&tr, &cost, t, 16));
                assert_eq!(a.cf_normalized.to_bits(), b.cf_normalized.to_bits(), "t={t}");
                assert_eq!(a.cs_normalized.to_bits(), b.cs_normalized.to_bits(), "t={t}");
            }
        }
    }

    #[test]
    fn theory_orderings_hold_across_workloads() {
        let cost = CostModel::default();
        for (name, gen) in workloads::all() {
            let tr = gen.generate(workloads::SEED);
            for t in [1.0, 10.0] {
                let exp = theory::ttl_expiry(&tr, &cost, t, 16);
                let inv = theory::invalidate(&tr, &cost, t, 16);
                let upd = theory::update(&tr, &cost, t, 16);
                let poll = theory::ttl_polling(&tr, &cost, t, 16);
                assert!(
                    inv.cs_normalized <= exp.cs_normalized + 1e-12,
                    "{name} t={t}: invalidate C'_S must not exceed ttl-expiry"
                );
                assert!(
                    upd.cf_normalized <= poll.cf_normalized + 1e-12,
                    "{name} t={t}: update C'_F must not exceed ttl-polling"
                );
            }
        }
    }

    #[test]
    fn sweep_is_log_spaced_and_sorted() {
        let s = staleness_sweep();
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s[0] <= 1.0 && *s.last().unwrap() >= 100.0);
    }
}
