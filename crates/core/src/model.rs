//! The analytic model (§2 and §3.1).
//!
//! Per object, request arrivals are Poisson with rate `λ`; each request is
//! independently a read with probability `r`. Over an interval of length
//! `T`:
//!
//! ```text
//! P_R(T) = 1 − e^(−λ·r·T)          (≥1 read in the interval)
//! P_W(T) = 1 − e^(−λ·(1−r)·T)      (≥1 write in the interval)
//! ```
//!
//! Closed-form freshness cost `C_F` and staleness cost `C_S` over a
//! horizon `T'`, per policy (Table in DESIGN.md §1):
//!
//! * **TTL-expiry** — `C_S = (T'/T)·P_R`, `C_F = C_S·c_m`.
//! * **TTL-polling** — `C_S = 0`, `C_F = (T'/T)·c_m`.
//! * **Update** — `C_S = 0`, `C_F = (T'/T)·P_W·c_u`.
//! * **Invalidate** — with backend tracking of invalidated keys, the
//!   steady-state probability that a key is invalidated at an interval
//!   boundary is `p = P_W/(P_R + P_W)`, giving
//!   `C_F = (T'/T)·(P_R·P_W/(P_R+P_W))·(c_m + c_i)` and
//!   `C_S = (T'/T)·P_R·P_W/(P_R+P_W)`.
//!
//! *Transcription note*: the paper prints the steady-state recurrence as
//! `p = p·P_R + (1−p)(1−P_W)`, which is inconsistent with its own solution
//! `p = P_W/(P_R+P_W)`. The consistent recurrence — invalidated stays
//! invalidated unless read, valid becomes invalidated on a write —
//! is `p = p·(1−P_R) + (1−p)·P_W`, whose fixed point *is*
//! `P_W/(P_R+P_W)`; that is what we implement (verified by
//! `steady_state_matches_fixed_point`).

use crate::cost::{CostModel, ObjectSize};
use serde::{Deserialize, Serialize};

/// A per-object workload operating point for the analytic model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadPoint {
    /// Poisson arrival rate for this object, requests/second.
    pub lambda: f64,
    /// Probability a request is a read.
    pub read_ratio: f64,
    /// Object sizes (for byte-scaled cost models).
    pub size: ObjectSize,
}

impl WorkloadPoint {
    /// New operating point with default sizes.
    pub fn new(lambda: f64, read_ratio: f64) -> Self {
        assert!(lambda > 0.0, "lambda must be positive");
        assert!((0.0..=1.0).contains(&read_ratio), "read ratio in [0,1]");
        WorkloadPoint { lambda, read_ratio, size: ObjectSize { key: 16, value: 512 } }
    }

    /// `P_R(T)`: probability of at least one read in an interval of `t`
    /// seconds.
    pub fn p_read(&self, t: f64) -> f64 {
        1.0 - (-self.lambda * self.read_ratio * t).exp()
    }

    /// `P_W(T)`: probability of at least one write in an interval of `t`
    /// seconds.
    pub fn p_write(&self, t: f64) -> f64 {
        1.0 - (-self.lambda * (1.0 - self.read_ratio) * t).exp()
    }

    /// `E[W]` as the paper's three-counter scheme measures it: the mean
    /// length of a *non-empty* write run between consecutive reads. For a
    /// Bernoulli mix the run length is geometric, so `E[W] = 1/r` — which
    /// is what makes the pragmatic rule `E[W]·c_u < c_m + c_i` coincide
    /// with the exact `T→0` rule `c_u < r(c_m + c_i)`.
    pub fn expected_writes_between_reads(&self) -> f64 {
        if self.read_ratio == 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.read_ratio
        }
    }
}

/// Closed-form cost estimates for one object over a horizon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyCosts {
    /// Freshness (throughput) cost in cost units.
    pub cf: f64,
    /// Staleness cost: expected number of stale-data misses.
    pub cs: f64,
}

/// Steady-state probability that the object is invalidated at an interval
/// boundary under the invalidation policy (with backend tracking).
pub fn invalidated_steady_state(point: &WorkloadPoint, t: f64) -> f64 {
    let pr = point.p_read(t);
    let pw = point.p_write(t);
    if pr + pw == 0.0 {
        0.0
    } else {
        pw / (pr + pw)
    }
}

/// TTL-expiry costs over horizon `t_prime` with staleness bound `t`
/// (both in seconds).
pub fn ttl_expiry(point: &WorkloadPoint, cost: &CostModel, t: f64, t_prime: f64) -> PolicyCosts {
    assert!(t > 0.0 && t_prime > 0.0);
    let intervals = t_prime / t;
    let cs = intervals * point.p_read(t);
    PolicyCosts { cf: cs * cost.miss_cost(point.size), cs }
}

/// TTL-polling costs: zero staleness, one re-fetch per interval.
pub fn ttl_polling(point: &WorkloadPoint, cost: &CostModel, t: f64, t_prime: f64) -> PolicyCosts {
    assert!(t > 0.0 && t_prime > 0.0);
    let intervals = t_prime / t;
    PolicyCosts { cf: intervals * cost.miss_cost(point.size), cs: 0.0 }
}

/// Always-update costs: one update per interval that saw a write.
pub fn always_update(point: &WorkloadPoint, cost: &CostModel, t: f64, t_prime: f64) -> PolicyCosts {
    assert!(t > 0.0 && t_prime > 0.0);
    let intervals = t_prime / t;
    PolicyCosts { cf: intervals * point.p_write(t) * cost.update_cost(point.size), cs: 0.0 }
}

/// Always-invalidate costs (§3.1): with tracking, per interval the
/// expected cost is `(1−p)·P_W·c_i + p·P_R·c_m`, which simplifies at the
/// fixed point to `P_R·P_W/(P_R+P_W)·(c_m+c_i)`; the same coefficient
/// gives the expected stale misses.
pub fn always_invalidate(
    point: &WorkloadPoint,
    cost: &CostModel,
    t: f64,
    t_prime: f64,
) -> PolicyCosts {
    assert!(t > 0.0 && t_prime > 0.0);
    let intervals = t_prime / t;
    let pr = point.p_read(t);
    let pw = point.p_write(t);
    let coeff = if pr + pw == 0.0 { 0.0 } else { pr * pw / (pr + pw) };
    PolicyCosts {
        cf: intervals * coeff * (cost.miss_cost(point.size) + cost.invalidate_cost(point.size)),
        cs: intervals * coeff,
    }
}

/// The adaptive policy's model-level cost: per object, the better of
/// update and invalidate according to the §3.2 rule.
pub fn adaptive(point: &WorkloadPoint, cost: &CostModel, t: f64, t_prime: f64) -> PolicyCosts {
    if crate::policy::rules::should_update_exact(point, cost, t) {
        always_update(point, cost, t, t_prime)
    } else {
        always_invalidate(point, cost, t, t_prime)
    }
}

/// All four baseline policies at once (used by the figure harnesses).
pub fn policy_costs(
    point: &WorkloadPoint,
    cost: &CostModel,
    t: f64,
    t_prime: f64,
) -> [(&'static str, PolicyCosts); 5] {
    [
        ("ttl-expiry", ttl_expiry(point, cost, t, t_prime)),
        ("ttl-polling", ttl_polling(point, cost, t, t_prime)),
        ("invalidate", always_invalidate(point, cost, t, t_prime)),
        ("update", always_update(point, cost, t, t_prime)),
        ("adaptive", adaptive(point, cost, t, t_prime)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> CostModel {
        CostModel::unit(1.0, 0.1, 0.5, 1.0)
    }

    #[test]
    fn probabilities_are_complementary_rates() {
        let p = WorkloadPoint::new(2.0, 0.75);
        // λr = 1.5, λ(1−r) = 0.5.
        assert!((p.p_read(1.0) - (1.0 - (-1.5f64).exp())).abs() < 1e-12);
        assert!((p.p_write(1.0) - (1.0 - (-0.5f64).exp())).abs() < 1e-12);
        assert!(p.p_read(0.0).abs() < 1e-12);
    }

    /// The paper's §3.1 worked example: λ = 1, r = 0.9, T = T' (= 0.1s):
    /// invalidation C_F = 0.00892·(c_i + c_m); TTL-expiry C_F = 0.086·c_m.
    #[test]
    fn paper_worked_example() {
        let point = WorkloadPoint::new(1.0, 0.9);
        let t = 0.1;
        // Use unit costs c_m = c_i = 1 to read off the coefficients.
        let cost = CostModel::Unit { c_m: 1.0, c_i: 1.0, c_u: 0.5, c_h: 1.0 };
        let inv = always_invalidate(&point, &cost, t, t);
        // C_F = coeff · (c_m + c_i) = 0.00892 · 2.
        let coeff = inv.cf / 2.0;
        assert!((coeff - 0.00892).abs() < 2e-5, "invalidation coeff {coeff}");
        let ttl = ttl_expiry(&point, &cost, t, t);
        assert!((ttl.cf - 0.086).abs() < 5e-4, "ttl-expiry coeff {}", ttl.cf);
    }

    #[test]
    fn steady_state_matches_fixed_point() {
        // p must satisfy p = p(1−P_R) + (1−p)P_W (see module docs on the
        // paper's transcription error).
        let point = WorkloadPoint::new(3.0, 0.7);
        for t in [0.01, 0.1, 1.0, 10.0] {
            let p = invalidated_steady_state(&point, t);
            let pr = point.p_read(t);
            let pw = point.p_write(t);
            let rhs = p * (1.0 - pr) + (1.0 - p) * pw;
            assert!((p - rhs).abs() < 1e-12, "t={t}: p={p} rhs={rhs}");
        }
    }

    #[test]
    fn steady_state_by_monte_carlo() {
        // Simulate the two-state chain directly and compare.
        use rand::Rng;
        let point = WorkloadPoint::new(2.0, 0.8);
        let t = 0.5;
        let (pr, pw) = (point.p_read(t), point.p_write(t));
        let mut rng = fresca_sim::Xoshiro256PlusPlus::new(77);
        let mut invalidated = false;
        let mut count = 0u64;
        let n = 200_000;
        for _ in 0..n {
            if invalidated {
                if rng.gen::<f64>() < pr {
                    invalidated = false;
                }
            } else if rng.gen::<f64>() < pw {
                invalidated = true;
            }
            count += invalidated as u64;
        }
        let empirical = count as f64 / n as f64;
        let predicted = invalidated_steady_state(&point, t);
        assert!((empirical - predicted).abs() < 0.01, "{empirical} vs {predicted}");
    }

    #[test]
    fn ttl_costs_inverse_in_t() {
        let point = WorkloadPoint::new(10.0, 0.9);
        let cost = unit();
        // With λrT ≫ 1, P_R ≈ 1 and C_S ≈ T'/T: halving T doubles cost.
        let a = ttl_expiry(&point, &cost, 2.0, 1000.0);
        let b = ttl_expiry(&point, &cost, 1.0, 1000.0);
        assert!((b.cs / a.cs - 2.0).abs() < 0.05, "{} vs {}", b.cs, a.cs);
        let ap = ttl_polling(&point, &cost, 2.0, 1000.0);
        let bp = ttl_polling(&point, &cost, 1.0, 1000.0);
        assert!((bp.cf / ap.cf - 2.0).abs() < 1e-9);
    }

    #[test]
    fn invalidate_cs_strictly_below_ttl_expiry() {
        // §3.1: "C_S for invalidates is strictly lower than C_S for
        // TTL-expiry" whenever there are any writes.
        let cost = unit();
        for r in [0.5, 0.9, 0.99] {
            for t in [0.1, 1.0, 10.0] {
                let point = WorkloadPoint::new(5.0, r);
                let inv = always_invalidate(&point, &cost, t, 1000.0);
                let ttl = ttl_expiry(&point, &cost, t, 1000.0);
                assert!(inv.cs < ttl.cs, "r={r} t={t}: {} !< {}", inv.cs, ttl.cs);
            }
        }
    }

    #[test]
    fn update_cf_below_ttl_polling() {
        // §3.1: updates beat polling since c_u < c_m and P_W < 1.
        let cost = unit();
        let point = WorkloadPoint::new(5.0, 0.9);
        for t in [0.01, 0.1, 1.0, 10.0] {
            let up = always_update(&point, &cost, t, 1000.0);
            let poll = ttl_polling(&point, &cost, t, 1000.0);
            assert!(up.cf < poll.cf, "t={t}");
            assert_eq!(up.cs, 0.0);
            assert_eq!(poll.cs, 0.0);
        }
    }

    #[test]
    fn adaptive_picks_the_cheaper_arm() {
        let cost = unit();
        let t = 0.05; // T → 0 regime
        // Read-heavy: update should win; write-heavy: invalidate.
        let read_heavy = WorkloadPoint::new(5.0, 0.95);
        let write_heavy = WorkloadPoint::new(5.0, 0.05);
        let a = adaptive(&read_heavy, &cost, t, 1000.0);
        assert_eq!(a, always_update(&read_heavy, &cost, t, 1000.0));
        let b = adaptive(&write_heavy, &cost, t, 1000.0);
        assert_eq!(b, always_invalidate(&write_heavy, &cost, t, 1000.0));
        // And adaptive is never worse than either arm on C_F.
        for point in [read_heavy, write_heavy] {
            let ad = adaptive(&point, &cost, t, 1000.0);
            let up = always_update(&point, &cost, t, 1000.0);
            let inv = always_invalidate(&point, &cost, t, 1000.0);
            assert!(ad.cf <= up.cf + 1e-12);
            assert!(ad.cf <= inv.cf + 1e-12);
        }
    }

    #[test]
    fn extreme_ratios_are_stable() {
        let cost = unit();
        let all_reads = WorkloadPoint::new(1.0, 1.0);
        let inv = always_invalidate(&all_reads, &cost, 1.0, 100.0);
        assert_eq!(inv.cs, 0.0, "no writes → never invalidated");
        assert_eq!(inv.cf, 0.0);
        let all_writes = WorkloadPoint::new(1.0, 0.0);
        let inv = always_invalidate(&all_writes, &cost, 1.0, 100.0);
        assert_eq!(inv.cs, 0.0, "no reads → no stale misses");
        let up = always_update(&all_writes, &cost, 1.0, 100.0);
        assert!(up.cf > 0.0, "updates still flow for write-only keys");
    }
}
