//! # fresca-sketch — `E[W]` estimation (paper §3.3)
//!
//! The adaptive policy decides between *update* and *invalidate* per key
//! using `E[W]`, the expected number of writes between consecutive reads
//! of that key: **update iff `E[W]·c_u < c_m + c_i`**. This crate provides
//! the three tracking strategies the paper evaluates in Figure 6:
//!
//! * [`ExactEw`] — the paper's exact three-counter scheme: per key, `C1`
//!   accumulates `E[W]` samples, `C2` counts samples, `C3` counts
//!   consecutive writes since the last read. `E[W] = C1 / C2`. Memory
//!   grows linearly with the number of keys.
//! * [`CountMinEw`] — two Count-min sketches (Cormode & Muthukrishnan)
//!   approximate per-key read and write counts; `E[W] ≈ writes/reads`.
//!   Sub-linear memory, but hash collisions inflate counts and can flip
//!   decisions.
//! * [`TopKEw`] — the paper's proposed hybrid: exact tracking for the
//!   Top-K hottest keys (with promotion/demotion) and Count-min for the
//!   cold tail. Hot keys — the ones that dominate cost — get exact
//!   decisions while memory stays bounded.
//!
//! All estimators implement [`EwEstimator`], are fed the full request
//! stream (the paper's Figure 4 places the policy at the load balancer /
//! proxy, which observes both reads and writes), and report their exact
//! heap footprint for the Figure 6c storage comparison.

#![forbid(unsafe_code)]

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod countmin;
pub mod eval;
pub mod exact;
pub mod topk;

pub use countmin::{CountMin, CountMinEw};
pub use eval::{AccuracyReport, DecisionEvaluator};
pub use exact::ExactEw;
pub use topk::TopKEw;

/// An online estimator of `E[W]` (expected writes between reads) per key.
///
/// Estimators observe the request stream via [`EwEstimator::record_read`] /
/// [`EwEstimator::record_write`] and answer point queries by shared
/// reference.
pub trait EwEstimator {
    /// Observe a read of `key`.
    fn record_read(&mut self, key: u64);

    /// Observe a write of `key`.
    fn record_write(&mut self, key: u64);

    /// Estimate `E[W]` for `key`. `None` means "no basis for an estimate
    /// yet" (callers fall back to a configurable default decision).
    fn estimate(&self, key: u64) -> Option<f64>;

    /// Approximate heap footprint in bytes (for Figure 6c).
    fn memory_bytes(&self) -> usize;

    /// Short name used in reports ("exact", "count-min", "top-k").
    fn name(&self) -> &'static str;
}

impl<T: EwEstimator + ?Sized> EwEstimator for Box<T> {
    fn record_read(&mut self, key: u64) {
        (**self).record_read(key)
    }
    fn record_write(&mut self, key: u64) {
        (**self).record_write(key)
    }
    fn estimate(&self, key: u64) -> Option<f64> {
        (**self).estimate(key)
    }
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

