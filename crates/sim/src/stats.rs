//! Counters, histograms and time series.
//!
//! The metric pipeline needs three things: monotonically increasing event
//! counts (messages sent, misses, …), latency-style distributions with
//! quantiles (sketch lookup cost, staleness age), and values sampled over
//! virtual time (instantaneous cost rate). All of them are plain values —
//! no atomics, no interior mutability — because the engines are
//! single-threaded by design (determinism) and cross-thread aggregation
//! happens by merging.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: &Counter) {
        self.0 += other.0;
    }
}

/// A log-bucketed histogram of non-negative `f64` samples.
///
/// Buckets are half-open ranges `[base^k, base^(k+1))` with a configurable
/// base (default 1.12 ⇒ ~2% worst-case relative quantile error, 400
/// buckets cover 12 orders of magnitude). This is the same trade HDR-style
/// histograms make, sized for simulation metrics rather than wire
/// transport.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    base_log: f64,
    min_value: f64,
    counts: Vec<u64>,
    underflow: u64,
    total: u64,
    sum: f64,
    max: f64,
    min_seen: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Histogram with base 1.12 and minimum resolvable value 1e-9.
    pub fn new() -> Self {
        Self::with_params(1.12, 1e-9, 480)
    }

    /// Histogram with explicit bucket growth factor, minimum resolvable
    /// value and bucket count.
    pub fn with_params(base: f64, min_value: f64, buckets: usize) -> Self {
        assert!(base > 1.0, "bucket base must exceed 1.0");
        assert!(min_value > 0.0, "min value must be positive");
        Histogram {
            base_log: base.ln(),
            min_value,
            counts: vec![0; buckets],
            underflow: 0,
            total: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
            min_seen: f64::INFINITY,
        }
    }

    fn bucket_of(&self, v: f64) -> Option<usize> {
        if v < self.min_value {
            return None;
        }
        let idx = ((v / self.min_value).ln() / self.base_log) as usize;
        Some(idx.min(self.counts.len() - 1))
    }

    /// Record a sample. Negative and non-finite samples are rejected with
    /// a panic: they always indicate a bug upstream.
    pub fn record(&mut self, v: f64) {
        assert!(v.is_finite() && v >= 0.0, "histogram sample must be finite and >= 0, got {v}");
        self.total += 1;
        self.sum += v;
        self.max = self.max.max(v);
        self.min_seen = self.min_seen.min(v);
        match self.bucket_of(v) {
            Some(i) => self.counts[i] += 1,
            None => self.underflow += 1,
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }

    /// Largest sample, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max)
    }

    /// Smallest sample, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min_seen)
    }

    /// Quantile `q` in `[0, 1]` (bucket upper bound, ≤ base relative
    /// error). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if seen >= rank {
            return Some(self.min_value);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = self.min_value * ((i as f64 + 1.0) * self.base_log).exp();
                return Some(upper.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Merge another histogram with identical parameters.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.counts.len(), other.counts.len(), "histogram shape mismatch");
        assert!((self.base_log - other.base_log).abs() < 1e-12, "histogram base mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min_seen = self.min_seen.min(other.min_seen);
    }
}

/// A value sampled against virtual time, with fixed-width aggregation
/// windows (mean per window). Used for cost-rate-over-time plots and for
/// the diurnal workload sanity checks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    window: SimDuration,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl TimeSeries {
    /// New series with the given aggregation window.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        TimeSeries { window, sums: Vec::new(), counts: Vec::new() }
    }

    /// Record `value` at virtual time `at`.
    pub fn record(&mut self, at: SimTime, value: f64) {
        let idx = at.interval_index(self.window) as usize;
        if idx >= self.sums.len() {
            self.sums.resize(idx + 1, 0.0);
            self.counts.resize(idx + 1, 0);
        }
        self.sums[idx] += value;
        self.counts[idx] += 1;
    }

    /// Aggregation window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Number of windows touched so far.
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }

    /// Mean value per window; empty windows yield `None` entries.
    pub fn means(&self) -> Vec<Option<f64>> {
        self.sums
            .iter()
            .zip(&self.counts)
            .map(|(&s, &c)| (c > 0).then(|| s / c as f64))
            .collect()
    }

    /// Sum per window.
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut d = Counter::new();
        d.add(10);
        c.merge(&d);
        assert_eq!(c.get(), 15);
    }

    #[test]
    fn histogram_mean_and_count() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean().unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(h.max(), Some(4.0));
        assert_eq!(h.min(), Some(1.0));
    }

    #[test]
    fn histogram_quantiles_within_relative_error() {
        let mut h = Histogram::new();
        for i in 1..=10_000 {
            h.record(i as f64 / 100.0); // 0.01 .. 100.0
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 / 50.0 - 1.0).abs() < 0.15, "p50 {p50}");
        assert!((p99 / 99.0 - 1.0).abs() < 0.15, "p99 {p99}");
        assert_eq!(h.quantile(1.0).unwrap(), 100.0);
    }

    #[test]
    fn histogram_underflow_bucket() {
        let mut h = Histogram::with_params(2.0, 1.0, 8);
        h.record(0.5);
        h.record(0.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.5), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn histogram_rejects_nan() {
        Histogram::new().record(f64::NAN);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1.0);
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn timeseries_windows() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(10));
        ts.record(SimTime::from_secs(1), 2.0);
        ts.record(SimTime::from_secs(5), 4.0);
        ts.record(SimTime::from_secs(25), 8.0);
        let means = ts.means();
        assert_eq!(means.len(), 3);
        assert_eq!(means[0], Some(3.0));
        assert_eq!(means[1], None);
        assert_eq!(means[2], Some(8.0));
    }
}
