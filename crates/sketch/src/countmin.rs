//! Count-min sketch and the Count-min-backed `E[W]` estimator.

use crate::EwEstimator;
use fresca_sim::rng::mix64;

/// A Count-min sketch (Cormode & Muthukrishnan 2005): a `depth × width`
/// array of counters; each key hashes to one column per row; point
/// queries return the minimum over rows. Estimates are biased *upwards*
/// by collisions: `query(k) ≥ true_count(k)`, with error `≤ εN` at
/// probability `1-δ` for `width = ⌈e/ε⌉`, `depth = ⌈ln(1/δ)⌉`.
#[derive(Debug, Clone)]
pub struct CountMin {
    width: usize,
    depth: usize,
    counters: Vec<u64>, // row-major depth × width
    /// Per-row hash seeds, derived deterministically.
    seeds: Vec<u64>,
    /// Conservative update: only bump counters that equal the current
    /// minimum. Cuts over-estimation roughly in half on skewed streams at
    /// the cost of one extra pass over rows.
    conservative: bool,
}

impl CountMin {
    /// New sketch with explicit geometry.
    pub fn new(width: usize, depth: usize) -> Self {
        assert!(width >= 1 && depth >= 1, "sketch must have positive geometry");
        CountMin {
            width,
            depth,
            counters: vec![0; width * depth],
            seeds: (0..depth as u64).map(|i| mix64(0xC0FFEE ^ i)).collect(),
            conservative: false,
        }
    }

    /// New sketch sized for error `epsilon` (relative to total count) with
    /// failure probability `delta`.
    pub fn with_error(epsilon: f64, delta: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta in (0,1)");
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil() as usize;
        Self::new(width.max(1), depth.max(1))
    }

    /// Enable conservative update.
    pub fn conservative(mut self) -> Self {
        self.conservative = true;
        self
    }

    /// Sketch width (columns per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sketch depth (number of rows).
    pub fn depth(&self) -> usize {
        self.depth
    }

    #[inline]
    fn index(&self, row: usize, key: u64) -> usize {
        let h = mix64(key ^ self.seeds[row]);
        row * self.width + (h % self.width as u64) as usize
    }

    /// Add `count` occurrences of `key`.
    pub fn add(&mut self, key: u64, count: u64) {
        if self.conservative {
            let current = self.query(key);
            let target = current + count;
            for row in 0..self.depth {
                let i = self.index(row, key);
                if self.counters[i] < target {
                    self.counters[i] = target;
                }
            }
        } else {
            for row in 0..self.depth {
                let i = self.index(row, key);
                self.counters[i] += count;
            }
        }
    }

    /// Point query: an upper bound on the true count of `key`.
    pub fn query(&self, key: u64) -> u64 {
        (0..self.depth).map(|row| self.counters[self.index(row, key)]).min().unwrap_or(0)
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.counters.len() * std::mem::size_of::<u64>()
            + self.seeds.len() * std::mem::size_of::<u64>()
    }
}

/// `E[W]` estimation from two Count-min sketches: per-key read and write
/// counts, `E\[W\] ≈ writes / reads` (paper §3.3: "E\[W\] can be estimated by
/// dividing the number of writes by the number of reads").
///
/// Two systematic differences from the exact tracker, both inherent to
/// the sketch design and part of what Figure 6b measures:
///
/// * collisions bias both counts upward;
/// * the ratio of totals is the *unconditional* mean writes-per-read
///   (`(1−r)/r` for a Bernoulli mix), whereas the exact counters measure
///   the mean conditioned on at least one write (`1/r`) — the sketch
///   cannot see request adjacency, only totals. Near the decision
///   threshold this can flip choices ("Count-min sketch can sometimes
///   make wrong predictions").
#[derive(Debug, Clone)]
pub struct CountMinEw {
    reads: CountMin,
    writes: CountMin,
}

impl CountMinEw {
    /// New estimator with the given per-sketch geometry.
    pub fn new(width: usize, depth: usize) -> Self {
        CountMinEw { reads: CountMin::new(width, depth), writes: CountMin::new(width, depth) }
    }

    /// New estimator sized by error targets (see [`CountMin::with_error`]).
    pub fn with_error(epsilon: f64, delta: f64) -> Self {
        CountMinEw {
            reads: CountMin::with_error(epsilon, delta),
            writes: CountMin::with_error(epsilon, delta),
        }
    }

    /// Estimated read count for a key.
    pub fn read_count(&self, key: u64) -> u64 {
        self.reads.query(key)
    }

    /// Estimated write count for a key.
    pub fn write_count(&self, key: u64) -> u64 {
        self.writes.query(key)
    }
}

impl EwEstimator for CountMinEw {
    fn record_read(&mut self, key: u64) {
        self.reads.add(key, 1);
    }

    fn record_write(&mut self, key: u64) {
        self.writes.add(key, 1);
    }

    fn estimate(&self, key: u64) -> Option<f64> {
        let r = self.reads.query(key);
        let w = self.writes.query(key);
        if r == 0 && w == 0 {
            return None;
        }
        if r == 0 {
            // Writes but (apparently) no reads: E[W] is effectively
            // unbounded; report the write count as a finite proxy so the
            // decision rule lands on "invalidate".
            return Some(w as f64);
        }
        Some(w as f64 / r as f64)
    }

    fn memory_bytes(&self) -> usize {
        self.reads.memory_bytes() + self.writes.memory_bytes()
    }

    fn name(&self) -> &'static str {
        "count-min"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_never_underestimates() {
        let mut cm = CountMin::new(64, 4);
        for k in 0..1000u64 {
            cm.add(k, k % 7 + 1);
        }
        for k in 0..1000u64 {
            assert!(cm.query(k) > k % 7, "underestimate for {k}");
        }
    }

    #[test]
    fn exact_when_no_collisions() {
        let mut cm = CountMin::new(4096, 4);
        for k in 0..10u64 {
            cm.add(k, 5);
        }
        for k in 0..10u64 {
            assert_eq!(cm.query(k), 5);
        }
        assert_eq!(cm.query(999), 0);
    }

    #[test]
    fn conservative_update_tighter_than_plain() {
        let mut plain = CountMin::new(16, 2);
        let mut cons = CountMin::new(16, 2).conservative();
        // Heavy skew: key 0 hot, many cold keys colliding.
        for _ in 0..1000 {
            plain.add(0, 1);
            cons.add(0, 1);
        }
        for k in 1..200u64 {
            plain.add(k, 1);
            cons.add(k, 1);
        }
        let over_plain: u64 = (1..200u64).map(|k| plain.query(k) - 1).sum();
        let over_cons: u64 = (1..200u64).map(|k| cons.query(k) - 1).sum();
        assert!(over_cons <= over_plain, "conservative {over_cons} vs plain {over_plain}");
    }

    #[test]
    fn with_error_sizes_geometry() {
        let cm = CountMin::with_error(0.01, 0.01);
        assert!(cm.width() >= 272); // e/0.01 ≈ 271.8
        assert!(cm.depth() >= 5); // ln(100) ≈ 4.6
    }

    #[test]
    fn ew_ratio_estimation() {
        let mut e = CountMinEw::new(1024, 4);
        // Key 5: 3 writes per read on average.
        for _ in 0..300 {
            e.record_write(5);
        }
        for _ in 0..100 {
            e.record_read(5);
        }
        let est = e.estimate(5).unwrap();
        assert!((est - 3.0).abs() < 0.2, "estimate {est}");
    }

    #[test]
    fn ew_unseen_key_none() {
        let e = CountMinEw::new(64, 2);
        assert!(e.estimate(42).is_none());
    }

    #[test]
    fn ew_write_only_key_reports_large() {
        let mut e = CountMinEw::new(1024, 4);
        for _ in 0..50 {
            e.record_write(7);
        }
        let est = e.estimate(7).unwrap();
        assert!(est >= 50.0, "write-only key must look invalidate-worthy, got {est}");
    }

    #[test]
    fn memory_is_fixed() {
        let mut e = CountMinEw::new(256, 4);
        let m0 = e.memory_bytes();
        for k in 0..100_000u64 {
            e.record_write(k);
        }
        assert_eq!(e.memory_bytes(), m0, "sketch memory must not grow with keys");
    }

    #[test]
    #[should_panic(expected = "positive geometry")]
    fn zero_width_rejected() {
        CountMin::new(0, 2);
    }
}
