//! Fixed log-bucket latency histogram: 64 sub-buckets per power of two
//! (≤ 1.6 % bucket width), values in nanoseconds, no allocation after
//! construction. Quantiles interpolate linearly inside the bucket, so a
//! reported percentile carries all the digits the samples support.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^MAX_EXP ns (~18 min) land in the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) * SUB as usize;

pub struct Hist {
    counts: Vec<u32>,
    total: u64,
}

/// Bucket index of `v`: values below `SUB` map one-to-one; above, the top
/// `SUB_BITS` bits after the leading one select the sub-bucket.
fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
    (((exp - SUB_BITS + 1) as u64) * SUB + sub) as usize
}

/// Inclusive lower edge and width of bucket `i`.
fn edges(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let octave = i / SUB - 1;
    let sub = i % SUB;
    ((SUB + sub) << octave, 1 << octave)
}

impl Default for Hist {
    fn default() -> Self {
        Hist { counts: vec![0; BUCKETS], total: 0 }
    }
}

impl Hist {
    pub fn new() -> Self {
        Hist::default()
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * (self.total as f64 - 1.0);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c as u64) as f64 > rank {
                let (lo, width) = edges(i);
                let inside = (rank - below as f64 + 0.5) / c as f64;
                return lo as f64 + inside * width as f64;
            }
            below += c as u64;
        }
        edges(BUCKETS - 1).0 as f64
    }
}

/// Median of a list of measurements (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range() {
        let mut prev_end = 0u64;
        for i in 0..BUCKETS {
            let (lo, width) = edges(i);
            assert_eq!(lo, prev_end, "bucket {i} starts where the last ended");
            assert_eq!(bucket(lo), i);
            assert_eq!(bucket(lo + width - 1), i);
            prev_end = lo + width;
        }
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_a_uniform_ramp() {
        let mut h = Hist::new();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for q in [0.5, 0.9, 0.99] {
            let want = q * 1_000_000.0;
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.02, "q{q}: {got} vs {want}");
        }
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
