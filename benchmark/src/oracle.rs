//! Ground-truth freshness oracle for `push-refetch`.
//!
//! The node reports an `age` that resets on every push or refetch
//! install, so it cannot say when a served value was really superseded.
//! The oracle can: the n-th store write of a key stores a value of length
//! `oracle_len(n)`, so a served value's length names the write it came
//! from, and the writer's log says when write n+1 happened. A served
//! read's true staleness is `t_invoke − t_write(n+1)` when write n+1
//! preceded the invoke, else 0.

use crate::driver::ReadRec;
use crate::hist::Hist;
use crate::workload::FRESHNESS_TARGET_NS;

#[derive(Debug, Default)]
pub struct Verdict {
    /// Served reads judged.
    pub judged: u64,
    /// Reads staler than the freshness target: these count as failures.
    pub over_target: u64,
    /// Reads whose length matches no write made before they completed:
    /// the node served bytes nobody wrote. A correctness failure.
    pub unknown_version: u64,
    pub stale_p50_ms: f64,
    pub stale_p99_ms: f64,
}

/// `writes[key]` holds the instants (ns since the run's epoch) of that
/// key's writes, in order: index `i` is write `n = i + 1`. Each instant is
/// logged *before* the write is applied, so a reader can never observe
/// write n before `writes[key][n - 1]`.
pub fn judge(reads: &[ReadRec], writes: &[Vec<u64>]) -> Verdict {
    let mut v = Verdict::default();
    let mut hist = Hist::new();
    for r in reads {
        let times = writes.get(r.key as usize).map(Vec::as_slice).unwrap_or(&[]);
        let made = times.partition_point(|&t| t <= r.complete_ns) as u64;
        // The newest write made by completion whose length matches.
        let residue = (r.len as u64).wrapping_sub(64);
        let n =
            if residue >= 64 || residue > made { None } else { Some(made - (made - residue) % 64) };
        let Some(n) = n else {
            v.unknown_version += 1;
            continue;
        };
        v.judged += 1;
        // Write n+1 sits at index n.
        let stale_ns = match times.get(n as usize) {
            Some(&superseded) if superseded < r.invoke_ns => r.invoke_ns - superseded,
            _ => 0,
        };
        hist.record(stale_ns);
        v.over_target += (stale_ns > FRESHNESS_TARGET_NS) as u64;
    }
    v.stale_p50_ms = hist.quantile(0.5) / 1e6;
    v.stale_p99_ms = hist.quantile(0.99) / 1e6;
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::oracle_len;

    const MS: u64 = 1_000_000;

    fn read(key: u32, n: u32, invoke_ms: u64) -> ReadRec {
        ReadRec {
            key,
            len: oracle_len(n),
            invoke_ns: invoke_ms * MS,
            complete_ns: invoke_ms * MS + 50_000,
        }
    }

    #[test]
    fn staleness_runs_from_the_superseding_write() {
        // Key 1 written at 100 ms (n=1) and 300 ms (n=2).
        let writes = vec![vec![], vec![100 * MS, 300 * MS]];
        let reads = [
            read(1, 0, 50),  // never-written value, before any write: fresh
            read(1, 0, 150), // still the default 50 ms after write 1: stale 50 ms
            read(1, 1, 250), // write 1's value, not yet superseded: fresh
            read(1, 1, 600), // write 1's value 300 ms after write 2: over target
            read(1, 2, 700), // current
        ];
        let v = judge(&reads, &writes);
        assert_eq!((v.judged, v.over_target, v.unknown_version), (5, 1, 0));
        assert!(v.stale_p99_ms > 45.0, "{v:?}");
        assert_eq!(v.stale_p50_ms.round(), 0.0);
    }

    #[test]
    fn lengths_wrap_at_64_and_resolve_to_the_newest_match() {
        // 70 writes, 10 ms apart: n=66 has the same length as n=2.
        let times: Vec<u64> = (1..=70).map(|i| i * 10 * MS).collect();
        let writes = vec![vec![], times];
        // At 665 ms, 66 writes were made; length of n=66 (== n=2) means 66.
        let v = judge(&[read(1, 66, 665)], &writes);
        assert_eq!((v.judged, v.over_target), (1, 0));
        // At 25 ms only 2 writes exist, so the same length means n=2, and
        // a read of it at 400 ms is 370 ms behind write 3.
        let v = judge(&[read(1, 2, 25)], &writes);
        assert_eq!((v.judged, v.over_target), (1, 0));
        let mut late = read(1, 2, 400);
        late.complete_ns = 30 * MS; // (completion before invoke cannot happen; pins n=2)
        assert_eq!(judge(&[late], &writes).over_target, 1);
    }

    #[test]
    fn a_value_nobody_wrote_is_flagged() {
        let writes = vec![vec![], vec![100 * MS]];
        // Length of n=5 when only one write exists.
        let v = judge(&[read(1, 5, 200)], &writes);
        assert_eq!((v.judged, v.unknown_version), (0, 1));
        // Lengths outside the oracle's range.
        let odd = ReadRec { key: 1, len: 17, invoke_ns: 0, complete_ns: 0 };
        assert_eq!(judge(&[odd], &writes).unknown_version, 1);
    }
}
