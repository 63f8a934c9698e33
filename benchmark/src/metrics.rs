//! The metric catalogue: names, units, direction, and — for end-to-end
//! metrics — the bound by which each may worsen before a change counts as
//! a regression. `BENCHMARK.json` mirrors these tables; a test keeps the
//! two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// What a user of one node sees. Reported by every workload, never 0.
/// The speed bounds are the widest a bound may be (25 %): the 2-vCPU
/// sandbox's own speed wanders — a single-threaded slab replay reads
/// anywhere from 37 to 98 ns/op on identical runs minutes apart — and
/// `hot-small`, which keeps both CPUs busy, spreads by 5–12 % (quartile
/// distance ÷ median over ten seeds; 18 % in a bad hour) against 2–5 % for
/// the others.
pub const END_TO_END: [Def; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("ops_per_cpu_s", "1/s", Higher, 0.25),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("hit_share", "share", Higher, 0.02),
    e2e("rss_mib", "MiB", Lower, 0.15),
];

/// Single-layer metrics, from the traced run and the layer replay.
pub const PER_LAYER: [Def; 60] = [
    layer("net.codec.encode_ns", "ns", Lower),
    layer("net.codec.decode_ns", "ns", Lower),
    layer("net.codec.decode_mib_s", "MiB/s", Higher),
    layer("net.frame_io.ns_per_frame", "ns", Lower),
    layer("net.frame_io.writes_per_frame", "count", Lower),
    layer("net.frame_io.reads_per_frame", "count", Lower),
    layer("net.pin.repin_ns", "ns", Lower),
    layer("cache.slab.get_ns", "ns", Lower),
    layer("cache.slab.insert_ns", "ns", Lower),
    layer("cache.slab.invalidate_ns", "ns", Lower),
    layer("cache.slab.update_ns", "ns", Lower),
    layer("cache.slab.hit_share", "share", Higher),
    layer("cache.slab.evictions_per_kop", "count", Lower),
    layer("cache.refetch.park_ns", "ns", Lower),
    layer("serve.busy_share", "share", Higher),
    layer("serve.wakeups_per_kop", "count", Lower),
    layer("serve.forward_share", "share", Lower),
    layer("serve.refetch_share", "share", Lower),
    layer("serve.coalesced_share", "share", Higher),
    layer("serve.origin_errors", "count", Lower),
    layer("serve.slab_fill", "share", Higher),
    layer("serve.rtt1_p50_us", "us", Lower),
    layer("serve.unattributed_us_per_op", "us", Lower),
    layer("serve.client.submit_ns", "ns", Lower),
    layer("serve.client.complete_ns", "ns", Lower),
    layer("serve.ring.lookup_ns", "ns", Lower),
    layer("serve.push.write_ns", "ns", Lower),
    layer("serve.push.flush_ms_p50", "ms", Lower),
    layer("serve.push.flush_ms_p99", "ms", Lower),
    layer("serve.push.keys_per_batch", "count", Higher),
    layer("serve.push.update_share", "share", Higher),
    layer("serve.push.suppressed_share", "share", Higher),
    layer("serve.origin.fetch_us_p50", "us", Lower),
    layer("serve.origin.decide_ns", "ns", Lower),
    layer("store.write_ns", "ns", Lower),
    layer("store.tracker_ns", "ns", Lower),
    layer("sketch.observe_ns", "ns", Lower),
    layer("sketch.estimate_ns", "ns", Lower),
    layer("core.policy.decide_ns", "ns", Lower),
    layer("oracle.stale_p50_ms", "ms", Lower),
    layer("oracle.stale_p99_ms", "ms", Lower),
    layer("oracle.over_bound", "count", Lower),
    layer("paced.p99_us_lo", "us", Lower),
    layer("paced.p99_us_hi", "us", Lower),
    layer("paced.max_rate_ok", "1/s", Higher),
    layer("gen.late_share", "share", Lower),
    layer("gen.cpu_share", "share", Lower),
    layer("gen.wait_share", "share", Higher),
    layer("workload.gen_ns_per_op", "ns", Lower),
    layer("trace.overhead_share", "share", Lower),
    // The paper's two costs. They are exactly 0 on the workloads without
    // an origin or a store pusher, and a bounded end-to-end metric must
    // never be 0, so they are reported here; `hit_share` carries the
    // staleness cost into the bounded list (1 − hit_share is the share of
    // reads that went to the backend).
    layer("origin_fetches_per_kread", "count", Lower),
    layer("push_bytes_per_write", "B", Lower),
    layer("failed_share", "share", Lower),
    // Sample counts behind the latency percentiles.
    layer("latency.samples", "count", Higher),
    layer("latency.windows", "count", Higher),
    // The tail (medians of per-second p90s and p99s, traced run) is too
    // unsteady on a 2-vCPU sandbox for a bound of at most 25 %: identical
    // runs differ by 15-30 %. So it is reported here, unbounded, and the
    // bounded latency metric is `p50_us`.
    layer("latency.p90_us", "us", Lower),
    layer("latency.p99_us", "us", Lower),
    // The traced window's throughput, the other half of the overhead.
    layer("traced.ops_per_s", "1/s", Higher),
    // 1e6 ÷ `ops_per_cpu_s`, of the traced window: the node's CPU time per
    // op, which `serve.attributed_us_per_op` and `.unattributed_us_per_op`
    // split. The bounded form is the reciprocal because a bound is a share
    // of the parent's median: the sandbox slowing down by a quarter — which
    // it does — reads +25 % here and −20 % there.
    layer("cpu_us_per_op", "us", Lower),
    layer("serve.attributed_us_per_op", "us", Lower),
];

/// Reported values, in catalogue order.
pub struct Values {
    defs: &'static [Def],
    values: Vec<Option<f64>>,
}

impl Values {
    pub fn new(defs: &'static [Def]) -> Self {
        Values { defs, values: vec![None; defs.len()] }
    }

    /// Set a metric; naming one outside the catalogue is a bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self.defs.iter().position(|d| d.name == name).unwrap_or_else(|| {
            panic!("metric {name:?} is not in the catalogue");
        });
        self.values[i] = Some(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.defs.iter().position(|d| d.name == name).and_then(|i| self.values[i])
    }

    /// Every metric of the catalogue with its value; unset ones read 0
    /// (a layer that did nothing on this workload).
    pub fn iter(&self) -> impl Iterator<Item = (&'static Def, f64)> + '_ {
        self.defs.iter().zip(&self.values).map(|(d, v)| (d, v.unwrap_or(0.0)))
    }

    /// `{"name": {"value": 1.5, "unit": "ms"}, ...}`
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .iter()
            .map(|(d, v)| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", d.name, json_num(v), d.unit)
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Better {
        fn as_str(self) -> &'static str {
            match self {
                Better::Lower => "lower",
                Better::Higher => "higher",
            }
        }
    }

    /// `BENCHMARK.json` is hand-written for the driver; this keeps it in
    /// step with the catalogue the program reports from.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for d in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.bound
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for d in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(text.matches("\"bound\"").count(), END_TO_END.len());
        assert_eq!(text.matches("\"better\"").count(), END_TO_END.len() + PER_LAYER.len());
        for s in &crate::workload::SPECS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
            assert!(s.why.len() <= 200);
        }
        assert_eq!(text.matches("\"why\"").count(), crate::workload::SPECS.len());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} is used twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn unset_metrics_read_zero_and_json_is_flat() {
        let mut v = Values::new(&END_TO_END);
        v.set("setup_s", 0.25);
        assert_eq!(v.get("setup_s"), Some(0.25));
        assert_eq!(v.get("ops_per_s"), None);
        let json = v.to_json();
        assert!(json.starts_with(
            "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"ops_per_s\": {\"value\": 0,"
        ));
    }
}
