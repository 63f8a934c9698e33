//! §5 open question 1 (extension experiment): staleness-bound violations
//! under message loss, with and without reliable delivery, across drop
//! rates and policies. TTL-expiry is the loss-immune baseline.
//!
//! ```sh
//! cargo run --release -p fresca-bench --bin lossy
//! ```

use fresca_bench::{fmt_pct, write_json, Table};
use fresca_core::engine::{EngineConfig, LinkConfig, PolicyConfig, Retransmit, TraceEngine};
use fresca_core::experiment::workloads;
use fresca_net::FaultConfig;
use fresca_sim::SimDuration;
use fresca_workload::{PoissonZipfConfig, WorkloadGen};
use serde::Serialize;

#[derive(Serialize)]
struct LossPoint {
    policy: String,
    reliable: bool,
    drop_prob: f64,
    violations: u64,
    violation_ratio: f64,
    max_overage_s: f64,
    retransmissions: u64,
    messages_sent: u64,
}

fn main() {
    let trace = PoissonZipfConfig {
        rate: 100.0,
        num_keys: 200,
        zipf_exponent: 1.1,
        read_ratio: 0.8,
        horizon: SimDuration::from_secs(500),
        ..Default::default()
    }
    .generate(workloads::SEED);

    let mut points: Vec<LossPoint> = Vec::new();
    println!("== lossy delivery: violations of the 1s bound ({} requests) ==\n", trace.len());

    for policy in [
        PolicyConfig::TtlExpiry,
        PolicyConfig::AlwaysInvalidate,
        PolicyConfig::AlwaysUpdate,
        PolicyConfig::adaptive(),
    ] {
        println!("policy: {}", policy.name());
        let mut table = Table::new(vec![
            "drop",
            "violations",
            "ratio",
            "max overage (s)",
            "retransmits",
        ]);
        for drop in [0.0, 0.01, 0.05, 0.1, 0.2] {
            for reliable in [false, true] {
                if matches!(policy, PolicyConfig::TtlExpiry) && reliable {
                    continue; // no messages to make reliable
                }
                let cfg = EngineConfig {
                    staleness_bound: SimDuration::from_secs(1),
                    link: LinkConfig {
                        faults: FaultConfig { drop_prob: drop, ..FaultConfig::default() },
                        net_seed: 7,
                        reliable: reliable.then_some(Retransmit {
                            rto: SimDuration::from_millis(50),
                            max_retries: 8,
                        }),
                    },
                    ..EngineConfig::default()
                };
                let r = TraceEngine::new(cfg, policy).run(&trace);
                table.row(vec![
                    format!("{:.0}%{}", drop * 100.0, if reliable { " +rel" } else { "" }),
                    r.violations.to_string(),
                    fmt_pct(r.violation_ratio()),
                    format!("{:.2}", r.max_overage_s),
                    r.retransmissions.to_string(),
                ]);
                points.push(LossPoint {
                    policy: r.policy.clone(),
                    reliable,
                    drop_prob: drop,
                    violations: r.violations,
                    violation_ratio: r.violation_ratio(),
                    max_overage_s: r.max_overage_s,
                    retransmissions: r.retransmissions,
                    messages_sent: r.net.sent,
                });
            }
        }
        table.print();
        println!();
    }
    write_json("lossy", &points);
    println!(
        "Reading: without reliability, any loss rate leaves objects stale far\n\
         beyond the bound (tracker desync makes hot keys stale forever);\n\
         sequencing + acks + retransmission restores the bound at the cost of\n\
         retransmissions. TTL-expiry never sends a message and never violates."
    );
}
