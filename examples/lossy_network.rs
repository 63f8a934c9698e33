//! Lost invalidates: the paper's open question #1, made concrete.
//!
//! "For TTL, data is guaranteed to expire after a specified time. However,
//! lost or re-ordered updates and invalidates may cause a cached object to
//! remain in a stale state in the cache indefinitely." (§5)
//!
//! This example runs the trace engine over a store→cache link with
//! increasing drop rates and reports *staleness violations* — reads served
//! as fresh that silently broke the bound — with and without the
//! reliability layer (sequence numbers + acks + retransmission), and for
//! TTL-expiry, which needs no messages and is immune.
//!
//! ```sh
//! cargo run --release --example lossy_network
//! ```

use fresca::prelude::*;

fn main() {
    let trace = PoissonZipfConfig {
        rate: 100.0,
        num_keys: 100,
        zipf_exponent: 1.0,
        read_ratio: 0.8,
        horizon: SimDuration::from_secs(300),
        ..Default::default()
    }
    .generate(99);

    println!("== invalidation over a lossy link, bound T = 1s ==\n");
    println!(
        "{:>6} {:>22} {:>22} {:>14}",
        "drop%", "violations (plain)", "violations (reliable)", "ttl-expiry"
    );

    for drop in [0.0, 0.05, 0.1, 0.2, 0.4] {
        let mk = |reliable: bool| EngineConfig {
            staleness_bound: SimDuration::from_secs(1),
            link: LinkConfig {
                faults: FaultConfig { drop_prob: drop, ..FaultConfig::default() },
                net_seed: 7,
                reliable: reliable
                    .then_some(Retransmit { rto: SimDuration::from_millis(50), max_retries: 8 }),
            },
            ..EngineConfig::default()
        };
        let plain = TraceEngine::new(mk(false), PolicyConfig::AlwaysInvalidate).run(&trace);
        let reliable = TraceEngine::new(mk(true), PolicyConfig::AlwaysInvalidate).run(&trace);
        let ttl = TraceEngine::new(mk(false), PolicyConfig::TtlExpiry).run(&trace);
        println!(
            "{:>5.0}% {:>12} ({:>5.2}%) {:>12} ({:>5.2}%) {:>14}",
            drop * 100.0,
            plain.violations,
            100.0 * plain.violation_ratio(),
            reliable.violations,
            100.0 * reliable.violation_ratio(),
            ttl.violations,
        );
        if drop == 0.4 {
            println!(
                "\nat 40% loss: worst overage {:.1}s beyond the bound without\n\
                 reliability; {} retransmissions and {} duplicate-suppressions\n\
                 restore it (reliable run's worst overage: {:.3}s).",
                plain.max_overage_s,
                reliable.retransmissions,
                reliable.duplicates_suppressed,
                reliable.max_overage_s,
            );
        }
    }

    println!(
        "\nWhy so catastrophic even at 5% loss: one lost batch desynchronises the\n\
         backend's invalidated-key tracker — it believes the key is already\n\
         invalid and suppresses every future invalidate for it, so a single\n\
         drop makes a hot key stale *forever* (the paper's \"indefinitely\",\n\
         amplified by the very tracking that makes invalidation cheap).\n\
         \n\
         Takeaway: write-triggered freshness trades the TTL's local guarantee\n\
         for a distributed one — it needs reliable delivery machinery that TTLs\n\
         never did. That is exactly the systems gap §5 calls out."
    );
}
