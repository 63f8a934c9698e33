//! Ablation: eviction policy × freshness (paper §5, open question 3).
//!
//! "It is unclear how invalidation and updates can be co-designed with
//! eviction." This ablation runs the invalidation policy under five
//! eviction policies — LRU, FIFO, SLRU, the freshness-aware LRU variant
//! that prefers already-stale victims, and ARC — on a cache sized well
//! below the key space, and reports hit ratio, staleness cost and
//! freshness cost. The freshness-aware policy's bet: evicting stale
//! entries is free (they would miss anyway), so fresh entries live
//! longer and the hit ratio rises.
//!
//! ```sh
//! cargo run --release -p fresca-bench --bin ablate_eviction
//! ```
//!
//! With `--sweep` it instead runs the policy × traffic grid of
//! [`fresca_bench::evict`] — the node's sharding, ~750 k ops per cell —
//! prints each row's hit ratios and each policy's verdict under the
//! default rule, and writes them to `BENCH_evict.json` at the workspace
//! root (`BENCH_EVICT_OUT` overrides the path). It exits 1 when the
//! policy `ServerConfig::default()` runs fails the rule:
//!
//! ```sh
//! cargo run --release -p fresca-bench --bin ablate_eviction -- --sweep
//! ```

use fresca_bench::evict::{self, Verdict, POLICIES};
use fresca_bench::{fmt_pct, fmt_sig, write_json, Table};
use fresca_cache::{CacheConfig, Capacity, EvictionPolicy};
use fresca_core::engine::{EngineConfig, PolicyConfig, TraceEngine};
use fresca_core::experiment::workloads;
use fresca_sim::SimDuration;
use fresca_workload::{PoissonZipfConfig, WorkloadGen};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    eviction: String,
    fresh_hit_ratio: f64,
    cold_miss_ratio: f64,
    cs_normalized: f64,
    cf_normalized: f64,
    evictions: u64,
}

/// Ops per sweep cell: 500 k measured after a ⅓ warm-up.
const SWEEP_OPS: usize = 750_000;

#[derive(Serialize)]
struct Sweep {
    keys: u64,
    shards: usize,
    ops_per_cell: usize,
    warmup_ops: usize,
    seed: u64,
    policies: Vec<&'static str>,
    /// The policy `ServerConfig::default()` runs.
    node_default: &'static str,
    verdicts: Vec<Verdict>,
    rows: Vec<evict::Row>,
}

fn sweep() {
    let cells = evict::grid();
    let policies: Vec<_> = POLICIES.iter().map(|&(_, p)| p).collect();
    let rows = evict::sweep(&cells, &policies, SWEEP_OPS);
    let mut headers = vec!["keys/cap", "zipf", "puts", "hot set", "ttl"];
    headers.extend(POLICIES.iter().map(|&(name, _)| name));
    let mut table = Table::new(headers);
    for row in &rows {
        let c = row.cell;
        let mut cols = vec![
            c.keys_per_entry.to_string(),
            c.zipf.to_string(),
            c.put_share.to_string(),
            format!("{:?}", c.hot_set),
            if c.ttl { "yes".into() } else { "-".into() },
        ];
        cols.extend(row.outcomes.iter().map(|o| match o.refused {
            Some(refused) => format!("{:.3} ({:.3} refused)", o.hit, refused),
            None => format!("{:.3}", o.hit),
        }));
        table.row(cols);
    }
    table.print();
    let verdicts: Vec<Verdict> =
        POLICIES.iter().enumerate().map(|(i, &(name, _))| evict::verdict(&rows, name, i, 0)).collect();
    println!(
        "\n== default rule: worst row without a TTL >= LRU - 1 pt, churn-large > LRU x 1.02 ==\n"
    );
    let mut table = Table::new(vec![
        "policy",
        "churn-large",
        "vs LRU",
        "worst row",
        "at",
        "passes",
        "worst TTL'd row",
    ]);
    for v in &verdicts {
        let w = v.worst_row;
        table.row(vec![
            v.policy.clone(),
            format!("{:.3}", v.churn_large),
            format!("{:.3}", v.churn_large_vs_lru),
            format!("{:+.1} pt", v.worst_row_pt),
            format!("{}x zipf {} puts {} {:?}", w.keys_per_entry, w.zipf, w.put_share, w.hot_set),
            v.passes.to_string(),
            v.ttl_worst_row_pt.map_or("-".into(), |pt| format!("{pt:+.1} pt")),
        ]);
    }
    table.print();
    let node = fresca_serve::ServerConfig::default().cache.eviction;
    let node_default =
        POLICIES.iter().find(|&&(_, p)| p == node).map_or("unlisted", |&(name, _)| name);
    let node_passes = verdicts.iter().any(|v| v.policy == node_default && v.passes);
    let out = Sweep {
        keys: evict::KEYS,
        shards: evict::SHARDS,
        ops_per_cell: SWEEP_OPS,
        warmup_ops: SWEEP_OPS / 3,
        seed: evict::SEED,
        policies: POLICIES.iter().map(|&(name, _)| name).collect(),
        node_default,
        verdicts,
        rows,
    };
    let path = std::env::var("BENCH_EVICT_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_evict.json").to_string()
    });
    let json = serde_json::to_string_pretty(&out).expect("serialize the sweep");
    std::fs::write(&path, json + "\n").expect("write BENCH_evict.json");
    eprintln!("[saved {path}]");
    if !node_passes {
        eprintln!("the node's default eviction ({node_default}) fails the default rule");
        std::process::exit(1);
    }
}

fn main() {
    if std::env::args().any(|a| a == "--sweep") {
        return sweep();
    }
    // Cache holds 15% of the key space; moderate write share keeps a
    // standing population of invalidated entries for the freshness-aware
    // policy to harvest.
    let trace = PoissonZipfConfig {
        rate: 100.0,
        num_keys: 2000,
        zipf_exponent: 0.9,
        read_ratio: 0.8,
        horizon: SimDuration::from_secs(2_000),
        ..Default::default()
    }
    .generate(workloads::SEED);

    println!(
        "== eviction x freshness: invalidation policy, cache = 300 of 2000 keys ==\n"
    );
    let mut table = Table::new(vec![
        "eviction",
        "fresh-hit",
        "cold-miss",
        "C'_S",
        "C'_F",
        "evictions",
    ]);
    let mut rows: Vec<Row> = Vec::new();
    for (name, eviction) in [
        ("lru", EvictionPolicy::Lru),
        ("fifo", EvictionPolicy::Fifo),
        ("slru-80", EvictionPolicy::Slru { protected_pct: 80 }),
        ("freshness-aware", EvictionPolicy::FreshnessAware { probe_depth: 16 }),
        ("adaptive", EvictionPolicy::Adaptive),
    ] {
        let cfg = EngineConfig {
            staleness_bound: SimDuration::from_secs(1),
            cache: CacheConfig { capacity: Capacity::Entries(300), eviction },
            ..EngineConfig::default()
        };
        let r = TraceEngine::new(cfg, PolicyConfig::AlwaysInvalidate).run(&trace);
        let reads = r.cache.reads() as f64;
        let fresh = r.cache.fresh_hits as f64 / reads;
        let cold = r.cache.cold_misses as f64 / reads;
        table.row(vec![
            name.to_string(),
            fmt_pct(fresh),
            fmt_pct(cold),
            fmt_pct(r.cs_normalized),
            fmt_sig(r.cf_normalized),
            r.cache.evictions.to_string(),
        ]);
        rows.push(Row {
            eviction: name.into(),
            fresh_hit_ratio: fresh,
            cold_miss_ratio: cold,
            cs_normalized: r.cs_normalized,
            cf_normalized: r.cf_normalized,
            evictions: r.cache.evictions,
        });
    }
    table.print();
    write_json("ablate_eviction", &rows);
    println!(
        "\nReading: recency policies (LRU/SLRU) beat FIFO on hits as usual;\n\
         the freshness-aware variant additionally trades its evictions\n\
         toward already-stale entries, which shows up as a lower C'_S for\n\
         the same capacity — a first data point for §5's co-design question."
    );
}
