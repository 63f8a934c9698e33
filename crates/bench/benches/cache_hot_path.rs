//! Cache hot-path throughput: partitioned `SlabCache` shards on the
//! get-heavy churn the serving path actually sees.
//!
//! On the node an op reaches its shard through plain `&mut` under that
//! shard's lock, and entries live in the slab's index-linked slots
//! instead of boxed nodes. This bench drives the slab alone, without
//! the lock:
//!
//! * ~90% `get_bounded` / ~10% `insert_value` (the serve mix: reads
//!   dominate, writes churn the LRU),
//! * a keyspace 4× the capacity, so inserts continuously evict (LRU
//!   link surgery),
//! * keys pre-partitioned per thread the way the topology routes them.
//!
//! Sections: single-thread (one loop's slab cost) and 4-thread (four
//! loops each owning a quarter of the capacity; with fewer than four
//! cores this measures time-slicing, not scaling). Results go to stdout
//! and `BENCH_cache.json` (uploaded by CI).
//!
//! ```sh
//! cargo bench -p fresca-bench --bench cache_hot_path
//! ```

use bytes::Bytes;
use criterion::black_box;
use fresca_cache::slab::SlabCache;
use fresca_cache::{BoundedGet, Capacity};
use fresca_net::payload;
use fresca_sim::rng::splitmix64;
use fresca_sim::SimTime;
use serde::Serialize;
use std::time::Instant;

/// Total entry capacity, split across the threads' shards.
const CAPACITY: usize = 16_384;
/// Keyspace; 4× capacity keeps the LRU churning.
const KEYSPACE: u64 = (CAPACITY as u64) * 4;
/// Value payload per entry (small: the hot path cost under test is
/// lookup + LRU surgery, not memcpy).
const VALUE_BYTES: usize = 64;
/// Out of 16 ops, how many are gets (14/16 ≈ 90%).
const GETS_PER_16: u64 = 14;

/// One measured row of the report.
#[derive(Debug, Serialize)]
struct Row {
    threads: usize,
    ops: u64,
    slab_ops_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct CacheReport {
    workload: String,
    capacity_entries: usize,
    keyspace: u64,
    /// 4-thread over 1-thread throughput.
    scaling_4t: f64,
    rows: Vec<Row>,
}

/// The per-thread op stream: `(key, is_get)` pairs. Keys are striped
/// by thread id the way the topology partitions them (`key % threads
/// == id`), so each thread touches a disjoint keyspace.
fn op_stream(thread: usize, threads: usize, ops: u64) -> Vec<(u64, bool)> {
    let mut state = 0xFEED_u64 ^ ((thread as u64) << 32);
    (0..ops)
        .map(|_| {
            let r = splitmix64(&mut state);
            let key = (r % (KEYSPACE / threads as u64)) * threads as u64 + thread as u64;
            (key, r >> 60 < GETS_PER_16)
        })
        .collect()
}

fn now() -> SimTime {
    SimTime::from_secs(1)
}

/// Run one thread's stream against an exclusively-owned slab shard:
/// the reactor's owner-local path, `&mut` all the way down.
fn run_slab(shard: &mut SlabCache, stream: &[(u64, bool)], value: &Bytes) -> u64 {
    let mut served = 0u64;
    for &(key, is_get) in stream {
        if is_get {
            if let BoundedGet::Fresh(e) | BoundedGet::ServedStale(e) =
                shard.get_bounded(key, now(), None)
            {
                served += e.version;
            }
        } else {
            shard.insert_value(key, 1, value.clone(), now(), None);
        }
    }
    served
}

/// Median seconds over `samples` timed runs of `run`.
fn measure(mut run: impl FnMut() -> u64, samples: usize) -> f64 {
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        black_box(run());
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn bench_threads(threads: usize, ops_per_thread: u64, samples: usize, value: &Bytes) -> Row {
    let streams: Vec<Vec<(u64, bool)>> =
        (0..threads).map(|t| op_stream(t, threads, ops_per_thread)).collect();
    let total_ops = ops_per_thread * threads as u64;

    // Partitioned shape: each thread owns one slab sized to its share
    // of the capacity (the per-loop partition the server builds). Shards are rebuilt per sample — churn state must not
    // leak across samples.
    let slab_secs = measure(
        || {
            let mut shards: Vec<SlabCache> = (0..threads)
                .map(|_| SlabCache::new(Capacity::Entries(CAPACITY / threads)))
                .collect();
            if threads == 1 {
                run_slab(&mut shards[0], &streams[0], value)
            } else {
                std::thread::scope(|s| {
                    let handles: Vec<_> = shards
                        .iter_mut()
                        .zip(&streams)
                        .map(|(shard, stream)| s.spawn(|| run_slab(shard, stream, value)))
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("bench thread")).sum()
                })
            }
        },
        samples,
    );

    let slab_ops = total_ops as f64 / slab_secs;
    println!("cache_hot_path/{threads}t  slab {slab_ops:>12.0} ops/s");
    Row { threads, ops: total_ops, slab_ops_per_sec: slab_ops }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (ops_per_thread, samples) = if test_mode { (4_096, 1) } else { (2_000_000, 7) };
    let value = payload::pattern(1, VALUE_BYTES);

    let rows = vec![
        bench_threads(1, ops_per_thread, samples, &value),
        bench_threads(4, ops_per_thread, samples, &value),
    ];
    let scaling_4t = rows[1].slab_ops_per_sec / rows[0].slab_ops_per_sec;
    let report = CacheReport {
        workload: format!(
            "{}/16 get, {}/16 insert churn over {KEYSPACE} keys",
            GETS_PER_16,
            16 - GETS_PER_16
        ),
        capacity_entries: CAPACITY,
        keyspace: KEYSPACE,
        scaling_4t,
        rows,
    };
    if !test_mode {
        // Cargo runs bench binaries from the package dir; drop the
        // artifact at the workspace root where CI picks it up.
        let path = std::env::var("BENCH_CACHE_OUT").unwrap_or_else(|_| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cache.json").to_string()
        });
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(&path, json + "\n").expect("write BENCH_cache.json");
        println!("wrote {path} (4-thread over 1-thread: {scaling_4t:.2}x)");
    } else {
        println!("test cache_hot_path ... ok (bench smoke)");
    }
}
