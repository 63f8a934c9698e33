//! `store-push` — run a store node that pushes freshness traffic into a
//! cache cluster, optionally serving the origin refetch endpoint on the
//! same backend state.
//!
//! ```text
//! store-push --addrs 127.0.0.1:7440,127.0.0.1:7441,127.0.0.1:7442
//!            [--policy adaptive|invalidate|update] [--origin 127.0.0.1:7500]
//!            [--write-rate 2000] [--keys 4096] [--value-size 64]
//!            [--interval-ms 100] [--duration-secs 10] [--seed 42]
//!            [--json BENCH_push.json]
//! ```
//!
//! Applies a uniform pseudo-random write stream (`--write-rate` writes
//! per second over `--keys` distinct keys) to a real `fresca-store`
//! backend, and at the end of every `--interval-ms` staleness interval
//! flushes the dirty-key buffer as per-node `Invalidate`/`Update`
//! batches to the cache nodes owning each key — the ring placement is
//! the same one `loadgen --addrs` and every `ClusterClient` compute, so
//! a pushed key always lands on the node serving it. Each batch blocks
//! for its `Ack`; the run fails (exit 1) on any transport or ack
//! mismatch, so a clean exit certifies every batch was acknowledged.
//!
//! The default policy is `adaptive`: per key, per flush, the backend
//! decides invalidate-vs-update from its live `E[W]` estimate
//! (`E[W]·c_u < c_m + c_i`, the paper's §3.3 rule), fed by the read
//! statistics cache servers report through the origin backchannel. The
//! static `invalidate`/`update` spellings remain as overrides for
//! benchmarking the endpoints of the spectrum.
//!
//! `--origin ADDR` binds the origin refetch endpoint **on the pusher's
//! own backend state**: cache servers started with `serve --origin
//! ADDR` refetch refused/missed keys through it, which (a) serves them
//! the store's current bytes, (b) clears §3.1 invalidation suppression
//! so the next write re-invalidates, and (c) returns their read
//! statistics to steer the adaptive policy. Without `--origin` this
//! binary generates *writes only*, so no refetch ever reaches its store
//! and a key stays suppressed after its first invalidation — the
//! paper's tracking assumption, degenerate for lack of read traffic.
//!
//! `--json <path>` writes the cumulative [`fresca_serve::PushStats`] as
//! machine-readable JSON.

use fresca_serve::cli::arg;
use fresca_serve::push::{PushConfig, PushPolicy, StorePusher};
use std::time::{Duration, Instant};

/// SplitMix64 step: a tiny deterministic key stream, so two runs with
/// one seed push identical batches.
fn next_key(state: &mut u64, keys: u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % keys
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: store-push --addrs a,b,c [--policy adaptive|invalidate|update] \
             [--origin 127.0.0.1:7500] [--write-rate 2000] [--keys 4096] [--value-size 64] \
             [--interval-ms 100] [--duration-secs 10] [--seed 42] [--json BENCH_push.json]"
        );
        return;
    }
    let addrs_s = arg(&args, "--addrs", String::new());
    let policy_s = arg(&args, "--policy", "adaptive".to_string());
    let origin_addr = arg(&args, "--origin", String::new());
    let write_rate: u64 = arg(&args, "--write-rate", 2000);
    let keys: u64 = arg(&args, "--keys", 4096);
    let value_size: u32 = arg(&args, "--value-size", 64);
    let interval_ms: u64 = arg(&args, "--interval-ms", 100);
    let duration_secs: u64 = arg(&args, "--duration-secs", 10);
    let seed: u64 = arg(&args, "--seed", 42);
    let json_path = arg(&args, "--json", String::new());

    if addrs_s.is_empty() {
        eprintln!("store-push: --addrs is required (comma-separated cache node addresses)");
        std::process::exit(2);
    }
    let addrs: Vec<String> = addrs_s.split(',').map(|s| s.trim().to_string()).collect();
    let Some(policy) = PushPolicy::parse(&policy_s) else {
        eprintln!("store-push: unknown policy {policy_s:?} (try adaptive|invalidate|update)");
        std::process::exit(2);
    };
    if keys == 0 || interval_ms == 0 {
        eprintln!("store-push: --keys and --interval-ms must be positive");
        std::process::exit(2);
    }

    let config = PushConfig { policy, ..Default::default() };
    let mut pusher = match StorePusher::connect(&addrs, config) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("store-push: cannot connect to cluster {addrs:?}: {e}");
            std::process::exit(1);
        }
    };
    // The origin listener shares the pusher's backend state: refetches
    // arriving there clear suppression for the very next flush here.
    let origin = if origin_addr.is_empty() {
        None
    } else {
        match fresca_serve::origin::spawn(origin_addr.as_str(), pusher.origin_state()) {
            Ok(handle) => {
                println!("origin endpoint listening on {}", handle.addr());
                Some(handle)
            }
            Err(e) => {
                eprintln!("store-push: cannot bind origin {origin_addr}: {e}");
                std::process::exit(1);
            }
        }
    };
    println!(
        "pushing {} batches to {} nodes every {interval_ms}ms \
         ({write_rate} writes/s over {keys} keys, seed {seed})",
        policy.name(),
        addrs.len(),
    );

    let interval = Duration::from_millis(interval_ms);
    let started = Instant::now();
    let deadline = started + Duration::from_secs(duration_secs.max(1));
    let mut rng = seed;
    let mut interval_end = started + interval;
    // Fractional writes per interval carry over (in units of 1/1000th of
    // a write), so the long-run rate honours --write-rate exactly
    // instead of rounding up every interval.
    let mut owed_milliwrites: u64 = 0;
    loop {
        owed_milliwrites += write_rate * interval_ms;
        for _ in 0..owed_milliwrites / 1000 {
            pusher.write(next_key(&mut rng, keys), value_size);
        }
        owed_milliwrites %= 1000;
        match pusher.flush() {
            Ok(receipts) => {
                let pushed: usize = receipts.iter().map(|r| r.keys).sum();
                let bytes: usize = receipts.iter().map(|r| r.wire_bytes).sum();
                let s = pusher.stats();
                println!(
                    "t={:>6.1}s  {} batches acked, {pushed} keys, {bytes} wire bytes \
                     (decided {} invalidate / {} update)",
                    started.elapsed().as_secs_f64(),
                    receipts.len(),
                    s.decided_invalidate,
                    s.decided_update,
                );
            }
            Err(e) => {
                eprintln!("store-push: flush failed: {e}");
                std::process::exit(1);
            }
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if let Some(sleep) = interval_end.checked_duration_since(now) {
            std::thread::sleep(sleep);
        }
        interval_end += interval;
    }

    let stats = pusher.stats();
    println!(
        "done: {} writes, {} flushes, {} batches ({} acked), {} keys pushed, \
         {} suppressed, {} coalesced, {} wire bytes, \
         decisions {} invalidate / {} update",
        stats.writes,
        stats.flushes,
        stats.batches,
        stats.acks,
        stats.keys_pushed,
        stats.suppressed,
        stats.coalesced,
        stats.push_bytes,
        stats.decided_invalidate,
        stats.decided_update
    );
    if let Some(handle) = origin {
        let fetches = {
            let state = handle.state();
            let s = state.lock();
            (s.fetches(), s.reads_recorded())
        };
        println!("origin: {} fetches served, {} reads recorded", fetches.0, fetches.1);
        handle.shutdown();
    }
    if !json_path.is_empty() {
        let json = serde_json::to_string_pretty(&stats).expect("stats serialize");
        if let Err(e) = std::fs::write(&json_path, json + "\n") {
            eprintln!("store-push: cannot write {json_path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {json_path}");
    }
    if stats.acks != stats.batches {
        eprintln!(
            "store-push: FAILED — {} of {} batches unacknowledged",
            stats.batches - stats.acks,
            stats.batches
        );
        std::process::exit(3);
    }
}
