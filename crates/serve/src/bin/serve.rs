//! `serve` — run the fresca cache server from the command line.
//!
//! ```text
//! serve [--addr 127.0.0.1:7440] [--shards 16] [--capacity-entries 65536]
//!       [--event-loops 2] [--origin 127.0.0.1:7500] [--stats-every 5]
//!       [--advertise NAME]
//! ```
//!
//! Binds the address, then prints a serving-counter line every
//! `--stats-every` seconds until killed. `--capacity-entries 0` means
//! unbounded. Every shard evicts by `ServerConfig::default()`'s policy,
//! ARC — there is no flag; the first line names it. `--event-loops`
//! sets how many reactor threads connections are multiplexed onto
//! (each one comfortably serves thousands of connections; raise it to
//! use more cores — any loop serves any shard, under that shard's
//! lock). `--origin`
//! points at a store-push node's origin endpoint
//! (`store-push --origin ADDR`): bounded reads that would be refused or
//! missed then refetch through it instead of failing — see
//! `fresca_serve::server`'s module docs.
//!
//! `--advertise` sets the exact name this node appears under in ring
//! member lists (defaults to the bound address). Every cluster
//! participant must spell a member identically — placement hashes the
//! name — so set it when peers reach this node under a different
//! address than it bound (NAT, 0.0.0.0 binds).
//!
//! **SIGTERM drains before exiting**: no new connections are accepted,
//! but every reply already queued — including reads parked on an
//! origin refetch, on any loop's link — is written back before
//! the process exits, and the final stats line is printed. SIGKILL (as
//! the chaos harness sends) is the abrupt-death case; clients observe
//! dropped connections and re-route.

use fresca_cache::{CacheConfig, Capacity};
use fresca_serve::cli::arg;
use fresca_serve::server::{self, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set from the signal handler; polled by the main loop.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    // A relaxed atomic store is async-signal-safe.
    TERM.store(true, Ordering::Relaxed);
}

#[cfg(unix)]
fn install_sigterm_handler() {
    // The lib crate forbids unsafe code; the binary installs the one
    // process-global hook the lib cannot.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C library's handler registration;
    // `on_term` is an `extern "C" fn(i32)` performing only an atomic
    // store, which is async-signal-safe. No Rust state is touched from
    // the handler.
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: serve [--addr 127.0.0.1:7440] [--shards 16] \
             [--capacity-entries 65536] [--event-loops 2] \
             [--origin 127.0.0.1:7500] [--stats-every 5] \
             [--advertise NAME]"
        );
        return;
    }
    let addr = arg(&args, "--addr", "127.0.0.1:7440".to_string());
    let shards: usize = arg(&args, "--shards", 16);
    let capacity: usize = arg(&args, "--capacity-entries", 65_536);
    let event_loops: usize = arg(&args, "--event-loops", 2);
    let origin_s = arg(&args, "--origin", String::new());
    let stats_every: u64 = arg(&args, "--stats-every", 5);
    let advertise = arg(&args, "--advertise", String::new());

    let origin = if origin_s.is_empty() {
        None
    } else {
        match origin_s.parse() {
            Ok(a) => Some(a),
            Err(e) => {
                eprintln!("serve: cannot parse --origin {origin_s:?}: {e}");
                std::process::exit(2);
            }
        }
    };
    let capacity =
        if capacity == 0 { Capacity::Unbounded } else { Capacity::Entries(capacity) };
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        cache: CacheConfig { capacity, ..defaults.cache },
        shards,
        event_loops,
        origin,
    };
    let advertise = (!advertise.is_empty()).then_some(advertise);
    let handle = match server::spawn_with_identity(&addr, config, advertise) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    install_sigterm_handler();
    println!(
        "serving on {} as {} ({} shards, {:?}, {:?} eviction, {} event loops{})",
        handle.addr(),
        handle.advertise(),
        shards,
        capacity,
        config.cache.eviction,
        handle.event_loops(),
        origin.map(|o| format!(", origin {o}")).unwrap_or_default()
    );
    // Poll the TERM flag at a fine grain so a drain starts promptly,
    // printing stats on the coarse --stats-every cadence.
    let tick = Duration::from_millis(100);
    let stats_every = Duration::from_secs(stats_every.max(1));
    let mut last_stats = Instant::now();
    loop {
        std::thread::sleep(tick);
        if TERM.load(Ordering::Relaxed) {
            println!("SIGTERM: draining queued replies and in-flight requests");
            let stats = handle.shutdown_graceful();
            println!("{stats}");
            return;
        }
        if last_stats.elapsed() >= stats_every {
            last_stats = Instant::now();
            println!("{}", handle.stats());
        }
    }
}
