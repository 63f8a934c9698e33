//! # fresca-serve — a real wire-protocol cache server and load generator
//!
//! Everything else in this workspace studies cache freshness under a
//! *simulated* clock and network. This crate closes the loop the paper
//! cares about: freshness guarantees only mean something end-to-end, once
//! requests actually cross a network boundary. It provides:
//!
//! * [`server`] — an event-driven TCP cache server, one reactor per
//!   core: a poll-based reactor (vendored `minipoll`, no external
//!   runtime) multiplexes all connections onto a configurable number of
//!   event-loop threads, and each cache shard (a slab-backed
//!   [`fresca_cache::SlabCache`]) sits behind its own lock. The loop
//!   that decodes a request applies it under its key's shard lock and
//!   answers at once; each loop sends the origin fetches its reads open
//!   on its own origin link, and only late replies to readers that
//!   joined another loop's fetch cross between loops, over the wakeup
//!   channels. The server speaks the
//!   `fresca-net` framed protocol. Writes carry a per-key TTL; reads
//!   carry a per-request max-staleness bound; responses say whether the
//!   entry was served fresh, served stale, refused, or missed — and echo
//!   each request's id, so responses to pipelined requests stay
//!   matchable.
//! * [`datapath`] — what is done to one shard, as an
//!   I/O-free [`datapath::Owner`] whose every entry takes `now`: the
//!   per-read freshness decision, version allocation, the refetch
//!   table. The reactor calls it; so do tests and the model checker.
//! * [`client`] — a blocking request/response client
//!   ([`client::CacheClient`]) and a pipelined one
//!   ([`client::PipelinedClient`]) that keeps many requests in flight on
//!   one connection, matching completions by [`fresca_net::RequestId`].
//! * [`loadgen`] — a closed-loop (N connections × a pipeline-depth
//!   window each) and open-loop (deadline-paced, never stalls on
//!   responses) load generator that replays `fresca-workload` traces via
//!   the [`fresca_workload::replay`] adapter and reports throughput, hit
//!   ratio, per-status read counts, staleness violations, and
//!   p50/p99/p999 request latency — against one node or fanned out
//!   across a cluster.
//! * [`ring`] — a consistent-hash ring (virtual nodes, deterministic
//!   placement, minimal remapping) partitioning the key space across
//!   several cache nodes.
//! * [`cluster`] — [`cluster::ClusterClient`], which owns one
//!   [`client::PipelinedClient`] per ring member and routes every
//!   `get`/`put` to the node owning the key.
//! * [`push`] — the store side of the paper's freshness pipeline on the
//!   wire: [`push::StorePusher`] buffers writes in the one store
//!   backend (`fresca_core::backend`) and pushes per-node `Invalidate`/`Update`
//!   batches to the ring members owning each key, collecting per-node
//!   acks by sequence number. The policy is selectable — including
//!   `adaptive`, which decides invalidate-vs-update per key from live
//!   read-frequency estimates.
//! * [`origin`] — the origin endpoint cache servers refetch through
//!   when a bounded read would be refused or missed: the shared
//!   backend ([`origin::OriginState`]) behind a
//!   blocking listener, closing the paper's §3.1 backchannel (a
//!   refetch clears invalidation suppression) and feeding the adaptive
//!   policy's per-key read rates.
//!
//! The `serve`, `loadgen` and `store-push` binaries wrap these for the
//! command line; `examples/remote_cache.rs`, `tests/wire_roundtrip.rs`
//! and `tests/cluster.rs` at the workspace root drive them in-process
//! over localhost.
//!
//! ## Clocks
//!
//! The cache substrate keeps no clock of its own — every operation takes
//! `now: SimTime`. The engines feed it virtual time; this crate feeds it
//! *wall* time through [`ServeClock`], which pins `SimTime::ZERO` to
//! server start. TTLs and staleness bounds therefore mean real
//! nanoseconds here, with no change to the cache crate.

#![forbid(unsafe_code)]

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod client;
pub mod cluster;
pub mod datapath;
mod handoff;
pub mod loadgen;
mod mailbox;
pub mod membership;
pub mod origin;
pub mod push;
pub mod ring;
pub mod server;
mod stats;

/// Flag parsing shared by the `serve`, `loadgen` and `store-push`
/// binaries.
pub mod cli {
    /// Value of `--name <value>` in `args`: the default when the flag is
    /// absent, the parsed value when present, and an error naming the
    /// offending flag when its value is missing or unparsable. Binaries
    /// use [`arg`], which turns the error into a nonzero exit — running
    /// with a silently-defaulted config after a typo is how a benchmark
    /// measures the wrong thing.
    pub fn try_arg<T: std::str::FromStr>(
        args: &[String],
        name: &str,
        default: T,
    ) -> Result<T, String> {
        let Some(i) = args.iter().position(|a| a == name) else {
            return Ok(default);
        };
        let Some(value) = args.get(i + 1) else {
            return Err(format!("flag {name} is missing its value"));
        };
        value
            .parse()
            .map_err(|_| format!("flag {name}: cannot parse {value:?}"))
    }

    /// [`try_arg`], exiting with status 2 (and the offending flag named
    /// on stderr) when the flag's value is missing or unparsable.
    pub fn arg<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
        match try_arg(args, name, default) {
            Ok(v) => v,
            Err(e) => {
                let bin = args.first().map(String::as_str).unwrap_or("fresca");
                eprintln!("{bin}: {e}");
                std::process::exit(2);
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::try_arg;

        fn args(s: &[&str]) -> Vec<String> {
            s.iter().map(|s| s.to_string()).collect()
        }

        #[test]
        fn parses_present_flags_and_defaults_absent_ones() {
            let a = args(&["bin", "--shards", "8", "--addr", "1.2.3.4:1"]);
            assert_eq!(try_arg(&a, "--shards", 16usize), Ok(8));
            assert_eq!(try_arg(&a, "--addr", "x".to_string()), Ok("1.2.3.4:1".to_string()));
            assert_eq!(try_arg(&a, "--missing", 5u64), Ok(5));
        }

        #[test]
        fn unparsable_or_missing_values_name_the_flag() {
            // An unparsable value is an error naming the flag and the
            // value — not a silent fall-back to the default.
            let err = try_arg(&args(&["bin", "--shards", "abc"]), "--shards", 16usize)
                .unwrap_err();
            assert!(err.contains("--shards") && err.contains("abc"), "{err}");
            // A flag at the end with no value is an error too.
            let err = try_arg(&args(&["bin", "--shards"]), "--shards", 16usize).unwrap_err();
            assert!(err.contains("--shards") && err.contains("missing"), "{err}");
        }
    }
}

pub use chaos::{ChaosEvent, ChaosReport, ChaosSchedule, NodeWindow};
pub use client::{Backoff, CacheClient, GetOutcome, PipelinedClient, Response, ServerProbe};
pub use cluster::ClusterClient;
pub use loadgen::{ClusterReport, LoadGenConfig, LoadReport, Mode, NodeReport};
pub use membership::Membership;
pub use origin::{OriginHandle, OriginState};
pub use push::{BatchReceipt, PushConfig, PushPolicy, PushStats, StorePusher};
pub use ring::HashRing;
pub use server::{ServerConfig, ServerHandle, ServerStatsSnapshot};

use fresca_sim::SimTime;
use std::time::Instant;

/// Maps the wall clock onto the cache's virtual timeline: `SimTime::ZERO`
/// is the instant the clock was started (server start), and `now()` is
/// the elapsed wall time since. Cheap to clone; clones share the origin.
#[derive(Debug, Clone, Copy)]
pub struct ServeClock {
    origin: Instant,
}

impl ServeClock {
    /// Start a clock at the current instant.
    pub fn start() -> Self {
        ServeClock { origin: Instant::now() }
    }

    /// Wall time elapsed since the origin, as a [`SimTime`].
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.origin.elapsed().as_nanos() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone_from_zero() {
        let clock = ServeClock::start();
        let a = clock.now();
        let b = clock.now();
        assert!(a <= b);
        let copy = clock;
        assert!(copy.now() >= b, "clones share the origin");
    }
}
