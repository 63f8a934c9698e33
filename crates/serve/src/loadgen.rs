//! Closed- and open-loop load generation against a running server, with
//! request pipelining and per-request latency percentiles.
//!
//! Both modes replay the same [`TimedOp`] schedule (a `fresca-workload`
//! trace mapped through [`fresca_workload::replay::ReplayConfig`])
//! through one driver over [`PipelinedClient`] connections, so many
//! requests ride each connection concurrently and responses are matched
//! back to requests by [`RequestId`]. The modes differ only in when the
//! next operation is due:
//!
//! * **Closed loop** — `connections` worker threads each keep up to
//!   `pipeline` requests in flight back-to-back: a worker collects every
//!   completion that is ready, refills its window, and sends the whole
//!   top-up in one `writev`. Offered load tracks service capacity, which
//!   is how you measure peak throughput.
//! * **Open loop** — one thread sends each operation at its scheduled
//!   deadline *without waiting for earlier responses*: offered load is
//!   fixed by the trace's (rescaled) arrival process. Between deadlines
//!   it waits in one `poll(2)` over its connections while replies are
//!   due, and sleeps exactly when none is. Latency is
//!   measured from the operation's **scheduled** send time to its
//!   completion, so queueing delay under overload is charged to the
//!   server instead of being silently absorbed by a stalled sender (the
//!   coordinated-omission trap the old one-in-flight client fell into).
//!
//! Every worker verifies what it reads: the server's versions are
//! globally monotone, so a served read whose version is older than the
//! last write this worker saw acknowledged for that key is a consistency
//! violation, counted in [`LoadReport::version_anomalies`]. Completions
//! are processed in arrival order, which on an in-order connection means
//! server-processing order, so the check stays exact under pipelining.
//!
//! Latencies go into a log-bucketed [`Histogram`] per connection, merged
//! across connections and nodes: every reported percentile is an upper
//! bound at most 2 % above the nearest-rank sample.
//!
//! **Cluster fan-out** ([`run_cluster`]): given several node addresses,
//! the schedule is partitioned by the same consistent-hash ring every
//! other cluster participant uses ([`crate::ring`]) and each node's
//! share is replayed against it concurrently — a closed loop runs
//! `connections` workers *per node*, each on its node's share; an open
//! loop runs one worker holding a connection to every node. The result is a
//! [`ClusterReport`]: one [`LoadReport`] per node plus the aggregate
//! (aggregate percentiles come from the merged histograms, not averaged).
//! [`run`] is the one-node case.

use crate::chaos::{self, ChaosReport, ChaosSchedule, ChaosShared, NodeWindow, Supervisor};
use crate::client::{Backoff, CacheClient, PipelinedClient, Response, ServerProbe};
use crate::ring::{HashRing, DEFAULT_VNODES};
use fresca_net::{payload, GetStatus, RequestId};
use fresca_sim::stats::Histogram;
use fresca_workload::{TimedOp, WireOp};
use minipoll::PollSet;
use serde::Serialize;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Load-generation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `connections` workers issue ops back-to-back (throughput probe).
    Closed {
        /// Number of concurrent connections (worker threads).
        connections: usize,
    },
    /// One connection paced by the schedule's timestamps (rate probe).
    Open,
}

/// How the load generator sizes the value of each put. Whatever the
/// size, the *content* is always the deterministic pattern of
/// [`fresca_net::payload`], so readers can checksum every served value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDist {
    /// Every put carries exactly this many bytes.
    Fixed(u32),
    /// Sizes drawn uniformly from `min..=max`.
    Uniform {
        /// Smallest value size.
        min: u32,
        /// Largest value size.
        max: u32,
    },
    /// Heavy-tailed ("zipf-sized") draw over `1..=max`: log-uniform, so
    /// small values dominate but large ones keep appearing — the shape
    /// of real object-size distributions.
    Zipf {
        /// Largest value size.
        max: u32,
    },
}

impl ValueDist {
    /// Parse a CLI spelling: `fixed:N`, `uniform:MIN:MAX`, `zipf:MAX`.
    /// Sizes above the codec's [`fresca_net::MAX_VALUE`] are rejected
    /// here, with the clear flag error, instead of surfacing later as
    /// an opaque connection drop when the server refuses the frame.
    pub fn parse(s: &str) -> Option<ValueDist> {
        let mut parts = s.split(':');
        let dist = match (parts.next()?, parts.next(), parts.next(), parts.next()) {
            ("fixed", Some(n), None, None) => ValueDist::Fixed(n.parse().ok()?),
            ("uniform", Some(min), Some(max), None) => {
                let (min, max) = (min.parse().ok()?, max.parse().ok()?);
                if min > max {
                    return None;
                }
                ValueDist::Uniform { min, max }
            }
            ("zipf", Some(max), None, None) => {
                let max: u32 = max.parse().ok()?;
                if max == 0 {
                    return None;
                }
                ValueDist::Zipf { max }
            }
            _ => return None,
        };
        (dist.max_size() as usize <= fresca_net::MAX_VALUE).then_some(dist)
    }

    /// Smallest size this distribution can draw.
    pub fn min_size(&self) -> u32 {
        match *self {
            ValueDist::Fixed(n) => n,
            ValueDist::Uniform { min, .. } => min,
            ValueDist::Zipf { .. } => 1,
        }
    }

    /// Largest size this distribution can draw.
    pub fn max_size(&self) -> u32 {
        match *self {
            ValueDist::Fixed(n) => n,
            ValueDist::Uniform { max, .. } => max,
            ValueDist::Zipf { max } => max,
        }
    }

    /// Deterministic size for one operation, from a per-op hash: the
    /// same schedule and dist always produce the same payload sizes.
    pub fn sample(&self, h: u64) -> u32 {
        match *self {
            ValueDist::Fixed(n) => n,
            ValueDist::Uniform { min, max } => min + (h % (max as u64 - min as u64 + 1)) as u32,
            ValueDist::Zipf { max } => {
                // Log-uniform over 1..=max: P(size ≤ s) = ln(s)/ln(max).
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                ((max as f64 + 1.0).powf(u) as u32).clamp(1, max)
            }
        }
    }
}

/// Load generator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadGenConfig {
    /// Closed or open loop.
    pub mode: Mode,
    /// Closed loop: maximum requests in flight per connection. `1`
    /// reproduces the old request/response lockstep; the open loop
    /// ignores this (its pipeline depth is set by the schedule).
    pub pipeline: usize,
    /// When set, overrides the schedule's per-op value sizes with draws
    /// from this distribution. Payload *content* is the deterministic
    /// checksummable pattern either way.
    pub value_bytes: Option<ValueDist>,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig { mode: Mode::Closed { connections: 4 }, pipeline: 16, value_bytes: None }
    }
}

/// What a load-generation run observed, end to end.
///
/// Serializes to JSON (see the `loadgen` binary's `--json` flag) so perf
/// trajectories can be tracked across commits.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LoadReport {
    /// Wall-clock duration of the run in seconds.
    pub wall_secs: f64,
    /// Operations completed (gets + puts).
    pub ops: u64,
    /// Reads issued.
    pub gets: u64,
    /// Writes issued.
    pub puts: u64,
    /// Completed operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Reads served fresh.
    pub fresh: u64,
    /// Reads served stale-within-bound.
    pub stale_served: u64,
    /// Reads refused as `RefusedStale`: the entry existed but could not
    /// satisfy the staleness bound (or was invalidated). The per-status
    /// sibling of [`LoadReport::staleness_violations`] — same count,
    /// kept under both names so the status breakdown
    /// (fresh/stale_served/refused_stale/misses) reads uniformly.
    pub refused_stale: u64,
    /// Reads refused: the entry existed but could not satisfy the
    /// staleness bound. These are the run's *staleness violations* — the
    /// quantity the paper's freshness machinery exists to minimise.
    pub staleness_violations: u64,
    /// Reads that found no entry.
    pub misses: u64,
    /// Served reads ÷ issued reads.
    pub hit_ratio: f64,
    /// Served reads whose version regressed below a write this worker
    /// had seen acknowledged — should be zero.
    pub version_anomalies: u64,
    /// Served reads whose value bytes failed the FNV checksum against
    /// the deterministic pattern for their key and length — should be
    /// zero. Catches the payload-corruption and framing-bug class that
    /// wire-size accounting cannot.
    pub checksum_mismatches: u64,
    /// Payload bytes verified across all served reads.
    pub value_bytes_read: u64,
    /// Payload bytes written across all puts.
    pub value_bytes_written: u64,
    /// Successful reconnects to nodes whose connection died mid-run.
    /// Zero outside chaos runs — a load generator connection dying
    /// under stable membership is an error, not a retry.
    pub reconnects: u64,
    /// Mean request latency in microseconds (exact, not bucketed).
    pub mean_latency_us: f64,
    /// Median request latency in microseconds. Every percentile here is
    /// an upper bound at most 2 % above the nearest-rank sample.
    pub p50_latency_us: f64,
    /// 99th-percentile request latency in microseconds.
    pub p99_latency_us: f64,
    /// 99.9th-percentile request latency in microseconds.
    pub p999_latency_us: f64,
    /// Identity of the schedule this run replayed: a scenario registry
    /// name (`loadgen --scenario`) or a workload generator name. Paired
    /// with [`LoadReport::seed`], it makes every report reproducible —
    /// `baseline check` refuses to compare reports across scenarios.
    pub scenario: String,
    /// RNG master seed the schedule was generated from.
    pub seed: u64,
    /// Origin refetches the server(s) issued during this run (probed
    /// via `StatsReq` before and after, so concurrent runs against the
    /// same server overlap in each other's counts). Zero without an
    /// origin.
    pub refetches: u64,
    /// Reads that coalesced onto an in-flight refetch during this run.
    pub refetch_coalesced: u64,
    /// Reads degraded to their fallback because the origin was
    /// unreachable during this run.
    pub origin_errors: u64,
    /// Ops the server(s) applied on a shard outside the decoding event
    /// loop's share during this run (probed like the refetch counters).
    /// Zero on a single-event-loop server.
    pub cross_core_forwards: u64,
    /// Live entries across the server's slab shards at
    /// the end of the run (a gauge, not a delta; summed across nodes in
    /// cluster runs).
    pub slab_entries: u64,
    /// Allocated slab slots across the server's shards at the end
    /// of the run (gauge; the slab memory high-water mark).
    pub slab_capacity: u64,
}

impl LoadReport {
    /// True when the run saw no staleness violations, no version
    /// anomalies, and no payload checksum mismatches — the pass
    /// condition for smoke tests and CI.
    pub fn is_clean(&self) -> bool {
        self.staleness_violations == 0
            && self.version_anomalies == 0
            && self.checksum_mismatches == 0
    }

    /// Record which schedule produced this run (scenario or generator
    /// name, plus the RNG master seed) so the report is reproducible.
    pub fn set_identity(&mut self, scenario: &str, seed: u64) {
        self.scenario = scenario.to_string();
        self.seed = seed;
    }
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.scenario.is_empty() {
            writeln!(f, "schedule: {} (seed {})", self.scenario, self.seed)?;
        }
        writeln!(
            f,
            "{} ops in {:.3}s  ({:.0} ops/s)",
            self.ops, self.wall_secs, self.ops_per_sec
        )?;
        writeln!(
            f,
            "latency: mean {:.1}us  p50 {:.1}us  p99 {:.1}us  p999 {:.1}us",
            self.mean_latency_us, self.p50_latency_us, self.p99_latency_us, self.p999_latency_us
        )?;
        writeln!(f, "reads: {} (hit ratio {:.2}%)", self.gets, 100.0 * self.hit_ratio)?;
        writeln!(
            f,
            "  status: {} Fresh / {} ServedStale / {} RefusedStale / {} Miss",
            self.fresh, self.stale_served, self.refused_stale, self.misses
        )?;
        writeln!(f, "writes: {}", self.puts)?;
        writeln!(
            f,
            "payload bytes: {} written, {} read back ({} checksum mismatches)",
            self.value_bytes_written, self.value_bytes_read, self.checksum_mismatches
        )?;
        writeln!(
            f,
            "staleness violations: {}   version anomalies: {}",
            self.staleness_violations, self.version_anomalies
        )?;
        if self.refetches + self.refetch_coalesced + self.origin_errors > 0 {
            writeln!(
                f,
                "origin refetches: {} ({} coalesced, {} origin errors)",
                self.refetches, self.refetch_coalesced, self.origin_errors
            )?;
        }
        if self.cross_core_forwards > 0 || self.slab_capacity > 0 {
            writeln!(
                f,
                "cross-core forwards: {}   slab: {}/{} entries/slots",
                self.cross_core_forwards, self.slab_entries, self.slab_capacity
            )?;
        }
        if self.reconnects > 0 {
            writeln!(f, "reconnects: {}", self.reconnects)?;
        }
        Ok(())
    }
}

/// Growth factor of the latency histogram's buckets. A quantile reads as
/// the upper edge of the bucket its nearest-rank sample fell in, so it
/// is never below that sample and at most this factor above it.
const LATENCY_BUCKET_BASE: f64 = 1.02;

/// Per-connection accumulator, merged into the final [`LoadReport`].
#[derive(Debug, Clone)]
struct WorkerResult {
    gets: u64,
    puts: u64,
    fresh: u64,
    stale_served: u64,
    refused: u64,
    misses: u64,
    version_anomalies: u64,
    checksum_mismatches: u64,
    value_bytes_read: u64,
    value_bytes_written: u64,
    reconnects: u64,
    /// Request latencies in microseconds, from 1 ns (anything shorter
    /// reads as 1 ns) to about 150 s in [`LATENCY_BUCKET_BASE`] steps.
    latency_us: Histogram,
}

impl Default for WorkerResult {
    fn default() -> Self {
        WorkerResult {
            gets: 0,
            puts: 0,
            fresh: 0,
            stale_served: 0,
            refused: 0,
            misses: 0,
            version_anomalies: 0,
            checksum_mismatches: 0,
            value_bytes_read: 0,
            value_bytes_written: 0,
            reconnects: 0,
            latency_us: Histogram::with_params(LATENCY_BUCKET_BASE, 1e-3, 1300),
        }
    }
}

impl WorkerResult {
    fn merge(&mut self, other: &WorkerResult) {
        self.gets += other.gets;
        self.puts += other.puts;
        self.fresh += other.fresh;
        self.stale_served += other.stale_served;
        self.refused += other.refused;
        self.misses += other.misses;
        self.version_anomalies += other.version_anomalies;
        self.checksum_mismatches += other.checksum_mismatches;
        self.value_bytes_read += other.value_bytes_read;
        self.value_bytes_written += other.value_bytes_written;
        self.reconnects += other.reconnects;
        self.latency_us.merge(&other.latency_us);
    }
}

/// Deterministic per-op randomness for value-size draws: the shared
/// SplitMix64 finalizer over the op's key and schedule position.
fn op_hash(key: u64, index: u64) -> u64 {
    payload::mix(key ^ index.rotate_left(32))
}

/// Snapshot every node's wire-exported counters over side connections.
/// Best-effort — a server predating `StatsReq`, or a probe hitting a
/// connection limit, reads as zeros rather than failing the run it
/// brackets.
fn probe(nodes: &[(String, SocketAddr)]) -> Vec<ServerProbe> {
    let stats = |addr| CacheClient::connect(addr).and_then(|mut c| c.server_stats());
    nodes.iter().map(|&(_, addr)| stats(addr).unwrap_or_default()).collect()
}

/// Add what two probes bracketing a run say about one node to a report:
/// cumulative counters (refetches, forwards) as deltas, slab gauges at
/// their end-of-run value. Additive, so an aggregate sums its nodes.
fn attribute(report: &mut LoadReport, before: &ServerProbe, after: &ServerProbe) {
    report.refetches += after.refetches.saturating_sub(before.refetches);
    report.refetch_coalesced += after.refetch_coalesced.saturating_sub(before.refetch_coalesced);
    report.origin_errors += after.origin_errors.saturating_sub(before.origin_errors);
    report.cross_core_forwards +=
        after.cross_core_forwards.saturating_sub(before.cross_core_forwards);
    report.slab_entries += after.slab_entries;
    report.slab_capacity += after.slab_capacity;
}

/// The one report path of every run shape: per-node results and the
/// probes bracketing the run become the aggregate (counters summed,
/// latency histograms merged) and one report per node.
fn reports(
    nodes: &[(String, SocketAddr)],
    results: &[WorkerResult],
    before: &[ServerProbe],
    after: &[ServerProbe],
    wall: Duration,
) -> (LoadReport, Vec<NodeReport>) {
    let mut merged = WorkerResult::default();
    for r in results {
        merged.merge(r);
    }
    let mut aggregate = build_report(&merged, wall);
    let per_node = nodes
        .iter()
        .zip(results)
        .zip(before.iter().zip(after))
        .map(|(((name, _), r), (before, after))| {
            let mut report = build_report(r, wall);
            attribute(&mut report, before, after);
            attribute(&mut aggregate, before, after);
            NodeReport { addr: name.clone(), report }
        })
        .collect();
    (aggregate, per_node)
}

/// Replay `ops` against the server at `addr` and report what happened:
/// [`run_cluster`] over a one-node cluster.
pub fn run(addr: SocketAddr, ops: &[TimedOp], config: &LoadGenConfig) -> io::Result<LoadReport> {
    Ok(run_cluster(&[(addr.to_string(), addr)], ops, config)?.aggregate)
}

/// One node's slice of a cluster run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NodeReport {
    /// The node's address as given on the command line — also its ring
    /// name, so this is the spelling placement was computed from.
    pub addr: String,
    /// What this node's share of the schedule observed.
    pub report: LoadReport,
}

/// What a cluster fan-out run observed: per-node reports plus the
/// merged aggregate. Serializes to JSON for the `loadgen --json` flag.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterReport {
    /// Everything merged: counters summed, percentiles read from the
    /// merged latency histograms of all nodes (within 2 %, as per node).
    pub aggregate: LoadReport,
    /// Per-node breakdown, in member-list order.
    pub nodes: Vec<NodeReport>,
    /// Chaos-run extension: what the kill/restart schedule did and the
    /// per-node availability windows it opened. `None` (and absent from
    /// the JSON) outside [`run_cluster_chaos`], so stable-membership
    /// reports keep their exact old shape.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub chaos: Option<ChaosReport>,
}

impl ClusterReport {
    /// True when no node saw staleness violations, version anomalies,
    /// or payload checksum mismatches.
    pub fn is_clean(&self) -> bool {
        self.aggregate.is_clean()
    }

    /// Record the schedule identity (scenario or generator name + seed)
    /// on the aggregate and every per-node report, so each row of the
    /// JSON stays independently reproducible.
    pub fn set_identity(&mut self, scenario: &str, seed: u64) {
        self.aggregate.set_identity(scenario, seed);
        for node in &mut self.nodes {
            node.report.set_identity(scenario, seed);
        }
    }
}

impl std::fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.aggregate)?;
        writeln!(f, "per node:")?;
        for n in &self.nodes {
            writeln!(
                f,
                "  {}: {} ops ({:.0}/s)  status {}/{}/{}/{} F/SS/RS/M  p99 {:.1}us  anomalies {}",
                n.addr,
                n.report.ops,
                n.report.ops_per_sec,
                n.report.fresh,
                n.report.stale_served,
                n.report.refused_stale,
                n.report.misses,
                n.report.p99_latency_us,
                n.report.version_anomalies
            )?;
        }
        if let Some(chaos) = &self.chaos {
            writeln!(
                f,
                "chaos: {} ({} kills, {} restarts, {} reconnects, {} ops lost, final epoch {})",
                chaos.schedule,
                chaos.kills,
                chaos.restarts,
                chaos.reconnects,
                chaos.error_ops,
                chaos.final_epoch
            )?;
            for w in &chaos.windows {
                if w.killed_at_secs < 0.0 {
                    continue;
                }
                match w.window_secs() {
                    Some(secs) => writeln!(
                        f,
                        "  {}: down {:.2}s (killed {:.2}s, back {:.2}s)  {} ops lost  handoff in/out {}/{}",
                        w.node,
                        secs,
                        w.killed_at_secs,
                        w.recovered_at_secs,
                        w.error_ops,
                        w.handoff_in,
                        w.handoff_out
                    )?,
                    None => writeln!(
                        f,
                        "  {}: killed {:.2}s, NEVER RECOVERED  {} ops lost",
                        w.node, w.killed_at_secs, w.error_ops
                    )?,
                }
            }
        }
        Ok(())
    }
}

/// Fan a schedule out across a consistent-hash cluster: each op goes to
/// the node owning its key (the same ring placement every other cluster
/// participant computes), all nodes are driven concurrently, and the
/// result carries both per-node and merged aggregate reports.
///
/// `nodes` pairs each member's ring name (the address string as typed —
/// all participants must spell it identically) with its resolved socket
/// address. In closed-loop mode each node gets its own `connections`
/// workers over its share of the schedule, so the nodes are driven as
/// independently as they serve; in open-loop mode one worker holds a
/// connection to every node and sends each op at its deadline on the
/// shared schedule clock, so cross-node ordering follows the trace.
pub fn run_cluster(
    nodes: &[(String, SocketAddr)],
    ops: &[TimedOp],
    config: &LoadGenConfig,
) -> io::Result<ClusterReport> {
    // What each group of workers drives: some nodes and their ops.
    let (window, workers, groups) = match config.mode {
        Mode::Open => (None, 1, vec![(nodes, ops.iter().enumerate().collect())]),
        Mode::Closed { connections } => {
            // Partition the schedule by ring owner, in schedule order.
            let names: Vec<&str> = nodes.iter().map(|(name, _)| name.as_str()).collect();
            let ring = HashRing::try_from_members(DEFAULT_VNODES, &names)?;
            let mut groups: Vec<_> = nodes.chunks(1).map(|node| (node, Vec::new())).collect();
            for (index, op) in ops.iter().enumerate() {
                let owner = ring.node_index_for(op.op.key()).expect("non-empty ring");
                groups[owner].1.push((index, op));
            }
            (Some(config.pipeline.max(1)), connections, groups)
        }
    };
    assert!(workers >= 1, "need at least one connection");
    let before = probe(nodes);
    let started = Instant::now();
    let lanes: Vec<io::Result<Vec<Lane>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (groups.iter())
            .flat_map(|group| (0..workers).map(move |w| (group, w)))
            .map(|((members, share), w)| {
                s.spawn(move || {
                    // Strided partition: worker w takes ops w, w+N,
                    // w+2N, … so key locality and the read/write
                    // interleaving stay roughly uniform across workers.
                    let mine = share.iter().copied().skip(w).step_by(workers);
                    Driver::connect(members, window, config.value_bytes, started, None, 0)?
                        .run(mine)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen worker panicked")).collect()
    });
    let wall = started.elapsed();
    let mut results = vec![WorkerResult::default(); nodes.len()];
    for lane in lanes.into_iter().collect::<io::Result<Vec<_>>>()?.into_iter().flatten() {
        let node = nodes.iter().position(|(name, _)| *name == lane.name).expect("a member");
        results[node].merge(&lane.res);
    }
    let (aggregate, nodes) = reports(nodes, &results, &before, &probe(nodes), wall);
    Ok(ClusterReport { aggregate, nodes, chaos: None })
}

/// Replay a schedule against a live-membership cluster while a
/// [`ChaosSchedule`] kills and restarts nodes under it, measuring what
/// churn costs: per-node availability windows, operations lost,
/// reconnects, and — via the usual trackers — any staleness violation,
/// version anomaly, or checksum mismatch the churn induced. Puts draw
/// their sizes from `value_bytes` when given, like
/// [`LoadGenConfig::value_bytes`].
///
/// The run is always **deadline-paced** (the chaos events fire at
/// wall-clock offsets, so the load must span wall time; a closed loop
/// could finish before the first kill). One driver thread owns a
/// pipelined connection per node and routes every op by the *current*
/// membership view: the chaos controller (a second thread) SIGKILLs
/// the victim, tells a survivor it left, and the epoch bump re-routes
/// the victim's keys — so ops lost to a death are bounded by the
/// leave-adoption latency, not the node's downtime. A dead connection's
/// in-flight ops are counted lost to its node, and reconnects are paced
/// by a seeded [`Backoff`] so runs stay reproducible.
///
/// Version floors are tracked per node and reset when a node's restart
/// *incarnation* changes: a respawned node allocates versions from a
/// fresh counter, so floors from its previous life would be false
/// anomalies. Cross-incarnation staleness still cannot hide — values
/// are checksummed against their key's deterministic pattern, and
/// handoff only ever moves servably-fresh entries.
///
/// On return the cluster's membership has been seeded (every node
/// joined through node 0) and the [`ChaosReport`] is attached to the
/// [`ClusterReport::chaos`] field.
pub fn run_cluster_chaos(
    nodes: &[(String, SocketAddr)],
    ops: &[TimedOp],
    value_bytes: Option<ValueDist>,
    schedule: &ChaosSchedule,
    supervisor: &mut dyn Supervisor,
    seed: u64,
) -> io::Result<ClusterReport> {
    if nodes.len() < 2 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "chaos runs need at least two nodes (a survivor processes leaves and joins)",
        ));
    }
    // Seed the cluster's own membership to the full node list: join
    // every member through node 0; the announcements fan the final
    // epoch out to everyone.
    let mut admin = CacheClient::connect(nodes[0].1)?;
    let mut view = (0u64, Vec::new());
    for (name, _) in nodes {
        view = admin.join(name)?;
    }
    let shared = ChaosShared::new(nodes.len(), view.0, view.1);
    let before = probe(nodes);
    let started = Instant::now();
    let (stamps, lanes) = std::thread::scope(|s| {
        let controller =
            s.spawn(|| chaos::run_schedule(schedule, supervisor, nodes, started, &shared));
        let lanes = Driver::connect(nodes, None, value_bytes, started, Some(&shared), seed)
            .and_then(|driver| driver.run(ops.iter().enumerate()));
        (controller.join().expect("chaos controller panicked"), lanes)
    });
    let lanes = lanes?;
    let wall = started.elapsed();
    // Post-run probes: killed nodes have restarted by now (the
    // controller waited for them), so these see the post-handoff state.
    let after = probe(nodes);
    let windows: Vec<NodeWindow> = lanes
        .iter()
        .zip(stamps.iter().zip(&after))
        .map(|(lane, (&(killed, restarted), probe))| {
            let recovered =
                lane.recovered.map_or(-1.0, |at| at.duration_since(started).as_secs_f64());
            // A recovery before the kill cannot close the kill's window.
            let recovered = if killed >= 0.0 && recovered < killed { -1.0 } else { recovered };
            NodeWindow {
                node: lane.name.clone(),
                killed_at_secs: killed,
                restarted_at_secs: restarted,
                recovered_at_secs: recovered,
                error_ops: lane.error_ops,
                refusals: lane.res.refused,
                handoff_in: probe.handoff_in,
                handoff_out: probe.handoff_out,
                epoch: probe.epoch,
            }
        })
        .collect();
    let error_ops = lanes.iter().map(|lane| lane.error_ops).sum();
    let results: Vec<WorkerResult> = lanes.into_iter().map(|lane| lane.res).collect();
    let (aggregate, per_node) = reports(nodes, &results, &before, &after, wall);
    let chaos_report = ChaosReport {
        schedule: schedule.name.clone(),
        kills: stamps.iter().filter(|s| s.0 >= 0.0).count() as u64,
        restarts: stamps.iter().filter(|s| s.1 >= 0.0).count() as u64,
        reconnects: aggregate.reconnects,
        error_ops,
        final_epoch: shared.epoch.load(Ordering::Acquire),
        windows,
    };
    Ok(ClusterReport { aggregate, nodes: per_node, chaos: Some(chaos_report) })
}

/// One node's connection and everything measured on it.
#[derive(Debug)]
struct Lane {
    /// The node's ring name.
    name: String,
    addr: SocketAddr,
    /// `None` while the connection is dead (live membership only).
    conn: Option<PipelinedClient>,
    res: WorkerResult,
    /// When each request in flight was (scheduled to be) sent.
    issued_at: HashMap<RequestId, Instant>,
    /// The last acknowledged version per key: a served read below it
    /// is a version anomaly.
    acked: HashMap<u64, u64>,
    /// True when every put this run issues carries a non-empty value —
    /// then a *served* empty value is itself a checksum mismatch
    /// (an empty slice trivially matches its own empty pattern, so
    /// without this a payload-dropping bug would read as clean).
    expect_nonempty: bool,
    /// Ops lost to this node: in flight on a connection that died, or
    /// routed to it while it could not be reached.
    error_ops: u64,
    /// The restart incarnation the version floors in `acked` belong to.
    incarnation: u32,
    /// True from a reconnect until the first op completes after it.
    recovering: bool,
    /// When the first op completed after the last reconnect: the close
    /// of the node's unavailability window.
    recovered: Option<Instant>,
    /// Under live membership a connection error is an outage to ride
    /// out; on a fixed view it ends the run.
    live: bool,
    backoff: Backoff,
    attempts: u32,
    retry_at: Instant,
}

impl Lane {
    fn new(name: &str, addr: SocketAddr, dist: Option<ValueDist>, seed: u64) -> Self {
        let (base, cap) = (Duration::from_millis(25), Duration::from_millis(500));
        Lane {
            name: name.to_string(),
            addr,
            conn: None,
            res: WorkerResult::default(),
            issued_at: HashMap::new(),
            acked: HashMap::new(),
            expect_nonempty: dist.is_some_and(|d| d.min_size() > 0),
            error_ops: 0,
            incarnation: 0,
            recovering: false,
            recovered: None,
            live: false,
            backoff: Backoff::new(base, cap, u32::MAX, seed),
            attempts: 0,
            retry_at: Instant::now(),
        }
    }

    fn in_flight(&self) -> usize {
        self.conn.as_ref().map_or(0, PipelinedClient::in_flight)
    }

    /// Fold one completion into the counters; the first after a
    /// reconnect closes the node's unavailability window.
    fn completed(&mut self, id: RequestId, resp: Response, now: Instant) -> io::Result<()> {
        let Some(issued) = self.issued_at.remove(&id) else {
            let unknown = format!("response for unknown request {id}");
            return Err(io::Error::new(io::ErrorKind::InvalidData, unknown));
        };
        if std::mem::take(&mut self.recovering) {
            self.recovered = Some(now);
        }
        let res = &mut self.res;
        res.latency_us.record(now.saturating_duration_since(issued).as_nanos() as f64 / 1e3);
        match resp {
            Response::Get { key, outcome } => {
                match outcome.status {
                    GetStatus::Fresh => res.fresh += 1,
                    GetStatus::ServedStale => res.stale_served += 1,
                    GetStatus::RefusedStale => res.refused += 1,
                    GetStatus::Miss => res.misses += 1,
                }
                if outcome.is_served() {
                    // Every served value is checksummed against the
                    // deterministic pattern for its key and length — a
                    // framing bug that shifts, truncates, or corrupts
                    // payload bytes fails here even when sizes add up.
                    // A served *empty* value is also a mismatch when no
                    // writer in this run produces empty values.
                    res.value_bytes_read += outcome.value.len() as u64;
                    let dropped = self.expect_nonempty && outcome.value.is_empty();
                    if dropped || !payload::verify(key, &outcome.value) {
                        res.checksum_mismatches += 1;
                    }
                    if let Some(&expected) = self.acked.get(&key) {
                        if outcome.version < expected {
                            res.version_anomalies += 1;
                        }
                    }
                }
            }
            Response::Put { key, version } => {
                self.acked.insert(key, version);
            }
        }
        Ok(())
    }

    /// Collect every completion that is ready on this connection (which
    /// first sends what is queued); returns how many.
    fn drain(&mut self) -> io::Result<usize> {
        let mut ready = 0;
        while let Some(conn) = self.conn.as_mut() {
            match conn.try_complete() {
                Ok(Some((id, resp))) => {
                    self.completed(id, resp, Instant::now())?;
                    ready += 1;
                }
                Ok(None) => break,
                Err(e) => self.on_error(e)?,
            }
        }
        Ok(ready)
    }

    /// The connection died — the run's error on a fixed view, an outage
    /// to count and ride out under live membership: the ops in flight
    /// on it are lost to this node and it is dropped. Version floors
    /// survive — the *node* may still be alive (and its versions
    /// monotone); they reset only when its restart incarnation moves.
    fn on_error(&mut self, e: io::Error) -> io::Result<()> {
        if !self.live {
            return Err(e);
        }
        self.error_ops += self.issued_at.len() as u64;
        self.issued_at.clear();
        self.conn = None;
        self.attempts = 0;
        self.retry_at = Instant::now();
        Ok(())
    }

    /// Replace a dead connection to node `i` once the node is believed
    /// up and the backoff allows. A node that restarted counts versions
    /// from scratch, so the floors of its previous life are dropped.
    fn reconnect(&mut self, shared: &ChaosShared, i: usize) {
        let now = Instant::now();
        if self.conn.is_some() || shared.down[i].load(Ordering::Acquire) || now < self.retry_at {
            return;
        }
        match PipelinedClient::connect(self.addr) {
            Ok(conn) => {
                self.conn = Some(conn);
                self.res.reconnects += 1;
                self.recovering = true;
                let incarnation = shared.incarnations[i].load(Ordering::Acquire);
                if incarnation != self.incarnation {
                    self.incarnation = incarnation;
                    self.acked.clear();
                }
            }
            Err(_) => {
                self.attempts += 1;
                self.retry_at = now + self.backoff.delay(self.attempts);
            }
        }
    }
}

/// The one load driver: replays a schedule over one pipelined
/// connection per node, routing each op to its key's owner, and
/// collects completions as they arrive. When the next op is due is the
/// only difference between a closed and an open loop.
struct Driver<'a> {
    lanes: Vec<Lane>,
    ring: HashRing,
    /// Closed loop: the most requests in flight per connection; an op
    /// is due once every window has room. `None` is the open loop: an
    /// op is due at its scheduled offset from the start.
    window: Option<usize>,
    dist: Option<ValueDist>,
    started: Instant,
    /// Live membership (chaos runs): ops route by its current view and
    /// a dead connection is an outage; without it (a fixed view) a
    /// connection failure ends the run with an error.
    live: Option<&'a ChaosShared>,
    /// The epoch `ring` was built from.
    epoch: u64,
    poll: PollSet,
}

impl<'a> Driver<'a> {
    /// Connect to every node; `seed` seeds the reconnect backoffs.
    fn connect(
        nodes: &[(String, SocketAddr)],
        window: Option<usize>,
        dist: Option<ValueDist>,
        started: Instant,
        live: Option<&'a ChaosShared>,
        seed: u64,
    ) -> io::Result<Self> {
        let mut lanes = Vec::with_capacity(nodes.len());
        for (i, (name, addr)) in nodes.iter().enumerate() {
            let mut lane = Lane::new(name, *addr, dist, seed ^ payload::mix(i as u64));
            lane.conn = Some(PipelinedClient::connect(addr)?);
            lane.live = live.is_some();
            lanes.push(lane);
        }
        let fixed = || nodes.iter().map(|(name, _)| name.clone()).collect();
        let members: Vec<String> = live.map_or_else(fixed, ChaosShared::view_snapshot);
        let ring = HashRing::try_from_members(DEFAULT_VNODES, &members)?;
        let epoch = live.map_or(0, |shared| shared.epoch.load(Ordering::Acquire));
        Ok(Driver { lanes, ring, window, dist, started, live, epoch, poll: PollSet::new() })
    }

    /// Replay `ops` (schedule index, op) and hand back the lanes once
    /// every request was answered (or, under live membership, lost).
    fn run<'o>(mut self, ops: impl Iterator<Item = (usize, &'o TimedOp)>) -> io::Result<Vec<Lane>> {
        for (index, op) in ops {
            let at = self.started + Duration::from_nanos(op.at.as_nanos());
            let mut lane = self.route(op.op.key());
            // Collect what is ready (which sends what is queued) until
            // the op is due. A closed loop with room in its lane's window
            // skips this, so a whole top-up leaves in one write; an open
            // loop always collects, so its requests leave even when behind.
            let open = self.window.is_none();
            if open || !self.due(lane, at) {
                loop {
                    let ready = self.drain()?;
                    if self.due(lane, at) {
                        break;
                    }
                    if ready == 0 {
                        self.wait(open.then_some(at))?;
                    }
                }
                // Live membership may have moved the key while we waited.
                lane = self.route(op.op.key());
            }
            let issued = if open { at } else { Instant::now() };
            self.submit(index, op, lane, issued)?;
        }
        // Collect the tail. Under live membership a connection that stays
        // silent for a second is dead, losing its tail like any death.
        while self.lanes.iter().any(|lane| lane.in_flight() > 0) {
            let patience = self.live.map(|_| Instant::now() + Duration::from_secs(1));
            if self.drain()? == 0 && self.wait(patience)? == 0 {
                for lane in self.lanes.iter_mut().filter(|lane| lane.in_flight() > 0) {
                    lane.on_error(io::Error::new(io::ErrorKind::TimedOut, "node went silent"))?;
                }
            }
        }
        Ok(self.lanes)
    }

    /// True when the next op, routed to `lane`, may go: that lane's
    /// window has room (closed loop) or its deadline `at` has passed
    /// (open loop).
    fn due(&self, lane: Option<usize>, at: Instant) -> bool {
        match self.window {
            Some(depth) => closed_due(|i| self.lanes[i].in_flight(), lane, depth),
            None => Instant::now() >= at,
        }
    }

    fn drain(&mut self) -> io::Result<usize> {
        self.lanes.iter_mut().map(Lane::drain).sum()
    }

    /// Send what is queued, then sleep in one poll over the connections
    /// with requests in flight until one can be read (or written, when
    /// bytes are pending) or `until` passes — to the microsecond, since
    /// `minipoll` waits in `ppoll(2)` on Linux. Returns how many are
    /// ready: 0 means `until` passed.
    fn wait(&mut self, until: Option<Instant>) -> io::Result<usize> {
        self.poll.clear();
        for lane in &mut self.lanes {
            let Some(conn) = lane.conn.as_mut().filter(|conn| conn.in_flight() > 0) else {
                continue;
            };
            match conn.flush() {
                Ok(()) => {
                    let (fd, interest) = conn.interest();
                    self.poll.push(fd, interest);
                }
                Err(e) => lane.on_error(e)?,
            }
        }
        let timeout = until.map(|at| at.saturating_duration_since(Instant::now()));
        if self.poll.is_empty() {
            // Nothing to hear from: sleep out the wait.
            std::thread::sleep(timeout.unwrap_or_default());
            return Ok(0);
        }
        self.poll.poll(timeout)
    }

    /// Queue one op on `lane`, its owner's connection, reconnecting
    /// first under live membership; an op whose owner cannot be reached
    /// is lost to that node's window.
    fn submit(
        &mut self,
        index: usize,
        op: &TimedOp,
        lane: Option<usize>,
        issued: Instant,
    ) -> io::Result<()> {
        let Some(i) = lane else { return Ok(()) };
        let lane = &mut self.lanes[i];
        if let Some(shared) = self.live {
            lane.reconnect(shared, i);
        }
        let Some(conn) = lane.conn.as_mut() else {
            lane.error_ops += 1;
            return Ok(());
        };
        let id = match op.op {
            WireOp::Get { key, max_staleness } => {
                lane.res.gets += 1;
                conn.submit_get(key, max_staleness)?
            }
            WireOp::Put { key, value_size, ttl } => {
                let len = self.dist.map_or(value_size, |d| d.sample(op_hash(key, index as u64)));
                lane.res.puts += 1;
                lane.res.value_bytes_written += len as u64;
                conn.submit_put(key, payload::pattern(key, len as usize), ttl)?
            }
        };
        lane.issued_at.insert(id, issued);
        Ok(())
    }

    /// The lane of `key`'s owner. A live view is re-read when the
    /// controller moved the epoch (a leave after a kill, a join after a
    /// restart).
    fn route(&mut self, key: u64) -> Option<usize> {
        if let Some(shared) = self.live {
            let epoch = shared.epoch.load(Ordering::Acquire);
            if epoch != self.epoch {
                self.epoch = epoch;
                let view = HashRing::try_from_members(DEFAULT_VNODES, &shared.view_snapshot());
                self.ring = view.unwrap_or_else(|_| self.ring.clone());
            }
        }
        let owner = self.ring.node_for(key)?;
        self.lanes.iter().position(|lane| lane.name == owner)
    }
}

/// Closed-loop admission: an op routed to lane `to` is due once that
/// lane has fewer than `depth` requests in flight, whatever the other
/// lanes hold — one full or slow node must not stall ops bound for the
/// rest. An op no lane owns (`None`) is due at once: it is lost to its
/// node's window, not queued.
fn closed_due(in_flight: impl Fn(usize) -> usize, to: Option<usize>, depth: usize) -> bool {
    to.is_none_or(|lane| in_flight(lane) < depth)
}

fn build_report(r: &WorkerResult, wall: Duration) -> LoadReport {
    let ops = r.gets + r.puts;
    let wall_secs = wall.as_secs_f64();
    let quantile = |q| r.latency_us.quantile(q).unwrap_or(0.0);
    LoadReport {
        wall_secs,
        ops,
        gets: r.gets,
        puts: r.puts,
        ops_per_sec: if wall_secs > 0.0 { ops as f64 / wall_secs } else { 0.0 },
        fresh: r.fresh,
        stale_served: r.stale_served,
        refused_stale: r.refused,
        staleness_violations: r.refused,
        misses: r.misses,
        hit_ratio: if r.gets > 0 { (r.fresh + r.stale_served) as f64 / r.gets as f64 } else { 0.0 },
        version_anomalies: r.version_anomalies,
        checksum_mismatches: r.checksum_mismatches,
        value_bytes_read: r.value_bytes_read,
        value_bytes_written: r.value_bytes_written,
        reconnects: r.reconnects,
        mean_latency_us: r.latency_us.mean().unwrap_or(0.0),
        p50_latency_us: quantile(0.50),
        p99_latency_us: quantile(0.99),
        p999_latency_us: quantile(0.999),
        // Schedule identity is attached by the caller via
        // `set_identity` — the engine only sees the op list — and the
        // refetch counters come from server-side probes, attributed by
        // the report path via `attribute`.
        ..LoadReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latencies(samples_us: &[f64]) -> Histogram {
        let mut latency = WorkerResult::default().latency_us;
        for &us in samples_us {
            latency.record(us);
        }
        latency
    }

    /// `got` is what the histogram reports for a quantile whose
    /// nearest-rank sample is `exact`.
    fn within_bucket(got: f64, exact: f64) -> bool {
        exact <= got && got <= exact * LATENCY_BUCKET_BASE
    }

    #[test]
    fn merge_accumulates_and_report_divides() {
        let mut a = WorkerResult {
            gets: 10,
            puts: 5,
            fresh: 6,
            stale_served: 1,
            refused: 2,
            misses: 1,
            latency_us: latencies(&[10.0, 20.0]),
            ..Default::default()
        };
        let b = WorkerResult {
            gets: 10,
            puts: 0,
            fresh: 10,
            latency_us: latencies(&[30.0, 40.0]),
            ..Default::default()
        };
        a.merge(&b);
        let report = build_report(&a, Duration::from_secs(2));
        assert_eq!(report.ops, 25);
        assert_eq!(report.gets, 20);
        assert_eq!(report.ops_per_sec, 12.5);
        assert_eq!(report.staleness_violations, 2);
        assert_eq!(report.refused_stale, 2, "per-status twin of the violation count");
        assert!(!report.is_clean());
        assert!((report.hit_ratio - 17.0 / 20.0).abs() < 1e-9);
        assert_eq!(report.mean_latency_us, 25.0);
        assert!(within_bucket(report.p50_latency_us, 20.0), "{}", report.p50_latency_us);
        assert_eq!(report.p99_latency_us, 40.0);
        assert_eq!(report.p999_latency_us, 40.0);
        // Display stays well-formed and breaks reads down by status.
        let shown = report.to_string();
        assert!(shown.contains("25 ops"));
        assert!(shown.contains("p999"));
        assert!(shown.contains("staleness violations: 2"));
        assert!(
            shown.contains("status: 16 Fresh / 1 ServedStale / 2 RefusedStale / 1 Miss"),
            "status breakdown missing: {shown}"
        );
    }

    #[test]
    fn cluster_report_aggregates_and_displays_per_node() {
        let node = |fresh: u64, refused: u64| WorkerResult {
            gets: fresh + refused,
            fresh,
            refused,
            latency_us: latencies(&[10.0, 30.0]),
            ..Default::default()
        };
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let nodes = [("a:1".to_string(), addr), ("b:2".to_string(), addr)];
        let before = [ServerProbe::default(); 2];
        let after = [ServerProbe { refetches: 3, slab_entries: 5, ..ServerProbe::default() }; 2];
        let (aggregate, nodes) =
            reports(&nodes, &[node(8, 0), node(4, 2)], &before, &after, Duration::from_secs(1));
        let report = ClusterReport { aggregate, nodes, chaos: None };
        assert_eq!(report.aggregate.gets, 14);
        assert_eq!(report.aggregate.refused_stale, 2);
        assert_eq!((report.aggregate.refetches, report.aggregate.slab_entries), (6, 10));
        assert_eq!(report.nodes[1].report.refetches, 3, "each node keeps its own probe delta");
        assert!(!report.is_clean(), "aggregate carries the violating node's refusals");
        let shown = report.to_string();
        assert!(shown.contains("per node:"), "{shown}");
        assert!(shown.contains("a:1") && shown.contains("b:2"), "{shown}");
        let json = serde_json::to_string(&report).unwrap();
        for field in ["aggregate", "nodes", "addr", "refused_stale"] {
            assert!(json.contains(field), "cluster JSON missing {field}: {json}");
        }
    }

    #[test]
    fn value_dist_parses_samples_and_bounds() {
        assert_eq!(ValueDist::parse("fixed:128"), Some(ValueDist::Fixed(128)));
        assert_eq!(
            ValueDist::parse("uniform:16:4096"),
            Some(ValueDist::Uniform { min: 16, max: 4096 })
        );
        assert_eq!(ValueDist::parse("zipf:1024"), Some(ValueDist::Zipf { max: 1024 }));
        for bad in ["", "fixed", "fixed:x", "uniform:9:3", "zipf:0", "pareto:4", "fixed:1:2"] {
            assert_eq!(ValueDist::parse(bad), None, "{bad:?} should not parse");
        }
        // Sizes beyond the codec's MAX_VALUE are rejected at the flag,
        // not discovered as a mid-run protocol error.
        let over = (fresca_net::MAX_VALUE as u64 + 1).to_string();
        assert_eq!(ValueDist::parse(&format!("fixed:{over}")), None);
        assert_eq!(ValueDist::parse(&format!("uniform:1:{over}")), None);
        // Samples are deterministic and within bounds.
        let d = ValueDist::Uniform { min: 16, max: 4096 };
        for i in 0..1000u64 {
            let n = d.sample(op_hash(i, i));
            assert!((16..=4096).contains(&n), "{n}");
            assert_eq!(n, d.sample(op_hash(i, i)), "deterministic");
        }
        let z = ValueDist::Zipf { max: 4096 };
        let mut small = 0;
        for i in 0..1000u64 {
            let n = z.sample(op_hash(i, 7));
            assert!((1..=4096).contains(&n), "{n}");
            if n <= 64 {
                small += 1;
            }
        }
        assert!(small > 400, "zipf-sized draws skew small, got {small}/1000 ≤ 64B");
    }

    #[test]
    fn served_empty_value_counts_as_mismatch_when_writers_never_write_empty() {
        use crate::client::GetOutcome;
        use fresca_net::GetStatus;

        let served_empty = |dist: Option<ValueDist>| {
            let mut lane = Lane::new("a:1", "127.0.0.1:1".parse().unwrap(), dist, 0);
            let id = RequestId(1);
            lane.issued_at.insert(id, Instant::now());
            lane.completed(
                id,
                Response::Get {
                    key: 7,
                    outcome: GetOutcome {
                        status: GetStatus::Fresh,
                        version: 1,
                        value: bytes::Bytes::new(),
                        age: fresca_sim::SimDuration::ZERO,
                    },
                },
                Instant::now(),
            )
            .unwrap();
            lane.res.checksum_mismatches
        };
        // All writers send ≥16 bytes: a served empty value is a payload
        // drop, even though an empty slice matches its own pattern.
        assert_eq!(served_empty(Some(ValueDist::Uniform { min: 16, max: 64 })), 1);
        // Trace-driven sizes may legitimately be zero: not flagged.
        assert_eq!(served_empty(None), 0);
    }

    #[test]
    fn identity_threads_through_single_and_cluster_reports() {
        let mut report = build_report(&WorkerResult::default(), Duration::from_secs(1));
        assert_eq!(report.scenario, "", "identity is opt-in");
        report.set_identity("flash-crowd", 42);
        assert_eq!((report.scenario.as_str(), report.seed), ("flash-crowd", 42));
        let shown = report.to_string();
        assert!(shown.contains("schedule: flash-crowd (seed 42)"), "{shown}");
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"scenario\"") && json.contains("\"seed\""), "{json}");

        let mut cluster = ClusterReport {
            aggregate: build_report(&WorkerResult::default(), Duration::from_secs(1)),
            nodes: vec![NodeReport {
                addr: "a:1".into(),
                report: build_report(&WorkerResult::default(), Duration::from_secs(1)),
            }],
            chaos: None,
        };
        cluster.set_identity("diurnal", 7);
        assert_eq!(cluster.aggregate.scenario, "diurnal");
        assert_eq!(cluster.nodes[0].report.seed, 7);
    }

    #[test]
    fn empty_run_reports_zeros() {
        let report = build_report(&WorkerResult::default(), Duration::from_millis(1));
        assert_eq!(report.ops, 0);
        assert_eq!(report.hit_ratio, 0.0);
        assert_eq!(report.mean_latency_us, 0.0);
        assert_eq!(report.p999_latency_us, 0.0);
        assert!(report.is_clean());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        // Two workers' samples, spread over many buckets.
        let a: Vec<f64> = (1..=1000).map(f64::from).collect();
        let b: Vec<f64> = (1..=500).map(|i| f64::from(i * i) / 7.0).collect();
        let mut merged = WorkerResult { latency_us: latencies(&a), ..Default::default() };
        merged.merge(&WorkerResult { latency_us: latencies(&b), ..Default::default() });
        let mut all = [a, b].concat();
        let one = latencies(&all);
        all.sort_by(f64::total_cmp);
        let nearest_rank = |q: f64| all[((all.len() as f64 * q).ceil() as usize).max(1) - 1];
        let report = build_report(&merged, Duration::from_secs(1));
        for (q, reported) in [
            (0.5, report.p50_latency_us),
            (0.99, report.p99_latency_us),
            (0.999, report.p999_latency_us),
        ] {
            assert!(
                within_bucket(reported, nearest_rank(q)),
                "q{q}: {reported} vs {}",
                nearest_rank(q)
            );
            // Merging two workers' histograms equals recording every
            // sample in one.
            assert_eq!(Some(reported), one.quantile(q), "q{q}");
        }
        assert_eq!(merged.latency_us.count(), one.count());
        assert_eq!(merged.latency_us.max(), one.max());
        assert!((report.mean_latency_us - one.mean().unwrap()).abs() < 1e-9);
        assert_eq!(latencies(&[42.0]).quantile(0.999), Some(42.0));
    }

    #[test]
    fn report_serializes_to_json() {
        let report = build_report(
            &WorkerResult {
                gets: 2,
                puts: 1,
                fresh: 2,
                latency_us: latencies(&[5.0, 7.0, 9.0]),
                ..Default::default()
            },
            Duration::from_secs(1),
        );
        let json = serde_json::to_string(&report).unwrap();
        for field in [
            "ops_per_sec",
            "hit_ratio",
            "p50_latency_us",
            "p99_latency_us",
            "p999_latency_us",
            "version_anomalies",
        ] {
            assert!(json.contains(field), "JSON missing {field}: {json}");
        }
    }

    #[test]
    fn a_full_lane_stalls_only_its_own_ops() {
        // Two lanes, the first at its depth of 4.
        let in_flight = [4, 1];
        let of = |lane: usize| in_flight[lane];
        assert!(closed_due(of, Some(1), 4), "an op for the other lane is due");
        assert!(!closed_due(of, Some(0), 4), "an op for the full lane waits");
        assert!(closed_due(of, None, 4), "an op no lane owns is not held back");
    }

    /// An open loop against a node that answers at once sends every op
    /// at its deadline, though the gaps are far below the millisecond
    /// `poll(2)` resolves: with nothing in flight the driver sleeps
    /// exactly, so no op waits out a rounded-up poll timeout.
    #[test]
    fn open_loop_sends_each_op_at_its_sub_millisecond_deadline() {
        use fresca_net::{FramedStream, Message};

        const OPS: u64 = 200;
        const GAP_US: u64 = 300;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The node: note when each request arrives and answer it at once.
        let node = std::thread::spawn(move || {
            let stream = listener.accept().unwrap().0;
            stream.set_nodelay(true).unwrap();
            let mut framed = FramedStream::new(stream);
            let mut arrived = Vec::new();
            while let Ok(Some(Message::GetReq { id, key, .. })) = framed.recv() {
                arrived.push(Instant::now());
                let value = bytes::Bytes::new();
                let miss = Message::GetResp {
                    id,
                    key,
                    version: 0,
                    value,
                    age: 0,
                    status: GetStatus::Miss,
                };
                framed.send(&miss).unwrap();
            }
            arrived
        });
        let ops: Vec<TimedOp> = (0..OPS)
            .map(|k| TimedOp {
                at: fresca_sim::SimTime::from_micros(k * GAP_US),
                op: WireOp::Get { key: k, max_staleness: None },
            })
            .collect();
        let started = Instant::now() + Duration::from_millis(20);
        let nodes = [(addr.to_string(), addr)];
        let driver = Driver::connect(&nodes, None, None, started, None, 0).unwrap();
        let lanes = driver.run(ops.iter().enumerate()).unwrap();
        assert_eq!((lanes[0].res.gets, lanes[0].res.misses), (OPS, OPS));
        drop(lanes); // hangs up: the node's loop ends
        let arrived = node.join().unwrap();
        assert_eq!(arrived.len(), OPS as usize);
        let mut late_us: Vec<u128> = (arrived.iter().zip(&ops))
            .map(|(at, op)| (*at - (started + Duration::from_nanos(op.at.as_nanos()))).as_micros())
            .collect();
        // On 2 vCPUs the median op arrives ~100 µs late (timer slack and
        // the hop to the node); waiting in a rounded-up poll(2) makes it
        // ~600 µs. The tail is the scheduler's, so only the median gates.
        late_us.sort_unstable();
        let median = late_us[late_us.len() / 2];
        assert!(median < 300, "the median op went out {median} µs after its deadline");
    }

    #[test]
    fn recovery_is_stamped_at_the_first_completion_after_a_reconnect() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shared = ChaosShared::new(1, 1, vec![addr.to_string()]);
        let mut lane = Lane::new("a", addr, None, 7);
        lane.acked.insert(9, 40);

        // The node is down: no reconnect is even tried.
        shared.down[0].store(true, Ordering::Release);
        lane.reconnect(&shared, 0);
        assert!(lane.conn.is_none());
        // Back up, restarted: the reconnect alone leaves the window
        // open, and the previous life's version floors are gone.
        shared.down[0].store(false, Ordering::Release);
        shared.incarnations[0].store(1, Ordering::Release);
        lane.reconnect(&shared, 0);
        assert!(lane.conn.is_some());
        assert_eq!(lane.res.reconnects, 1);
        assert_eq!(lane.recovered, None, "connected, but nothing completed yet");
        assert!(lane.acked.is_empty());

        // The first completion closes the window; later ones keep it.
        let t0 = Instant::now();
        let (first, later) = (t0 + Duration::from_millis(5), t0 + Duration::from_millis(9));
        for (n, done) in [first, later].into_iter().enumerate() {
            let id = RequestId(n as u64 + 1);
            lane.issued_at.insert(id, t0);
            lane.completed(id, Response::Put { key: 1, version: id.0 }, done).unwrap();
        }
        assert_eq!(lane.recovered, Some(first));
    }
}
