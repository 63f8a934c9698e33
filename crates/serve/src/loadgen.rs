//! Closed- and open-loop load generation against a running server, with
//! request pipelining and per-request latency percentiles.
//!
//! Both modes replay the same [`TimedOp`] schedule (a `fresca-workload`
//! trace mapped through [`fresca_workload::replay::ReplayConfig`]) over
//! [`PipelinedClient`] connections, so many requests ride each
//! connection concurrently and responses are matched back to requests by
//! [`RequestId`]:
//!
//! * **Closed loop** — `connections` worker threads each keep up to
//!   `pipeline` requests in flight back-to-back: offered load tracks
//!   service capacity, which is how you measure peak throughput.
//! * **Open loop** — one connection sends each operation at its
//!   scheduled deadline *without waiting for earlier responses*: offered
//!   load is fixed by the trace's (rescaled) arrival process. Latency is
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
//! **Cluster fan-out** ([`run_cluster`]): given several node addresses,
//! the schedule is partitioned by the same consistent-hash ring every
//! other cluster participant uses ([`crate::ring`]) and each node's
//! share is replayed against it concurrently — closed loop with
//! `connections` workers *per node*, open loop with one deadline-paced
//! connection per node. The result is a [`ClusterReport`]: one
//! [`LoadReport`] per node plus the merged aggregate (aggregate
//! percentiles are computed over the pooled samples, not averaged).

use crate::chaos::{self, ChaosReport, ChaosSchedule, ChaosShared, NodeWindow, Supervisor};
use crate::client::{Backoff, CacheClient, PipelinedClient, Response, ServerProbe};
use crate::ring::{HashRing, DEFAULT_VNODES};
use fresca_net::{payload, GetStatus, RequestId};
use fresca_workload::{TimedOp, WireOp};
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
    /// Mean request latency in microseconds.
    pub mean_latency_us: f64,
    /// Median request latency in microseconds.
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
    /// Requests the server(s) forwarded to the event loop owning their
    /// key's shard during this run (probed like the refetch counters).
    /// Zero on a single-event-loop server.
    pub cross_core_forwards: u64,
    /// Live entries across the server's event-loop-owned slab shards at
    /// the end of the run (a gauge, not a delta; summed across nodes in
    /// cluster runs).
    pub slab_entries: u64,
    /// Allocated slab slots across the server's owned shards at the end
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

/// Per-worker accumulator, merged into the final [`LoadReport`].
#[derive(Debug, Clone, Default)]
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
    latencies_us: Vec<u64>,
}

impl WorkerResult {
    fn merge(&mut self, other: WorkerResult) {
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
        self.latencies_us.extend(other.latencies_us);
    }
}

/// One worker's bookkeeping for requests in flight: when each id was
/// (scheduled to be) sent, and the last acknowledged version per key.
#[derive(Debug, Default)]
struct Tracker {
    issued_at: HashMap<RequestId, Instant>,
    acked: HashMap<u64, u64>,
    /// True when every put this run issues carries a non-empty value —
    /// then a *served* empty value is itself a checksum mismatch
    /// (an empty slice trivially matches its own empty pattern, so
    /// without this a payload-dropping bug would read as clean).
    expect_nonempty: bool,
}

impl Tracker {
    fn new(dist: Option<ValueDist>) -> Self {
        Tracker {
            expect_nonempty: dist.is_some_and(|d| d.min_size() > 0),
            ..Tracker::default()
        }
    }

    fn issued(&mut self, id: RequestId, at: Instant) {
        self.issued_at.insert(id, at);
    }

    /// Fold one completion into the worker's counters.
    fn completed(
        &mut self,
        res: &mut WorkerResult,
        id: RequestId,
        resp: Response,
        now: Instant,
    ) -> io::Result<()> {
        let issued = self.issued_at.remove(&id).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response for unknown request {id}"),
            )
        })?;
        res.latencies_us.push(now.saturating_duration_since(issued).as_micros() as u64);
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
}

/// Deterministic per-op randomness for value-size draws: the shared
/// SplitMix64 finalizer over the op's key and schedule position.
fn op_hash(key: u64, index: u64) -> u64 {
    payload::mix(key ^ index.rotate_left(32))
}

fn submit(
    client: &mut PipelinedClient,
    op: &WireOp,
    dist: Option<ValueDist>,
    index: u64,
    res: &mut WorkerResult,
) -> io::Result<RequestId> {
    match *op {
        WireOp::Get { key, max_staleness } => client.submit_get(key, max_staleness),
        WireOp::Put { key, value_size, ttl } => {
            let len = dist.map_or(value_size, |d| d.sample(op_hash(key, index)));
            res.value_bytes_written += len as u64;
            client.submit_put(key, payload::pattern(key, len as usize), ttl)
        }
    }
}

/// Snapshot a server's wire-exported counters over a side connection.
/// Best-effort — a server predating `StatsReq`, or a probe hitting a
/// connection limit, reads as zeros rather than failing the run it
/// brackets.
fn probe_refetch_stats(addr: SocketAddr) -> ServerProbe {
    crate::client::CacheClient::connect(addr)
        .and_then(|mut c| c.server_stats())
        .unwrap_or_default()
}

/// Attribute two bracketing probes to a report: cumulative counters
/// (refetches, forwards) as deltas, slab gauges at their end-of-run
/// value.
fn attribute_refetches(report: &mut LoadReport, before: ServerProbe, after: ServerProbe) {
    report.refetches = after.refetches.saturating_sub(before.refetches);
    report.refetch_coalesced = after.refetch_coalesced.saturating_sub(before.refetch_coalesced);
    report.origin_errors = after.origin_errors.saturating_sub(before.origin_errors);
    report.cross_core_forwards =
        after.cross_core_forwards.saturating_sub(before.cross_core_forwards);
    report.slab_entries = after.slab_entries;
    report.slab_capacity = after.slab_capacity;
}

/// Replay `ops` against the server at `addr` and report what happened.
pub fn run(addr: SocketAddr, ops: &[TimedOp], config: &LoadGenConfig) -> io::Result<LoadReport> {
    let before = probe_refetch_stats(addr);
    let started = Instant::now();
    let merged = run_node(addr, ops, config, started)?;
    let wall = started.elapsed();
    let mut report = build_report(merged, wall);
    attribute_refetches(&mut report, before, probe_refetch_stats(addr));
    Ok(report)
}

/// Replay `ops` against one node in the configured mode — the shared
/// engine under both the single-node [`run`] and the per-node workers
/// of [`run_cluster`].
fn run_node(
    addr: SocketAddr,
    ops: &[TimedOp],
    config: &LoadGenConfig,
    started: Instant,
) -> io::Result<WorkerResult> {
    match config.mode {
        Mode::Closed { connections } => {
            assert!(connections >= 1, "need at least one connection");
            let depth = config.pipeline.max(1);
            let results: Vec<io::Result<WorkerResult>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..connections)
                    .map(|w| {
                        s.spawn(move || {
                            // Strided partition: worker w takes ops w,
                            // w+N, w+2N, … so key locality and the
                            // read/write interleaving stay roughly
                            // uniform across workers.
                            run_closed(
                                addr,
                                ops.iter().enumerate().skip(w).step_by(connections),
                                depth,
                                config.value_bytes,
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("loadgen worker panicked")).collect()
            });
            let mut merged = WorkerResult::default();
            for r in results {
                merged.merge(r?);
            }
            Ok(merged)
        }
        Mode::Open => run_open(addr, ops, started, config.value_bytes),
    }
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
    /// Everything merged: counters summed, percentiles over the pooled
    /// latency samples of all nodes.
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
    /// True when no node saw staleness violations or version anomalies.
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
/// workers; in open-loop mode each node gets one connection paced by
/// the shared schedule clock, so cross-node ordering follows the trace.
pub fn run_cluster(
    nodes: &[(String, SocketAddr)],
    ops: &[TimedOp],
    config: &LoadGenConfig,
) -> io::Result<ClusterReport> {
    let names: Vec<&str> = nodes.iter().map(|(name, _)| name.as_str()).collect();
    let ring = HashRing::try_from_members(DEFAULT_VNODES, &names)?;
    // Partition the schedule by ring owner, preserving each node's
    // schedule order (open-loop pacing depends on it).
    let mut per_node: Vec<Vec<TimedOp>> = vec![Vec::new(); nodes.len()];
    for op in ops {
        let owner = ring.node_index_for(op.op.key()).expect("non-empty ring");
        per_node[owner].push(*op);
    }
    let before: Vec<ServerProbe> =
        nodes.iter().map(|&(_, addr)| probe_refetch_stats(addr)).collect();
    let started = Instant::now();
    let results: Vec<io::Result<WorkerResult>> = std::thread::scope(|s| {
        let handles: Vec<_> = nodes
            .iter()
            .zip(&per_node)
            .map(|(&(_, addr), node_ops)| {
                s.spawn(move || run_node(addr, node_ops, config, started))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("cluster node worker panicked")).collect()
    });
    let wall = started.elapsed();
    let mut aggregate = WorkerResult::default();
    let mut node_reports = Vec::with_capacity(nodes.len());
    let mut totals = ServerProbe::default();
    for (i, ((name, addr), result)) in nodes.iter().zip(results).enumerate() {
        let r = result?;
        let mut report = build_report(r.clone(), wall);
        attribute_refetches(&mut report, before[i], probe_refetch_stats(*addr));
        totals.refetches += report.refetches;
        totals.refetch_coalesced += report.refetch_coalesced;
        totals.origin_errors += report.origin_errors;
        totals.cross_core_forwards += report.cross_core_forwards;
        totals.slab_entries += report.slab_entries;
        totals.slab_capacity += report.slab_capacity;
        node_reports.push(NodeReport { addr: name.clone(), report });
        aggregate.merge(r);
    }
    let mut aggregate = build_report(aggregate, wall);
    attribute_refetches(&mut aggregate, ServerProbe::default(), totals);
    Ok(ClusterReport { aggregate, nodes: node_reports, chaos: None })
}

/// Replay a schedule against a live-membership cluster while a
/// [`ChaosSchedule`] kills and restarts nodes under it, measuring what
/// churn costs: per-node availability windows, operations lost,
/// reconnects, and — via the usual trackers — any staleness violation,
/// version anomaly, or checksum mismatch the churn induced.
///
/// The run is **deadline-paced** regardless of `config.mode` (the
/// chaos events fire at wall-clock offsets, so the load must span wall
/// time; a closed loop could finish before the first kill). One driver
/// thread owns a pipelined connection per node and routes every op by
/// the *current* membership view: the chaos controller (a second
/// thread) SIGKILLs the victim, tells a survivor it left, and the
/// epoch bump re-routes the victim's keys — so ops lost to a death are
/// bounded by the leave-adoption latency, not the node's downtime.
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
    config: &LoadGenConfig,
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
    let before: Vec<ServerProbe> =
        nodes.iter().map(|&(_, addr)| probe_refetch_stats(addr)).collect();
    let started = Instant::now();
    let (stamps, driven) = std::thread::scope(|s| {
        let controller =
            s.spawn(|| chaos::run_schedule(schedule, supervisor, nodes, started, &shared));
        let driven = chaos_drive(nodes, ops, config, &shared, started, seed);
        (controller.join().expect("chaos controller panicked"), driven)
    });
    let driven = driven?;
    let wall = started.elapsed();
    // Post-run probes: killed nodes have restarted by now (the
    // controller waited for them), so these see the post-handoff state.
    let after: Vec<ServerProbe> =
        nodes.iter().map(|&(_, addr)| probe_refetch_stats(addr)).collect();
    let mut windows = Vec::with_capacity(nodes.len());
    let mut aggregate = WorkerResult::default();
    let mut node_reports = Vec::with_capacity(nodes.len());
    let mut totals = ServerProbe::default();
    for (i, (name, _)) in nodes.iter().enumerate() {
        let r = &driven.results[i];
        // A reconnect that happened before the kill cannot close the
        // kill's window.
        let recovered = driven.recovered_at[i];
        let recovered =
            if stamps[i].0 >= 0.0 && recovered < stamps[i].0 { -1.0 } else { recovered };
        windows.push(NodeWindow {
            node: name.clone(),
            killed_at_secs: stamps[i].0,
            restarted_at_secs: stamps[i].1,
            recovered_at_secs: recovered,
            error_ops: driven.error_ops[i],
            refusals: r.refused,
            handoff_in: after[i].handoff_in,
            handoff_out: after[i].handoff_out,
            epoch: after[i].epoch,
        });
        let mut report = build_report(r.clone(), wall);
        attribute_refetches(&mut report, before[i], after[i]);
        totals.refetches += report.refetches;
        totals.refetch_coalesced += report.refetch_coalesced;
        totals.origin_errors += report.origin_errors;
        totals.cross_core_forwards += report.cross_core_forwards;
        totals.slab_entries += report.slab_entries;
        totals.slab_capacity += report.slab_capacity;
        node_reports.push(NodeReport { addr: name.clone(), report });
        aggregate.merge(r.clone());
    }
    let chaos_report = ChaosReport {
        schedule: schedule.name.clone(),
        kills: stamps.iter().filter(|s| s.0 >= 0.0).count() as u64,
        restarts: stamps.iter().filter(|s| s.1 >= 0.0).count() as u64,
        reconnects: aggregate.reconnects,
        error_ops: driven.error_ops.iter().sum(),
        final_epoch: shared.epoch.load(Ordering::Acquire),
        windows,
    };
    let mut aggregate = build_report(aggregate, wall);
    attribute_refetches(&mut aggregate, ServerProbe::default(), totals);
    Ok(ClusterReport { aggregate, nodes: node_reports, chaos: Some(chaos_report) })
}

/// What the chaos driver thread measured, per node.
struct ChaosDriven {
    results: Vec<WorkerResult>,
    error_ops: Vec<u64>,
    /// Seconds from run start of the last successful reconnect (−1 =
    /// never reconnected).
    recovered_at: Vec<f64>,
}

/// The chaos load driver: one thread, one pipelined connection per
/// node, every op routed by the current membership view at its
/// scheduled deadline. Connection failures are contained to the node
/// that died — its in-flight ops are counted lost, its version floors
/// kept (unless it restarted), and reconnects are paced by a seeded
/// [`Backoff`] so runs stay reproducible.
fn chaos_drive(
    nodes: &[(String, SocketAddr)],
    ops: &[TimedOp],
    config: &LoadGenConfig,
    shared: &ChaosShared,
    started: Instant,
    seed: u64,
) -> io::Result<ChaosDriven> {
    let n = nodes.len();
    let dist = config.value_bytes;
    let index_of: HashMap<&str, usize> =
        nodes.iter().enumerate().map(|(i, (name, _))| (name.as_str(), i)).collect();
    let mut clients: Vec<Option<PipelinedClient>> = Vec::with_capacity(n);
    for &(_, addr) in nodes {
        clients.push(Some(PipelinedClient::connect(addr)?));
    }
    let mut trackers: Vec<Tracker> = (0..n).map(|_| Tracker::new(dist)).collect();
    let mut results: Vec<WorkerResult> = vec![WorkerResult::default(); n];
    let mut error_ops = vec![0u64; n];
    let mut recovered_at = vec![-1.0f64; n];
    let mut inc_seen = vec![0u32; n];
    let mut policies: Vec<Backoff> = (0..n)
        .map(|i| {
            Backoff::new(
                Duration::from_millis(25),
                Duration::from_millis(500),
                u32::MAX,
                seed ^ payload::mix(i as u64),
            )
        })
        .collect();
    let mut attempts = vec![0u32; n];
    let mut retry_at: Vec<Instant> = vec![started; n];
    // Routing view: starts at whatever the seeding joins produced.
    let mut seen_epoch = shared.epoch.load(Ordering::Acquire);
    let mut ring = HashRing::try_from_members(DEFAULT_VNODES, &shared.view_snapshot())?;

    // The connection to `i` failed: its in-flight ops are lost (counted
    // to the node's window), its pending map cleared. Version floors
    // survive — the *node* may still be alive (and its versions
    // monotone); floors only reset when the restart incarnation moves.
    fn fail_node(
        i: usize,
        clients: &mut [Option<PipelinedClient>],
        trackers: &mut [Tracker],
        error_ops: &mut [u64],
        attempts: &mut [u32],
        retry_at: &mut [Instant],
    ) {
        error_ops[i] += trackers[i].issued_at.len() as u64;
        trackers[i].issued_at.clear();
        clients[i] = None;
        attempts[i] = 0;
        retry_at[i] = Instant::now();
    }

    for (index, op) in ops.iter().enumerate() {
        let deadline = started + Duration::from_nanos(op.at.as_nanos());
        // Until the deadline, collect completions from every live node.
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let mut progressed = false;
            for i in 0..n {
                let Some(client) = clients[i].as_mut() else { continue };
                if client.in_flight() == 0 {
                    continue;
                }
                match client.try_complete() {
                    Ok(Some((id, resp))) => {
                        trackers[i].completed(&mut results[i], id, resp, Instant::now())?;
                        progressed = true;
                    }
                    Ok(None) => {}
                    Err(_) => fail_node(
                        i,
                        &mut clients,
                        &mut trackers,
                        &mut error_ops,
                        &mut attempts,
                        &mut retry_at,
                    ),
                }
            }
            if !progressed {
                let wait = deadline
                    .saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(1));
                if wait.is_zero() {
                    break;
                }
                std::thread::sleep(wait);
            }
        }
        // Adopt a newer membership view if the controller moved the
        // epoch (leave after a kill, join after a restart).
        let epoch = shared.epoch.load(Ordering::Acquire);
        if epoch != seen_epoch {
            seen_epoch = epoch;
            let members = shared.view_snapshot();
            if let Ok(fresh) = HashRing::try_from_members(DEFAULT_VNODES, &members) {
                ring = fresh;
            }
        }
        let key = op.op.key();
        let Some(i) = ring.node_for(key).and_then(|name| index_of.get(name).copied()) else {
            continue;
        };
        // Make sure we hold a connection to the owner, reconnecting
        // (backoff-paced) if ours died and the node is believed up.
        if clients[i].is_none()
            && !shared.down[i].load(Ordering::Acquire)
            && Instant::now() >= retry_at[i]
        {
            match PipelinedClient::connect(nodes[i].1) {
                Ok(fresh) => {
                    clients[i] = Some(fresh);
                    results[i].reconnects += 1;
                    recovered_at[i] = started.elapsed().as_secs_f64();
                    let inc = shared.incarnations[i].load(Ordering::Acquire);
                    if inc != inc_seen[i] {
                        // The node restarted: its version counter (and
                        // cache) began again, so old floors are void.
                        inc_seen[i] = inc;
                        trackers[i] = Tracker::new(dist);
                    }
                }
                Err(_) => {
                    attempts[i] += 1;
                    let delay = policies[i].delay(attempts[i]);
                    retry_at[i] = Instant::now() + delay;
                }
            }
        }
        let Some(client) = clients[i].as_mut() else {
            // The owner is down (or unreachable): the op is lost and
            // attributed to the node's availability window.
            error_ops[i] += 1;
            continue;
        };
        match submit(client, &op.op, dist, index as u64, &mut results[i]) {
            Ok(id) => {
                match op.op {
                    WireOp::Get { .. } => results[i].gets += 1,
                    WireOp::Put { .. } => results[i].puts += 1,
                }
                trackers[i].issued(id, deadline);
            }
            Err(_) => {
                error_ops[i] += 1;
                fail_node(
                    i,
                    &mut clients,
                    &mut trackers,
                    &mut error_ops,
                    &mut attempts,
                    &mut retry_at,
                );
            }
        }
    }
    // Drain what is still in flight; a connection dying here loses its
    // tail like any other death.
    for i in 0..n {
        while let Some(client) = clients[i].as_mut() {
            if client.in_flight() == 0 {
                break;
            }
            match client.complete_timeout(Duration::from_secs(1)) {
                Ok(Some((id, resp))) => {
                    trackers[i].completed(&mut results[i], id, resp, Instant::now())?;
                }
                Ok(None) | Err(_) => {
                    fail_node(
                        i,
                        &mut clients,
                        &mut trackers,
                        &mut error_ops,
                        &mut attempts,
                        &mut retry_at,
                    );
                    break;
                }
            }
        }
    }
    Ok(ChaosDriven { results, error_ops, recovered_at })
}

/// Closed loop on one connection: keep up to `depth` requests in flight,
/// collecting a completion whenever the window is full.
fn run_closed<'a>(
    addr: SocketAddr,
    ops: impl Iterator<Item = (usize, &'a TimedOp)>,
    depth: usize,
    dist: Option<ValueDist>,
) -> io::Result<WorkerResult> {
    let mut client = PipelinedClient::connect(addr)?;
    let mut res = WorkerResult::default();
    let mut track = Tracker::new(dist);
    for (index, op) in ops {
        while client.in_flight() >= depth {
            let (id, resp) = client.complete()?;
            track.completed(&mut res, id, resp, Instant::now())?;
        }
        match op.op {
            WireOp::Get { .. } => res.gets += 1,
            WireOp::Put { .. } => res.puts += 1,
        }
        let id = submit(&mut client, &op.op, dist, index as u64, &mut res)?;
        track.issued(id, Instant::now());
    }
    while client.in_flight() > 0 {
        let (id, resp) = client.complete()?;
        track.completed(&mut res, id, resp, Instant::now())?;
    }
    Ok(res)
}

/// Open loop on one connection: submit each op at its scheduled deadline
/// regardless of what is still in flight, draining completions while
/// waiting for the next deadline. Latency is measured from the
/// *scheduled* send time, so falling behind shows up as tail latency
/// rather than disappearing.
fn run_open(
    addr: SocketAddr,
    ops: &[TimedOp],
    start: Instant,
    dist: Option<ValueDist>,
) -> io::Result<WorkerResult> {
    let mut client = PipelinedClient::connect(addr)?;
    let mut res = WorkerResult::default();
    let mut track = Tracker::new(dist);
    for (index, op) in ops.iter().enumerate() {
        let deadline = start + Duration::from_nanos(op.at.as_nanos());
        // Until the deadline, collect whatever completions arrive.
        loop {
            let now = Instant::now();
            let Some(wait) = deadline.checked_duration_since(now) else { break };
            if wait.is_zero() {
                break;
            }
            match client.complete_timeout(wait)? {
                Some((id, resp)) => track.completed(&mut res, id, resp, Instant::now())?,
                // Nothing in flight: sleep out the rest of the wait.
                None if client.in_flight() == 0 => std::thread::sleep(wait),
                None => {}
            }
        }
        match op.op {
            WireOp::Get { .. } => res.gets += 1,
            WireOp::Put { .. } => res.puts += 1,
        }
        let id = submit(&mut client, &op.op, dist, index as u64, &mut res)?;
        track.issued(id, deadline);
    }
    while client.in_flight() > 0 {
        let (id, resp) = client.complete()?;
        track.completed(&mut res, id, resp, Instant::now())?;
    }
    Ok(res)
}

/// Nearest-rank percentile over a sorted sample vector.
fn percentile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_us.len() as f64 * q).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1] as f64
}

fn build_report(mut r: WorkerResult, wall: Duration) -> LoadReport {
    let ops = r.gets + r.puts;
    let wall_secs = wall.as_secs_f64();
    r.latencies_us.sort_unstable();
    let mean = if r.latencies_us.is_empty() {
        0.0
    } else {
        r.latencies_us.iter().sum::<u64>() as f64 / r.latencies_us.len() as f64
    };
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
        mean_latency_us: mean,
        p50_latency_us: percentile(&r.latencies_us, 0.50),
        p99_latency_us: percentile(&r.latencies_us, 0.99),
        p999_latency_us: percentile(&r.latencies_us, 0.999),
        // Schedule identity is attached by the caller via
        // `set_identity` — the engine only sees the op list.
        scenario: String::new(),
        seed: 0,
        // Refetch counters come from server-side probes, attributed by
        // the caller via `attribute_refetches`.
        refetches: 0,
        refetch_coalesced: 0,
        origin_errors: 0,
        cross_core_forwards: 0,
        slab_entries: 0,
        slab_capacity: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_and_report_divides() {
        let mut a = WorkerResult {
            gets: 10,
            puts: 5,
            fresh: 6,
            stale_served: 1,
            refused: 2,
            misses: 1,
            latencies_us: vec![10, 20],
            ..Default::default()
        };
        let b = WorkerResult {
            gets: 10,
            puts: 0,
            fresh: 10,
            latencies_us: vec![30, 40],
            ..Default::default()
        };
        a.merge(b);
        let report = build_report(a, Duration::from_secs(2));
        assert_eq!(report.ops, 25);
        assert_eq!(report.gets, 20);
        assert_eq!(report.ops_per_sec, 12.5);
        assert_eq!(report.staleness_violations, 2);
        assert_eq!(report.refused_stale, 2, "per-status twin of the violation count");
        assert!(!report.is_clean());
        assert!((report.hit_ratio - 17.0 / 20.0).abs() < 1e-9);
        assert_eq!(report.mean_latency_us, 25.0);
        assert_eq!(report.p50_latency_us, 20.0);
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
            latencies_us: vec![10, 30],
            ..Default::default()
        };
        let wall = Duration::from_secs(1);
        let mut merged = node(8, 0);
        merged.merge(node(4, 2));
        let report = ClusterReport {
            aggregate: build_report(merged, wall),
            nodes: vec![
                NodeReport { addr: "a:1".into(), report: build_report(node(8, 0), wall) },
                NodeReport { addr: "b:2".into(), report: build_report(node(4, 2), wall) },
            ],
            chaos: None,
        };
        assert_eq!(report.aggregate.gets, 14);
        assert_eq!(report.aggregate.refused_stale, 2);
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

        let served_empty = |track: &mut Tracker, res: &mut WorkerResult| {
            let id = RequestId(1);
            track.issued(id, Instant::now());
            track
                .completed(
                    res,
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
        };
        // All writers send ≥16 bytes: a served empty value is a payload
        // drop, even though an empty slice matches its own pattern.
        let mut track = Tracker::new(Some(ValueDist::Uniform { min: 16, max: 64 }));
        let mut res = WorkerResult::default();
        served_empty(&mut track, &mut res);
        assert_eq!(res.checksum_mismatches, 1);
        // Trace-driven sizes may legitimately be zero: not flagged.
        let mut track = Tracker::new(None);
        let mut res = WorkerResult::default();
        served_empty(&mut track, &mut res);
        assert_eq!(res.checksum_mismatches, 0);
    }

    #[test]
    fn identity_threads_through_single_and_cluster_reports() {
        let mut report = build_report(WorkerResult::default(), Duration::from_secs(1));
        assert_eq!(report.scenario, "", "identity is opt-in");
        report.set_identity("flash-crowd", 42);
        assert_eq!((report.scenario.as_str(), report.seed), ("flash-crowd", 42));
        let shown = report.to_string();
        assert!(shown.contains("schedule: flash-crowd (seed 42)"), "{shown}");
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"scenario\"") && json.contains("\"seed\""), "{json}");

        let mut cluster = ClusterReport {
            aggregate: build_report(WorkerResult::default(), Duration::from_secs(1)),
            nodes: vec![NodeReport {
                addr: "a:1".into(),
                report: build_report(WorkerResult::default(), Duration::from_secs(1)),
            }],
            chaos: None,
        };
        cluster.set_identity("diurnal", 7);
        assert_eq!(cluster.aggregate.scenario, "diurnal");
        assert_eq!(cluster.nodes[0].report.seed, 7);
    }

    #[test]
    fn empty_run_reports_zeros() {
        let report = build_report(WorkerResult::default(), Duration::from_millis(1));
        assert_eq!(report.ops, 0);
        assert_eq!(report.hit_ratio, 0.0);
        assert_eq!(report.mean_latency_us, 0.0);
        assert_eq!(report.p999_latency_us, 0.0);
        assert!(report.is_clean());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.50), 500.0);
        assert_eq!(percentile(&sorted, 0.99), 990.0);
        assert_eq!(percentile(&sorted, 0.999), 999.0);
        assert_eq!(percentile(&sorted, 1.0), 1000.0);
        assert_eq!(percentile(&[42], 0.999), 42.0);
    }

    #[test]
    fn report_serializes_to_json() {
        let report = build_report(
            WorkerResult { gets: 2, puts: 1, fresh: 2, latencies_us: vec![5, 7, 9], ..Default::default() },
            Duration::from_secs(1),
        );
        let json = serde_json::to_string(&report).unwrap();
        for field in ["ops_per_sec", "hit_ratio", "p50_latency_us", "p99_latency_us", "p999_latency_us", "version_anomalies"] {
            assert!(json.contains(field), "JSON missing {field}: {json}");
        }
    }
}
