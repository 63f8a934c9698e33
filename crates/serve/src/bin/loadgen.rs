//! `loadgen` — replay a fresca workload against a running `serve`
//! node, or fan it out across a consistent-hash cluster of them.
//!
//! ```text
//! loadgen [--addr 127.0.0.1:7440 | --addrs a,b,c]
//!         [--scenario flash-crowd|diurnal|write-heavy-ticker|
//!                     mixed-tenants|freshness-regimes|push-storm]
//!         [--workload poisson|mix|meta|twitter]
//!         [--seed 42] [--rate 10] [--horizon-secs 1000]
//!         [--mode closed|open] [--conns 4] [--pipeline 16]
//!         [--time-scale 0.001] [--ttl-ms 500] [--bound-ms 0]
//!         [--value-bytes fixed:N|uniform:MIN:MAX|zipf:MAX]
//!         [--json BENCH_serve.json] [--fail-on-violations]
//! ```
//!
//! Two schedule sources:
//!
//! * `--workload` generates one of the paper's workloads and maps it
//!   onto wire operations (`--ttl-ms` attaches a TTL to every put,
//!   `--bound-ms` a staleness bound to every get; 0 disables either;
//!   `--time-scale` rescales the trace's virtual timestamps).
//! * `--scenario` replays a **named scenario** from
//!   [`fresca_workload::scenario`] — a deterministic seeded schedule in
//!   wall time with per-op TTLs and staleness bounds baked in. `--rate`
//!   and `--horizon-secs`, when given, override the scenario's default
//!   rate/duration; `--time-scale` is ignored (scenario timestamps are
//!   already wall time); `--ttl-ms` / `--bound-ms`, when given
//!   *explicitly*, override every op's TTL/bound (0 strips them) — the
//!   lever CI uses to inject staleness violations when testing the
//!   baseline gate. Scenario runs default to open-loop mode, so
//!   measured throughput tracks the scenario's offered rate and stored
//!   baselines stay comparable across machines.
//!
//! The report (text and `--json`) carries the schedule identity —
//! `scenario` name and `seed` — so every run is reproducible from its
//! own output; `baseline check` (the `fresca-bench` gating tool) keys
//! on those fields.
//!
//! Every put carries the deterministic pattern payload for its key, and
//! every served read is FNV-checksummed against it; the report's
//! `checksum_mismatches` must stay zero. `--value-bytes` overrides the
//! schedule's value sizes with a fixed, uniform, or heavy-tailed
//! ("zipf-sized") distribution.
//!
//! With `--addrs a,b,c` the schedule is partitioned by the cluster's
//! consistent-hash ring (every op goes to the node owning its key —
//! the placement a `ClusterClient` and `store-push` also compute) and
//! replayed against all nodes concurrently; the report then carries a
//! per-node breakdown plus the merged aggregate, in closed-loop mode
//! with `--conns` connections *per node*.
//!
//! `--json <path>` additionally writes the report as a machine-readable
//! JSON summary (ops/s, hit ratio, latency percentiles, violation
//! counts, scenario + seed) for tracking the perf trajectory across
//! commits. `--fail-on-violations` exits non-zero when the run observed
//! staleness violations, version anomalies, or checksum mismatches —
//! the CI smoke-test contract.
//!
//! ## Chaos runs
//!
//! `--chaos <schedule>` (with `--addrs` and `--spawn-serve`) runs the
//! cluster under a deterministic kill/restart schedule: loadgen spawns
//! one `serve` child per address, replays the schedule against the
//! live-membership cluster, and mid-run SIGKILLs and respawns victims
//! chosen by the schedule (a pure function of `--seed`), driving the
//! leave/join protocol around each death. The report gains a `chaos`
//! section: per-node availability windows, operations lost, reconnects,
//! and handoff counters. With `--fail-on-violations` the run also fails
//! when any window exceeds `--max-window-secs`, a killed node never
//! recovered, or a restarted node did not converge back to the final
//! epoch with handed-off keys — the CI `chaos-smoke` contract.
//! `--serve-bin` overrides the `serve` binary path (default: next to
//! the running loadgen).

use fresca_serve::chaos::{ChaosSchedule, Supervisor};
use fresca_serve::cli::arg;
use fresca_serve::loadgen::{self, LoadGenConfig, Mode, ValueDist};
use fresca_sim::SimDuration;
use fresca_workload::{
    scenario, MetaLikeConfig, PoissonMixConfig, PoissonZipfConfig, ReplayConfig, ScenarioParams,
    TimedOp, TwitterLikeConfig, WireOp, WorkloadGen,
};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Owns the `serve` child processes of a chaos run: SIGKILL on `kill`,
/// respawn-and-wait on `restart`. Children are killed on drop so an
/// aborted run leaves no strays.
struct ProcSupervisor {
    bin: PathBuf,
    names: Vec<String>,
    children: Vec<Option<Child>>,
}

impl ProcSupervisor {
    /// Spawn one `serve` per name (the name is both the bind address
    /// and the advertised ring identity) and wait until every node
    /// accepts connections.
    fn launch(bin: PathBuf, names: Vec<String>) -> Result<Self, String> {
        let mut sup =
            ProcSupervisor { children: names.iter().map(|_| None).collect(), bin, names };
        for i in 0..sup.names.len() {
            let child = sup.spawn_node(i).map_err(|e| {
                format!("cannot spawn {} for {}: {e}", sup.bin.display(), sup.names[i])
            })?;
            sup.children[i] = Some(child);
        }
        for name in sup.names.clone() {
            if !wait_accepting(&name, Duration::from_secs(10)) {
                return Err(format!("node {name} never started accepting connections"));
            }
        }
        Ok(sup)
    }

    fn spawn_node(&self, i: usize) -> std::io::Result<Child> {
        Command::new(&self.bin)
            .args([
                "--addr",
                &self.names[i],
                "--advertise",
                &self.names[i],
                // Keep child stdout quiet on its own cadence.
                "--stats-every",
                "3600",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
    }
}

/// Poll until `addr` accepts a TCP connection (the server is serving).
fn wait_accepting(addr: &str, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if TcpStream::connect(addr).is_ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

impl Supervisor for ProcSupervisor {
    fn kill(&mut self, node: usize) {
        if let Some(mut child) = self.children.get_mut(node).and_then(Option::take) {
            // Child::kill is SIGKILL: the abrupt-death case, no drain.
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    fn restart(&mut self, node: usize) -> bool {
        let Ok(child) = self.spawn_node(node) else { return false };
        self.children[node] = Some(child);
        wait_accepting(&self.names[node], Duration::from_secs(10))
    }
}

impl Drop for ProcSupervisor {
    fn drop(&mut self) {
        for child in self.children.iter_mut().filter_map(Option::take) {
            let mut child = child;
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        let names = scenario::names().join("|");
        eprintln!(
            "usage: loadgen [--addr 127.0.0.1:7440 | --addrs a,b,c] \
             [--scenario {names}] \
             [--workload poisson|mix|meta|twitter] \
             [--seed 42] [--rate 10] [--horizon-secs 1000] [--mode closed|open] \
             [--conns 4] [--pipeline 16] [--time-scale 0.001] [--ttl-ms 500] [--bound-ms 0] \
             [--value-bytes fixed:N|uniform:MIN:MAX|zipf:MAX] \
             [--json BENCH_serve.json] [--fail-on-violations] \
             [--chaos kill-one|rolling --spawn-serve [--serve-bin PATH] \
              [--max-window-secs 30]]"
        );
        return;
    }
    let has_flag = |name: &str| args.iter().any(|a| a == name);
    let addr_s = arg(&args, "--addr", "127.0.0.1:7440".to_string());
    let addrs_s = arg(&args, "--addrs", String::new());
    let scenario_s = arg(&args, "--scenario", String::new());
    let workload = arg(&args, "--workload", "poisson".to_string());
    let seed: u64 = arg(&args, "--seed", 42);
    let mode_s = arg(&args, "--mode", String::new());
    let conns: usize = arg(&args, "--conns", 4);
    let pipeline: usize = arg(&args, "--pipeline", 16);
    let ttl_ms: u64 = arg(&args, "--ttl-ms", 500);
    let bound_ms: u64 = arg(&args, "--bound-ms", 0);
    let value_bytes_s = arg(&args, "--value-bytes", String::new());
    let json_path = arg(&args, "--json", String::new());
    let fail_on_violations = has_flag("--fail-on-violations");
    let chaos_s = arg(&args, "--chaos", String::new());
    let spawn_serve = has_flag("--spawn-serve");
    let serve_bin = arg(&args, "--serve-bin", String::new());
    let max_window_secs: f64 = arg(&args, "--max-window-secs", 30.0);

    let value_bytes = if value_bytes_s.is_empty() {
        None
    } else {
        match ValueDist::parse(&value_bytes_s) {
            Some(d) => Some(d),
            None => {
                eprintln!(
                    "loadgen: bad --value-bytes {value_bytes_s:?} \
                     (try fixed:N, uniform:MIN:MAX, or zipf:MAX)"
                );
                std::process::exit(2);
            }
        }
    };

    // Schedule source: a named scenario (wall-time schedule, per-op
    // freshness params baked in) or a generated paper workload mapped
    // through ReplayConfig. Either way: (ops, identity, default mode).
    let (ops, schedule_name, default_mode): (Vec<TimedOp>, String, &str) = if !scenario_s
        .is_empty()
    {
        let Some(def) = scenario::find(&scenario_s) else {
            eprintln!(
                "loadgen: unknown scenario {scenario_s:?} (try {})",
                scenario::names().join("|")
            );
            std::process::exit(2);
        };
        let rate: f64 =
            if has_flag("--rate") { arg(&args, "--rate", 0.0) } else { def.default_rate };
        let duration = if has_flag("--horizon-secs") {
            SimDuration::from_secs(arg(&args, "--horizon-secs", 0))
        } else {
            SimDuration::from_secs(def.default_duration_secs)
        };
        let mut ops = def.build(&ScenarioParams { seed, rate, duration });
        // Explicit --ttl-ms / --bound-ms override the scenario's per-op
        // freshness params (0 strips them). This is the violation-
        // injection lever: `--bound-ms 1` makes a correct server refuse
        // nearly every bounded read, which `baseline check` must catch.
        if has_flag("--ttl-ms") {
            let ttl = (ttl_ms > 0).then(|| SimDuration::from_millis(ttl_ms));
            for op in &mut ops {
                if let WireOp::Put { ttl: t, .. } = &mut op.op {
                    *t = ttl;
                }
            }
        }
        if has_flag("--bound-ms") {
            let bound = (bound_ms > 0).then(|| SimDuration::from_millis(bound_ms));
            for op in &mut ops {
                if let WireOp::Get { max_staleness, .. } = &mut op.op {
                    *max_staleness = bound;
                }
            }
        }
        (ops, def.name.to_string(), "open")
    } else {
        let rate: f64 = arg(&args, "--rate", 10.0);
        let horizon = SimDuration::from_secs(arg(&args, "--horizon-secs", 1000));
        let time_scale: f64 = arg(&args, "--time-scale", 0.001);
        let trace = match workload.as_str() {
            "poisson" => {
                PoissonZipfConfig { rate, horizon, ..Default::default() }.generate(seed)
            }
            "mix" => PoissonMixConfig { rate, horizon, ..Default::default() }.generate(seed),
            "meta" => MetaLikeConfig { rate, horizon, ..Default::default() }.generate(seed),
            "twitter" => {
                TwitterLikeConfig { rate, horizon, ..Default::default() }.generate(seed)
            }
            other => {
                eprintln!("loadgen: unknown workload {other:?} (try poisson|mix|meta|twitter)");
                std::process::exit(2);
            }
        };
        let replay = ReplayConfig {
            ttl: (ttl_ms > 0).then(|| SimDuration::from_millis(ttl_ms)),
            max_staleness: (bound_ms > 0).then(|| SimDuration::from_millis(bound_ms)),
            time_scale,
        };
        let name = trace.meta().generator.clone();
        (replay.map_trace(&trace), name, "closed")
    };

    let mode = match if mode_s.is_empty() { default_mode } else { mode_s.as_str() } {
        "closed" => Mode::Closed { connections: conns.max(1) },
        "open" => Mode::Open,
        other => {
            eprintln!("loadgen: unknown mode {other:?} (try closed|open)");
            std::process::exit(2);
        }
    };
    let mode_name = match mode {
        Mode::Closed { .. } => "closed",
        Mode::Open => "open",
    };
    let resolve = |s: &str| match s.to_socket_addrs().ok().and_then(|mut it| it.next()) {
        Some(a) => a,
        None => {
            eprintln!("loadgen: cannot resolve {s}");
            std::process::exit(2);
        }
    };
    let config = LoadGenConfig { mode, pipeline, value_bytes };

    // Cluster fan-out (`--addrs`) or single node (`--addr`). Both paths
    // converge on (aggregate report, optional per-node breakdown).
    let (report, cluster) = if !addrs_s.is_empty() {
        let nodes: Vec<(String, SocketAddr)> = addrs_s
            .split(',')
            .map(|s| {
                let name = s.trim().to_string();
                let addr = resolve(&name);
                (name, addr)
            })
            .collect();
        if !chaos_s.is_empty() {
            // Chaos: this process must own the servers to SIGKILL them.
            if !spawn_serve {
                eprintln!("loadgen: --chaos requires --spawn-serve (loadgen must own the serve processes it kills)");
                std::process::exit(2);
            }
            // The schedule spans the replay's wall-clock duration.
            let duration = ops
                .last()
                .map(|op| Duration::from_nanos(op.at.as_nanos()))
                .unwrap_or(Duration::ZERO);
            let Some(schedule) =
                ChaosSchedule::generate(&chaos_s, seed, duration, nodes.len())
            else {
                eprintln!(
                    "loadgen: bad --chaos {chaos_s:?} for {} nodes (try {})",
                    nodes.len(),
                    fresca_serve::chaos::SCHEDULES.join("|")
                );
                std::process::exit(2);
            };
            let bin = if serve_bin.is_empty() {
                // Default: the serve binary next to the running loadgen.
                std::env::current_exe()
                    .ok()
                    .and_then(|p| p.parent().map(|d| d.join("serve")))
                    .unwrap_or_else(|| PathBuf::from("serve"))
            } else {
                PathBuf::from(&serve_bin)
            };
            let names: Vec<String> = nodes.iter().map(|(n, _)| n.clone()).collect();
            let mut sup = match ProcSupervisor::launch(bin, names) {
                Ok(sup) => sup,
                Err(e) => {
                    eprintln!("loadgen: {e}");
                    std::process::exit(1);
                }
            };
            println!(
                "replaying {} ops of {schedule_name} (seed {seed}) across {} nodes under \
                 chaos schedule {chaos_s} ({} events over {:.1}s)",
                ops.len(),
                nodes.len(),
                schedule.events.len(),
                duration.as_secs_f64(),
            );
            match loadgen::run_cluster_chaos(&nodes, &ops, &config, &schedule, &mut sup, seed) {
                Ok(mut cluster) => {
                    cluster.set_identity(&format!("{schedule_name}-chaos"), seed);
                    (cluster.aggregate.clone(), Some(cluster))
                }
                Err(e) => {
                    eprintln!("loadgen: {e}");
                    std::process::exit(1);
                }
            }
        } else {
            println!(
                "replaying {} ops of {schedule_name} (seed {seed}) across {} nodes [{mode_name}, \
                 pipeline {pipeline}]",
                ops.len(),
                nodes.len(),
            );
            match loadgen::run_cluster(&nodes, &ops, &config) {
                Ok(mut cluster) => {
                    // A fanned-out run is a different experiment than a
                    // single-node replay of the same schedule — suffix the
                    // identity so baseline gating never compares across the
                    // two shapes.
                    cluster.set_identity(&format!("{schedule_name}-cluster"), seed);
                    (cluster.aggregate.clone(), Some(cluster))
                }
                Err(e) => {
                    eprintln!("loadgen: {e}");
                    std::process::exit(1);
                }
            }
        }
    } else {
        let addr = resolve(&addr_s);
        println!(
            "replaying {} ops of {schedule_name} (seed {seed}) against {addr} [{mode_name}, \
             pipeline {pipeline}]",
            ops.len(),
        );
        match loadgen::run(addr, &ops, &config) {
            Ok(mut report) => {
                report.set_identity(&schedule_name, seed);
                (report, None)
            }
            Err(e) => {
                eprintln!("loadgen: {e}");
                std::process::exit(1);
            }
        }
    };
    match &cluster {
        Some(cluster) => print!("{cluster}"),
        None => print!("{report}"),
    }
    if !json_path.is_empty() {
        // Cluster runs serialize the full per-node breakdown; single-node
        // runs keep the flat report shape downstream tooling expects.
        let json = match &cluster {
            Some(cluster) => serde_json::to_string_pretty(cluster),
            None => serde_json::to_string_pretty(&report),
        }
        .expect("report serializes");
        if let Err(e) = std::fs::write(&json_path, json + "\n") {
            eprintln!("loadgen: cannot write {json_path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {json_path}");
    }
    if fail_on_violations && !report.is_clean() {
        eprintln!(
            "loadgen: FAILED — {} staleness violations, {} version anomalies, \
             {} checksum mismatches",
            report.staleness_violations, report.version_anomalies, report.checksum_mismatches
        );
        std::process::exit(3);
    }
    // Chaos gates: every killed node must come back inside the window
    // bound, converged to the final epoch, with keys handed back to it.
    if fail_on_violations {
        if let Some(chaos) = cluster.as_ref().and_then(|c| c.chaos.as_ref()) {
            let bound = Duration::from_secs_f64(max_window_secs.max(0.0));
            if !chaos.windows_bounded(bound) {
                eprintln!(
                    "loadgen: FAILED — an unavailability window exceeded {max_window_secs}s \
                     (or a killed node never recovered)"
                );
                std::process::exit(3);
            }
            for w in &chaos.windows {
                if w.killed_at_secs < 0.0 || w.restarted_at_secs < 0.0 {
                    continue;
                }
                if w.epoch != chaos.final_epoch {
                    eprintln!(
                        "loadgen: FAILED — restarted node {} is at epoch {} (cluster is at {})",
                        w.node, w.epoch, chaos.final_epoch
                    );
                    std::process::exit(3);
                }
                if w.handoff_in == 0 {
                    eprintln!(
                        "loadgen: FAILED — restarted node {} received no handed-off keys; \
                         ownership was not restored",
                        w.node
                    );
                    std::process::exit(3);
                }
            }
        }
    }
}
