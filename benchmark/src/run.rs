//! One run of one workload: set up a node, drive it, measure it from
//! outside, check everything it answered, and report.

use crate::cpu::Placement;
use crate::driver::{run_closed, run_paced, Ctx, LeanConn, Phase};
use crate::hist::{median, Hist};
use crate::layers::{self, Origin, Patterns, Probe, PushStats, Pusher, ServerProbe, Tally};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::node::{self_cpu_s, Node};
use crate::oracle::{judge, Verdict};
use crate::trace::{Tracer, NONE};
use crate::workload::{
    key_of, Load, Op, OpGen, Spec, WriteGen, CONNS, FLUSH_INTERVAL_MS, LATENCY_LIMIT_US, STAGES,
    WINDOW,
};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Load run before the window opens, so caches, socket buffers and the
/// push policy's estimates are in their steady state. Part of the set-up:
/// `setup_s` runs from the node's spawn to the end of the warm-up.
const WARMUP: Duration = Duration::from_millis(1000);
/// The generator-bound guard: a closed-loop run is INVALID when the node
/// was less busy than `MIN_BUSY_SHARE` *and* the generator spent less than
/// `MIN_WAIT_SHARE` of the window waiting for it — idle capacity on the
/// node while the generator had none means `ops_per_s` measured the
/// generator. (A node that is idle while the generator also waits is
/// waiting on itself: cross-core hand-offs, which is the node's cost.)
const MIN_BUSY_SHARE: f64 = 0.85;
const MIN_WAIT_SHARE: f64 = 0.10;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of a closed-loop window spent not saturating the node but pacing
/// one connection at `STAGES[1]`, to read the latency off: in the
/// saturated window latency is in-flight ÷ throughput, and flips by a
/// third between batching regimes when throughput moves by a tenth.
const LATENCY_SHARE: f64 = 0.2;
/// Ops of the run's own stream the layer replay is fed.
const REPLAY_OPS: usize = 1 << 20;

pub struct Config {
    pub serve_bin: PathBuf,
    pub results_dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub place: Placement,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
    /// What went wrong, one line each, naming the counter.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Every output checked was right, the node's counters add up, and
    /// (closed loop) the node, not the generator, was the bottleneck.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// A phase's `q`-quantile latency, ns: the median of its per-second
/// quantiles, so that a stall of the sandbox moves one second's value and
/// not the result. A phase too short to hold a whole second (`--smoke`)
/// falls back on all its samples.
fn over_seconds(per_second: &[f64], all: &Hist, q: f64) -> f64 {
    if per_second.is_empty() {
        all.quantile(q)
    } else {
        median(per_second)
    }
}

/// A live node with its connections, and the client-side tally of every
/// request it has been sent since it started.
struct Session {
    spec: Spec,
    origin: Option<Origin>,
    node: Node,
    probe: Probe,
    conns: Vec<LeanConn>,
    patterns: Patterns,
    totals: Tally,
    problems: Vec<String>,
}

impl Session {
    /// Spawn the node (and origin), connect, prefill. Returns the session
    /// and how long that took: a `setup_s` sample, but for its warm-up.
    fn start(spec: &Spec, cfg: &Config, epoch: Instant) -> io::Result<(Session, f64)> {
        let t0 = Instant::now();
        // A one-loop node inherits one CPU from this thread; this thread
        // and the origin's threads share the other (see `cpu`).
        cfg.place.as_generator(spec.event_loops);
        let origin = if spec.origin { Some(Origin::spawn()?) } else { None };
        let args = spec.serve_args(origin.as_ref().map(Origin::addr));
        cfg.place.as_node(spec.event_loops);
        let node = Node::spawn(&cfg.serve_bin, &args);
        cfg.place.as_generator(spec.event_loops);
        let node = node?;
        // The probe connects first so the driving connections are
        // consecutive accepts: round-robin puts them on different loops.
        let probe = Probe::connect(node.addr)?;
        let n_conns = if spec.load == Load::Closed { CONNS } else { 1 };
        let conns = (0..n_conns)
            .map(|_| LeanConn::connect(node.addr, spec.keys))
            .collect::<io::Result<Vec<_>>>()?;
        let mut s = Session {
            spec: *spec,
            origin,
            node,
            probe,
            conns,
            patterns: Patterns::new(spec.keys),
            totals: Tally::default(),
            problems: Vec::new(),
        };
        // Prefill: puts, or — behind an origin — reads that install
        // through it. Every key answered, every answer checked.
        let mut rank = 0;
        let through_origin = spec.origin;
        let spec_copy = *spec;
        let mut next = move || {
            let key = key_of(rank);
            rank += 1;
            if through_origin {
                Op::Get { key }
            } else {
                Op::Put { key, len: spec_copy.put_size(key) }
            }
        };
        let mut quiet = Tracer::new(false, epoch);
        let mut ctx = Ctx { patterns: &mut s.patterns, tracer: &mut quiet };
        let phase =
            run_closed(&mut s.conns, &mut next, WINDOW, secs(60.0), spec.prefill, &mut ctx)?;
        s.absorb("prefill", &phase);
        if phase.completed() != spec.prefill {
            s.problems.push(format!(
                "prefill: {} of {} keys answered",
                phase.completed(),
                spec.prefill
            ));
        }
        Ok((s, t0.elapsed().as_secs_f64()))
    }

    /// The last step of a set-up: `WARMUP` of the workload's own load.
    /// Returns how long it took, drain included.
    fn warm_up(&mut self, gen: &mut OpGen, epoch: Instant) -> io::Result<f64> {
        let t0 = Instant::now();
        let mut quiet = Tracer::new(false, epoch);
        self.drive("warm-up", gen, self.spec.load, STAGES[1], WARMUP, false, &mut quiet)?;
        Ok(t0.elapsed().as_secs_f64())
    }

    /// Fold a phase into the lifetime tally; name any violation.
    fn absorb(&mut self, what: &str, phase: &Phase) {
        self.totals.add(&phase.tally);
        for (name, n) in [
            ("checksum_mismatches", phase.checksum),
            ("version_regressions", phase.version_regress),
            ("protocol_errors", phase.protocol),
        ] {
            if n > 0 {
                self.problems.push(format!("{what}: {name}={n}"));
            }
        }
    }

    /// One phase of the workload's own op stream — closed loop, or paced
    /// at `rate` on the first connection — folded into the books.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &mut self,
        what: &str,
        gen: &mut OpGen,
        load: Load,
        rate: u32,
        duration: Duration,
        keep_reads: bool,
        tracer: &mut Tracer,
    ) -> io::Result<Phase> {
        let mut ctx = Ctx { patterns: &mut self.patterns, tracer };
        let phase = match load {
            Load::Closed => run_closed(
                &mut self.conns,
                &mut || gen.next(),
                WINDOW,
                duration,
                u64::MAX,
                &mut ctx,
            )?,
            Load::Paced => {
                run_paced(&mut self.conns[0], gen, rate, duration, keep_reads, &mut ctx)?
            }
        };
        self.absorb(what, &phase);
        Ok(phase)
    }

    /// SIGTERM the node and check its own counters against the tally:
    /// `fresh+stale+refused+miss == gets`, and gets/puts/outcomes equal
    /// what the clients sent and saw.
    fn finish(self) -> io::Result<Vec<String>> {
        let Session { origin, node, probe, conns, totals, mut problems, .. } = self;
        drop(conns);
        drop(probe);
        let counters = node.stop()?;
        if let Some(o) = origin {
            o.shutdown();
        }
        let c = |k: &str| counters.get(k).copied().unwrap_or(u64::MAX);
        for (name, node_says, client_says) in [
            ("gets", c("gets"), totals.gets),
            ("puts", c("puts"), totals.puts),
            ("fresh", c("fresh"), totals.fresh),
            ("stale_served", c("stale_served"), totals.stale),
            ("refused", c("refused"), totals.refused),
            ("misses", c("misses"), totals.miss),
            ("proto_errs", c("proto_errs"), 0),
        ] {
            if node_says != client_says {
                problems.push(format!(
                    "accounting: node {name}={node_says}, clients saw {client_says}"
                ));
            }
        }
        let outcomes = c("fresh")
            .wrapping_add(c("stale_served"))
            .wrapping_add(c("refused"))
            .wrapping_add(c("misses"));
        if outcomes != c("gets") {
            problems.push(format!(
                "accounting: fresh+stale+refused+miss={outcomes} != gets={}",
                c("gets")
            ));
        }
        Ok(problems)
    }
}

/// What the store-side writer thread of `push-refetch` measured.
struct Written {
    /// Per key, the instants of its writes (ns since the epoch), in order.
    log: Vec<Vec<u64>>,
    write_ns: f64,
    flush: Hist,
    keys_flushed: u64,
    stats: PushStats,
    tracer: Tracer,
}

struct Writer {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<Written>>,
}

impl Writer {
    /// Paced store writes through `StorePusher`, flushed every
    /// `FLUSH_INTERVAL_MS`, until stopped.
    fn start(mut pusher: Pusher, spec: Spec, cfg: &Config, epoch: Instant, trace: bool) -> Writer {
        let (seed, place) = (cfg.seed, cfg.place);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || -> io::Result<Written> {
            place.as_generator(spec.event_loops);
            let mut gen = WriteGen::new(&spec, seed);
            let mut tracer = Tracer::new(trace, epoch);
            let mut log: Vec<Vec<u64>> = vec![Vec::new(); spec.keys as usize + 1];
            let mut flush = Hist::new();
            let (mut done, mut write_ns, mut keys_flushed, mut batches) = (0u64, 0u64, 0u64, 0u64);
            let start = Instant::now();
            let interval = Duration::from_millis(FLUSH_INTERVAL_MS);
            let mut next_flush = interval;
            loop {
                // SeqCst: the flag publishes nothing else, but it is read
                // once a millisecond; there is no cost to being strict.
                let stopping = flag.load(Ordering::SeqCst);
                let due = (start.elapsed().as_secs_f64() * spec.store_writes_per_s as f64) as u64;
                if done < due {
                    // Logged before applied: no reader can see write n
                    // earlier than its logged instant.
                    let t0 = tracer.now();
                    while done < due {
                        let (key, _n, len) = gen.next();
                        log[key as usize].push(t0);
                        pusher.write(key, len);
                        done += 1;
                    }
                    let t1 = tracer.now();
                    write_ns += t1 - t0;
                    batches += 1;
                    if batches % 16 == 0 {
                        tracer.span("push.write", t0, t1, NONE, NONE);
                    }
                }
                if stopping || start.elapsed() >= next_flush {
                    let t0 = tracer.now();
                    keys_flushed += pusher.flush()? as u64;
                    let t1 = tracer.now();
                    tracer.span("push.flush", t0, t1, NONE, NONE);
                    flush.record(t1 - t0);
                    next_flush += interval;
                }
                if stopping {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(Written {
                log,
                write_ns: write_ns as f64 / done.max(1) as f64,
                flush,
                keys_flushed,
                stats: pusher.stats(),
                tracer,
            })
        });
        Writer { stop, thread }
    }

    fn finish(self) -> io::Result<Written> {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().unwrap_or_else(|_| Err(io::Error::other("writer thread panicked")))
    }
}

/// Everything measured across one window (one stage per phase).
struct Measured {
    /// The warm-up before the window: the end of this session's set-up.
    warmup_s: f64,
    phases: Vec<Phase>,
    /// Closed loop: the paced phase after the window (see `LATENCY_SHARE`).
    paced: Option<Phase>,
    wall_s: f64,
    node_cpu_s: f64,
    gen_cpu_s: f64,
    wakeups: u64,
    before: ServerProbe,
    after: ServerProbe,
    rss_mib: f64,
    verdict: Option<Verdict>,
}

impl Measured {
    /// Over the window.
    fn sum(&self, f: impl Fn(&Phase) -> u64) -> u64 {
        self.phases.iter().map(f).sum()
    }
    /// Over everything driven: the window and the paced phase after it.
    fn sum_all(&self, f: impl Fn(&Phase) -> u64) -> u64 {
        self.phases.iter().chain(&self.paced).map(f).sum()
    }
    /// The phase latency is read from: the paced one, or stage `main`.
    fn latency(&self, main: usize) -> &Phase {
        self.paced.as_ref().unwrap_or(&self.phases[main])
    }
    fn completed(&self) -> u64 {
        self.sum(Phase::completed)
    }
    fn gets(&self) -> u64 {
        self.sum(|p| p.tally.gets)
    }
    fn sent(&self) -> u64 {
        self.sum_all(|p| p.sent)
    }
    /// Failed operations: timed out, wrong, refused, or (oracle) served
    /// beyond the freshness target. A `Miss` is not a failure.
    fn failed(&self) -> u64 {
        self.sum_all(|p| p.timeouts + p.violations() + p.tally.refused)
            + self.verdict.as_ref().map_or(0, |v| v.over_target + v.unknown_version)
    }
    /// The failures by kind, for the report's stderr.
    fn failures(&self) -> String {
        format!(
            "timeouts={} checksum_mismatches={} version_regressions={} protocol_errors={} refused={} \
             oracle_over_target={} oracle_unknown_version={}",
            self.sum_all(|p| p.timeouts),
            self.sum_all(|p| p.checksum),
            self.sum_all(|p| p.version_regress),
            self.sum_all(|p| p.protocol),
            self.sum_all(|p| p.tally.refused),
            self.verdict.as_ref().map_or(0, |v| v.over_target),
            self.verdict.as_ref().map_or(0, |v| v.unknown_version),
        )
    }
    fn refetches(&self) -> u64 {
        self.after.refetches - self.before.refetches
    }
    fn per_get(&self, n: u64) -> f64 {
        n as f64 / self.gets().max(1) as f64
    }
    fn elapsed_s(&self) -> f64 {
        self.phases.iter().map(|p| p.elapsed_s).sum()
    }
    fn ops_per_s(&self) -> f64 {
        self.completed() as f64 / self.elapsed_s()
    }
    /// Node CPU ÷ (wall × event loops).
    fn busy_share(&self, spec: &Spec) -> f64 {
        self.node_cpu_s / (self.wall_s * spec.event_loops as f64)
    }
    /// Generator process CPU ÷ wall.
    fn gen_cpu_share(&self) -> f64 {
        self.gen_cpu_s / self.wall_s
    }
    /// Share of the window the closed-loop generator spent with every
    /// window full and nothing to read.
    fn wait_share(&self) -> f64 {
        self.sum(|p| p.wait_ns) as f64 / 1e9 / self.elapsed_s()
    }
    fn cpu_us_per_op(&self) -> f64 {
        self.node_cpu_s * 1e6 / self.completed().max(1) as f64
    }
    /// Completions per second of node CPU (utime + stime).
    fn ops_per_cpu_s(&self) -> f64 {
        self.completed() as f64 / self.node_cpu_s
    }
    fn hit_share(&self) -> f64 {
        let t = self.phases.iter().fold(Tally::default(), |mut t, p| {
            t.add(&p.tally);
            t
        });
        t.gets.saturating_sub(t.miss + t.refused + self.refetches()) as f64 / t.gets.max(1) as f64
    }
}

/// Drive the session through `stages` (closed loop: one stage, rate
/// ignored) of `stage_s` seconds each, measuring the node from outside.
/// A closed loop saturates for the first part of its stage and is paced
/// for the last `LATENCY_SHARE` of it.
fn measure(
    s: &mut Session,
    cfg: &Config,
    stages: &[u32],
    stage_s: f64,
    epoch: Instant,
    tracer: &mut Tracer,
) -> io::Result<(Measured, Option<Written>)> {
    let spec = s.spec;
    let mut gen = OpGen::new(&spec, cfg.seed);
    let writer = match (&s.origin, spec.store_writes_per_s) {
        (Some(origin), rate) if rate > 0 => {
            Some(Writer::start(origin.pusher(s.node.addr)?, spec, cfg, epoch, tracer.on()))
        }
        _ => None,
    };
    let warmup_s = s.warm_up(&mut gen, epoch)?;
    let (window_s, paced_s) = match spec.load {
        Load::Closed => (stage_s * (1.0 - LATENCY_SHARE), stage_s * LATENCY_SHARE),
        Load::Paced => (stage_s, 0.0),
    };

    let before = s.probe.stats()?;
    let (cpu0, gen0, wake0, t0) =
        (s.node.cpu_s()?, self_cpu_s()?, s.node.wakeups()?, Instant::now());
    tracer.sample("node.cpu_s", cpu0);
    let mut phases = Vec::new();
    for &rate in stages {
        let keep_reads = writer.is_some();
        let phase =
            s.drive("window", &mut gen, spec.load, rate, secs(window_s), keep_reads, tracer)?;
        tracer.sample("node.cpu_s", s.node.cpu_s()?);
        tracer.sample("completed", phase.completed() as f64);
        phases.push(phase);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let (cpu1, gen1, wake1) = (s.node.cpu_s()?, self_cpu_s()?, s.node.wakeups()?);
    let after = s.probe.stats()?;
    tracer.sample("node.refetches", after.refetches as f64);
    tracer.sample("node.cross_core_forwards", after.cross_core_forwards as f64);
    let paced = match spec.load {
        Load::Closed => Some(s.drive(
            "paced",
            &mut gen,
            Load::Paced,
            STAGES[1],
            secs(paced_s),
            false,
            tracer,
        )?),
        Load::Paced => None,
    };
    let written = writer.map(Writer::finish).transpose()?;
    let verdict = written.as_ref().map(|w| {
        let reads: Vec<_> = phases.iter().flat_map(|p| p.reads.iter().copied()).collect();
        judge(&reads, &w.log)
    });
    if let Some(v) = verdict.as_ref().filter(|v| v.unknown_version > 0) {
        s.problems.push(format!(
            "oracle: unknown_version={} (served bytes nobody wrote)",
            v.unknown_version
        ));
    }
    let m = Measured {
        warmup_s,
        phases,
        paced,
        wall_s,
        node_cpu_s: cpu1 - cpu0,
        gen_cpu_s: gen1 - gen0,
        wakeups: wake1 - wake0,
        before,
        after,
        rss_mib: s.node.rss_hwm_mib()?,
        verdict,
    };
    Ok((m, written))
}

/// The generator-bound guard (closed loop only).
fn check_busy(m: &Measured, spec: &Spec, problems: &mut Vec<String>) {
    let (busy, wait) = (m.busy_share(spec), m.wait_share());
    if spec.load == Load::Closed && busy < MIN_BUSY_SHARE && wait < MIN_WAIT_SHARE {
        problems.push(format!(
            "INVALID (generator-bound): serve.busy_share={busy:.3} < {MIN_BUSY_SHARE} and \
             gen.wait_share={wait:.3} < {MIN_WAIT_SHARE} (gen.cpu_share={:.3})",
            m.gen_cpu_share()
        ));
    }
}

/// `--trace 0`: the end-to-end metrics, tracing off.
pub fn run_untraced(spec: &Spec, cfg: &Config) -> io::Result<Outcome> {
    let epoch = Instant::now();
    let mut setups = Vec::new();
    let mut problems = Vec::new();
    // Extra set-ups first: spawn, prefill, warm up, drain, check the books.
    for _ in 1..SETUPS {
        let (mut session, took) = Session::start(spec, cfg, epoch)?;
        setups.push(took + session.warm_up(&mut OpGen::new(spec, cfg.seed), epoch)?);
        problems.extend(session.finish()?);
    }
    let (mut session, took) = Session::start(spec, cfg, epoch)?;
    let mut tracer = Tracer::new(false, epoch);
    let (m, _) = measure(&mut session, cfg, &STAGES[1..2], cfg.seconds, epoch, &mut tracer)?;
    setups.push(took + m.warmup_s);
    problems.extend(session.finish()?);
    check_busy(&m, spec, &mut problems);

    let lat = m.latency(0);
    let mut v = Values::new(&END_TO_END);
    v.set("setup_s", median(&setups));
    v.set("ops_per_s", m.ops_per_s());
    v.set("ops_per_cpu_s", m.ops_per_cpu_s());
    v.set("p50_us", over_seconds(&lat.p50s, &lat.hist, 0.5) / 1e3);
    v.set("hit_share", m.hit_share());
    v.set("rss_mib", m.rss_mib);
    eprintln!(
        "{}: p50_us from {} samples in {} one-second windows at {} ops/s; serve.busy_share={:.3} gen.cpu_share={:.3} gen.wait_share={:.3} cpus={}",
        spec.name,
        lat.hist.count(),
        lat.p50s.len(),
        STAGES[1],
        m.busy_share(spec),
        m.gen_cpu_share(),
        m.wait_share(),
        cfg.place.cpus(),
    );
    if m.failed() > 0 {
        eprintln!("{}: failed operations: {}", spec.name, m.failures());
    }
    Ok(Outcome { attempted: m.sent().max(1), failed: m.failed(), metrics: v, problems })
}

/// `--trace 1`: a short untraced window, then a fresh node with tracing
/// on, then the layer replay. Reports the per-layer metrics and writes
/// the spans to `results/trace-<workload>.jsonl` at exit.
pub fn run_traced(spec: &Spec, cfg: &Config) -> io::Result<Outcome> {
    let epoch = Instant::now();
    let mut problems = Vec::new();
    let quarter = cfg.seconds / 4.0;

    let (mut session, _) = Session::start(spec, cfg, epoch)?;
    let mut off = Tracer::new(false, epoch);
    let (plain, _) = measure(&mut session, cfg, &STAGES[1..2], quarter, epoch, &mut off)?;
    problems.extend(session.finish()?);

    let mut tracer = Tracer::new(true, epoch);
    let (mut session, _) = Session::start(spec, cfg, epoch)?;
    let (stages, stage_s): (&[u32], f64) = match spec.load {
        Load::Closed => (&STAGES[1..2], 2.0 * quarter),
        Load::Paced => (&STAGES, quarter),
    };
    let (m, written) = measure(&mut session, cfg, stages, stage_s, epoch, &mut tracer)?;
    check_busy(&m, spec, &mut problems);

    // Probes against the live node, after the window's books are closed.
    let probe_keys: Vec<u64> = (0..spec.prefill.min(1024)).map(key_of).collect();
    let mut gen = OpGen::new(spec, cfg.seed ^ 1);
    let mut ctx = Ctx { patterns: &mut session.patterns, tracer: &mut tracer };
    let mut one_get = || Op::Get { key: gen.next().key() };
    let rtt = run_closed(
        &mut session.conns[..1],
        &mut one_get,
        1,
        secs(quarter.min(0.5)),
        u64::MAX,
        &mut ctx,
    )?;
    session.absorb("rtt1", &rtt);
    let (submit_ns, complete_ns, tally) =
        layers::pipelined_probe(session.node.addr, &probe_keys, 64, &mut tracer)?;
    session.totals.add(&tally);
    problems.extend(session.finish()?);

    // The layer replay, on the head of the run's own op stream.
    let mut gen = OpGen::new(spec, cfg.seed);
    let t0 = Instant::now();
    let ops: Vec<Op> = (0..REPLAY_OPS).map(|_| gen.next()).collect();
    let gen_ns_per_op = t0.elapsed().as_nanos() as f64 / REPLAY_OPS as f64;
    let write_keys: Vec<u64> = if spec.store_writes_per_s > 0 {
        let mut w = WriteGen::new(spec, cfg.seed);
        (0..REPLAY_OPS).map(|_| w.next().0).collect()
    } else {
        Vec::new()
    };
    let replay = layers::replay(spec, &ops, &write_keys, &mut tracer)?;

    let mut v = Values::new(&PER_LAYER);
    for (name, value) in &replay.rows {
        v.set(name, *value);
    }
    let ops_done = m.completed().max(1) as f64;
    v.set("serve.busy_share", m.busy_share(spec));
    v.set("serve.wakeups_per_kop", m.wakeups as f64 * 1000.0 / ops_done);
    v.set(
        "serve.forward_share",
        (m.after.cross_core_forwards - m.before.cross_core_forwards) as f64 / ops_done,
    );
    v.set("serve.refetch_share", m.per_get(m.refetches()));
    v.set(
        "serve.coalesced_share",
        m.per_get(m.after.refetch_coalesced - m.before.refetch_coalesced),
    );
    v.set("serve.origin_errors", (m.after.origin_errors - m.before.origin_errors) as f64);
    v.set("serve.slab_fill", m.after.slab_entries as f64 / m.after.slab_capacity.max(1) as f64);
    v.set("serve.rtt1_p50_us", rtt.hist.quantile(0.5) / 1e3);
    v.set("cpu_us_per_op", m.cpu_us_per_op());
    v.set("serve.attributed_us_per_op", replay.attributed_ns_per_op / 1e3);
    v.set("serve.unattributed_us_per_op", m.cpu_us_per_op() - replay.attributed_ns_per_op / 1e3);
    v.set("serve.client.submit_ns", submit_ns);
    v.set("serve.client.complete_ns", complete_ns);
    v.set("origin_fetches_per_kread", m.per_get(m.refetches()) * 1000.0);
    if let Some(w) = &written {
        let st = w.stats;
        let decided = (st.decided_update + st.decided_invalidate).max(1) as f64;
        v.set("serve.push.write_ns", w.write_ns);
        v.set("serve.push.flush_ms_p50", w.flush.quantile(0.5) / 1e6);
        v.set("serve.push.flush_ms_p99", w.flush.quantile(0.99) / 1e6);
        v.set("serve.push.keys_per_batch", w.keys_flushed as f64 / st.batches.max(1) as f64);
        v.set("serve.push.update_share", st.decided_update as f64 / decided);
        v.set(
            "serve.push.suppressed_share",
            st.suppressed as f64 / st.decided_invalidate.max(1) as f64,
        );
        v.set("push_bytes_per_write", st.push_bytes as f64 / st.writes.max(1) as f64);
    }
    if let Some(verdict) = &m.verdict {
        v.set("oracle.stale_p50_ms", verdict.stale_p50_ms);
        v.set("oracle.stale_p99_ms", verdict.stale_p99_ms);
        v.set("oracle.over_bound", verdict.over_target as f64);
    }
    if spec.load == Load::Paced {
        let p99_us = |p: &Phase| p.hist.quantile(0.99) / 1e3;
        v.set("paced.p99_us_lo", p99_us(&m.phases[0]));
        v.set("paced.p99_us_hi", p99_us(&m.phases[2]));
        // Highest stage within the latency limit whose backlog, when
        // sending stopped, was under 10 ms of offered load.
        let ok = |p: &Phase, rate: u32| {
            p99_us(p) <= LATENCY_LIMIT_US && p.backlog as f64 <= rate as f64 * 0.010
        };
        let best = m.phases.iter().zip(STAGES).filter(|(p, r)| ok(p, *r)).map(|(_, r)| r).max();
        v.set("paced.max_rate_ok", best.unwrap_or(0) as f64);
        v.set("gen.late_share", m.sum(|p| p.late) as f64 / m.sent().max(1) as f64);
    }
    let main_stage = if spec.load == Load::Paced { 1 } else { 0 };
    let (main, lat) = (&m.phases[main_stage], m.latency(main_stage));
    v.set("gen.cpu_share", m.gen_cpu_share());
    v.set("gen.wait_share", m.wait_share());
    v.set("workload.gen_ns_per_op", gen_ns_per_op);
    v.set("failed_share", m.failed() as f64 / m.sent().max(1) as f64);
    v.set("latency.samples", lat.hist.count() as f64);
    v.set("latency.windows", lat.p99s.len() as f64);
    v.set("latency.p90_us", over_seconds(&lat.p90s, &lat.hist, 0.9) / 1e3);
    v.set("latency.p99_us", over_seconds(&lat.p99s, &lat.hist, 0.99) / 1e3);
    let traced_rate = main.completed() as f64 / main.elapsed_s;
    v.set("traced.ops_per_s", traced_rate);
    v.set("trace.overhead_share", (plain.ops_per_s() - traced_rate) / plain.ops_per_s());

    if let Some(w) = written {
        tracer.absorb(w.tracer);
    }
    if m.failed() + plain.failed() > 0 {
        eprintln!(
            "{}: failed operations: traced {}; untraced {}",
            spec.name,
            m.failures(),
            plain.failures()
        );
    }
    let path = cfg.results_dir.join(format!("trace-{}.jsonl", spec.name));
    tracer.write(&path)?;
    eprintln!("{}: {} spans written to {}", spec.name, tracer.span_count(), path.display());
    Ok(Outcome {
        attempted: (m.sent() + plain.sent()).max(1),
        failed: m.failed() + plain.failed(),
        metrics: v,
        problems,
    })
}
