//! Named replayed-workload scenarios: the serving-path regression matrix.
//!
//! One smoke shape protects nothing. This module is a library of *named*
//! workload scenarios — each a deterministic, seeded generator producing
//! a complete [`TimedOp`] schedule in **wall time** (timestamps are meant
//! to be replayed as-is by the open-loop load generator, no
//! `time_scale`). Each scenario reproduces one traffic regime the
//! paper's freshness claims must survive:
//!
//! | Scenario | Regime | What a regression here looks like |
//! |----------|--------|-----------------------------------|
//! | `flash-crowd` | Zipf hot-key spike whose hot set *flips* mid-run | hit-path contention, stale hot entries after the flip |
//! | `diurnal` | sinusoidal open-loop rate (compressed day) | tail latency at peak, idle-time regressions at trough |
//! | `write-heavy-ticker` | high put ratio, very short TTLs | invalidation/TTL churn on the write path |
//! | `mixed-tenants` | two keyspaces with disjoint TTL/staleness-bound regimes | one tenant's policy bleeding into the other's |
//! | `freshness-regimes` | `max_staleness` swept across constraint classes | bounded-read bookkeeping, per-class accounting |
//! | `push-storm` | bounded reads racing a store-push invalidation storm | refetch-loop regressions: refusals leaking to clients, origin stampedes |
//!
//! The `freshness-regimes` sweep mirrors the varying-freshness-demand
//! regimes of the caching-under-freshness-constraints literature
//! (Poojary et al.; Bastopcu & Ulukus — see PAPERS.md): each segment is
//! one constraint class, from strict to unconstrained.
//!
//! Every scenario is a pure function of [`ScenarioParams`] — same seed,
//! rate and duration produce a byte-identical schedule (keys, sizes,
//! TTLs, bounds, deadlines), which is what makes stored per-scenario
//! baselines meaningful: a run that diverges did so because the *system*
//! changed, not the workload.
//!
//! **Violation-free by construction.** Scenarios attach staleness bounds
//! that are generous relative to their own duration (a bound can only
//! refuse when an entry's age exceeds it, and no entry can get older
//! than the run), so a correct server replays every scenario with zero
//! staleness violations. `push-storm` extends the property to the
//! refetch loop: replayed against a plain server it is violation-free
//! like the others, and replayed while a `store-push` process
//! invalidates the same keyspace it stays violation-free **only if**
//! the server's origin refetch path rescues every refusal — which is
//! exactly what its CI leg gates. That is the property baseline gating enforces
//! with zero tolerance; deliberately violating runs (for testing the
//! gate itself) tighten bounds via the loadgen `--bound-ms` override.

use crate::arrival::{ArrivalProcess, DiurnalPoisson, Poisson};
use crate::keyspace::KeySpace;
use crate::replay::{TimedOp, WireOp};
use fresca_sim::rng::mix64;
use fresca_sim::{RngFactory, SimDuration, SimTime};
use rand::Rng;

/// Knobs every scenario accepts: the RNG master seed, the mean offered
/// rate in ops/second, and the schedule's wall-clock duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioParams {
    /// Master seed; every stream the scenario draws derives from it.
    pub seed: u64,
    /// Mean offered load in operations per second.
    pub rate: f64,
    /// Total schedule duration (wall time when replayed open-loop).
    pub duration: SimDuration,
}

/// One registered scenario: its identity, documentation, CI-sized
/// default knobs, and the generator itself.
pub struct ScenarioDef {
    /// Registry name, as given to `loadgen --scenario <name>`.
    pub name: &'static str,
    /// One-line description of the regime this scenario replays.
    pub summary: &'static str,
    /// Default mean rate (ops/s) when the caller does not override it —
    /// sized so a default run finishes in seconds on a shared runner.
    pub default_rate: f64,
    /// Default schedule duration in seconds.
    pub default_duration_secs: u64,
    build: fn(&ScenarioParams) -> Vec<TimedOp>,
}

impl std::fmt::Debug for ScenarioDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioDef")
            .field("name", &self.name)
            .field("default_rate", &self.default_rate)
            .field("default_duration_secs", &self.default_duration_secs)
            .finish()
    }
}

impl ScenarioDef {
    /// The scenario's default parameters for `seed`.
    pub fn default_params(&self, seed: u64) -> ScenarioParams {
        ScenarioParams {
            seed,
            rate: self.default_rate,
            duration: SimDuration::from_secs(self.default_duration_secs),
        }
    }

    /// Generate the schedule. Deterministic in `params`; the result is
    /// time-sorted and non-empty.
    pub fn build(&self, params: &ScenarioParams) -> Vec<TimedOp> {
        assert!(
            params.rate.is_finite() && params.rate > 0.0,
            "scenario rate must be positive and finite, got {}",
            params.rate
        );
        assert!(!params.duration.is_zero(), "scenario duration must be positive");
        let mut ops = (self.build)(params);
        // Merged multi-stream scenarios interleave by timestamp; a
        // stable sort keeps equal-time ops in stream order, so the
        // schedule stays a pure function of the params.
        ops.sort_by_key(|op| op.at);
        assert!(!ops.is_empty(), "scenario {:?} produced an empty schedule", self.name);
        ops
    }
}

/// The scenario registry, in documentation order.
pub fn all() -> &'static [ScenarioDef] {
    &SCENARIOS
}

/// Look a scenario up by registry name.
pub fn find(name: &str) -> Option<&'static ScenarioDef> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// Registry names, for `--help` texts and error messages.
pub fn names() -> Vec<&'static str> {
    SCENARIOS.iter().map(|s| s.name).collect()
}

static SCENARIOS: [ScenarioDef; 7] = [
    ScenarioDef {
        name: "flash-crowd",
        summary: "Zipf traffic with a 16-key hot set taking 60% of ops; \
                  the hot set flips to a disjoint one mid-run",
        default_rate: 20_000.0,
        default_duration_secs: 4,
        build: flash_crowd,
    },
    ScenarioDef {
        name: "diurnal",
        summary: "read-heavy traffic under a sinusoidal open-loop rate \
                  (two compressed day/night cycles)",
        default_rate: 15_000.0,
        default_duration_secs: 4,
        build: diurnal,
    },
    ScenarioDef {
        name: "write-heavy-ticker",
        summary: "65% puts with 50ms TTLs over a small keyspace — \
                  ticker-style churn where entries expire almost immediately",
        default_rate: 20_000.0,
        default_duration_secs: 3,
        build: write_heavy_ticker,
    },
    ScenarioDef {
        name: "mixed-tenants",
        summary: "two disjoint keyspaces with opposite freshness regimes: \
                  long-TTL unbounded reads vs short-TTL bounded reads",
        default_rate: 20_000.0,
        default_duration_secs: 3,
        build: mixed_tenants,
    },
    ScenarioDef {
        name: "freshness-regimes",
        summary: "max_staleness swept across five constraint classes \
                  (strict → unconstrained), one keyspace segment each",
        default_rate: 15_000.0,
        default_duration_secs: 4,
        build: freshness_regimes,
    },
    ScenarioDef {
        name: "push-storm",
        summary: "read-mostly bounded traffic over the store-pushed keyspace; \
                  run against a store-push + origin pair, every \
                  invalidation-induced refusal must refetch to Fresh",
        default_rate: 15_000.0,
        default_duration_secs: 3,
        build: push_storm,
    },
    ScenarioDef {
        name: "churn",
        summary: "steady mixed traffic with long TTLs and loose bounds, \
                  shaped for membership churn: run under `loadgen --chaos` \
                  to measure freshness while nodes die and rejoin",
        default_rate: 12_000.0,
        default_duration_secs: 6,
        build: churn,
    },
];

/// Deterministic per-key value size in `min..=max` bytes: a SplitMix64
/// hash of the key, so a key's size is a pure function of its id
/// (stable across runs and across read/write interleavings).
fn key_size(key: u64, min: u32, max: u32) -> u32 {
    debug_assert!(min >= 1 && min <= max);
    min + (mix64(key) % (max - min + 1) as u64) as u32
}

/// One homogeneous Poisson stream of mixed gets/puts over a Zipf
/// keyspace — the building block the multi-stream scenarios merge.
struct StreamSpec {
    /// RNG stream label (must be unique within a scenario).
    label: &'static str,
    /// Stream starts at this offset into the schedule.
    start: SimTime,
    /// Stream ends here (exclusive).
    end: SimTime,
    /// Mean rate of this stream, ops/s.
    rate: f64,
    /// Keyspace size.
    num_keys: u64,
    /// First key id (streams on disjoint keyspaces use disjoint bases).
    key_base: u64,
    /// Zipf exponent over the keyspace.
    zipf: f64,
    /// Probability an op is a read.
    read_ratio: f64,
    /// TTL attached to every put.
    ttl: Option<SimDuration>,
    /// Staleness bound attached to every get.
    bound: Option<SimDuration>,
    /// Per-key value sizes drawn deterministically from this range.
    size_min: u32,
    /// Upper end of the per-key size range.
    size_max: u32,
}

fn stream_ops(f: &RngFactory, spec: &StreamSpec, out: &mut Vec<TimedOp>) {
    let mut arrivals = f.stream(&format!("{}.arrivals", spec.label));
    let mut keys = f.stream(&format!("{}.keys", spec.label));
    let mut ops_rng = f.stream(&format!("{}.ops", spec.label));
    let mut perm = f.stream(&format!("{}.perm", spec.label));
    let ks = KeySpace::new(spec.num_keys, spec.zipf, spec.key_base, &mut perm);
    let mut proc = Poisson::new(spec.rate);
    let mut t = spec.start;
    loop {
        t = proc.next_after(t, &mut arrivals);
        if t >= spec.end {
            break;
        }
        let key = ks.sample(&mut keys).0;
        let op = if ops_rng.gen::<f64>() < spec.read_ratio {
            WireOp::Get { key, max_staleness: spec.bound }
        } else {
            WireOp::Put {
                key,
                value_size: key_size(key, spec.size_min, spec.size_max),
                ttl: spec.ttl,
            }
        };
        out.push(TimedOp { at: t, op });
    }
}

/// Number of keys in each of `flash-crowd`'s two hot sets.
pub const FLASH_CROWD_HOT_KEYS: u64 = 16;
/// Cold (background Zipf) keyspace size in `flash-crowd`.
pub const FLASH_CROWD_COLD_KEYS: u64 = 4096;
/// Share of operations directed at the active hot set.
pub const FLASH_CROWD_HOT_SHARE: f64 = 0.6;

/// First key id of the pre-flip hot set (disjoint from the cold space).
pub fn flash_crowd_hot_a() -> std::ops::Range<u64> {
    FLASH_CROWD_COLD_KEYS..FLASH_CROWD_COLD_KEYS + FLASH_CROWD_HOT_KEYS
}

/// First key id of the post-flip hot set (disjoint from A and the cold
/// space).
pub fn flash_crowd_hot_b() -> std::ops::Range<u64> {
    let a = flash_crowd_hot_a();
    a.end..a.end + FLASH_CROWD_HOT_KEYS
}

/// `flash-crowd`: a Zipf background plus a 16-key hot set absorbing 60%
/// of traffic; at `duration/2` the hot set flips to a disjoint key
/// range, the way a breaking-news object displaces yesterday's. Guards
/// the hit path under extreme key contention and the cache's reaction
/// to a popularity change (the old hot set must stop being served).
fn flash_crowd(p: &ScenarioParams) -> Vec<TimedOp> {
    let f = RngFactory::new(p.seed);
    let mut arrivals = f.stream("flash-crowd.arrivals");
    let mut keys = f.stream("flash-crowd.keys");
    let mut ops_rng = f.stream("flash-crowd.ops");
    let mut hot_rng = f.stream("flash-crowd.hot");
    let mut perm = f.stream("flash-crowd.perm");

    let cold = KeySpace::new(FLASH_CROWD_COLD_KEYS, 1.05, 0, &mut perm);
    let flip_at = SimTime::ZERO + SimDuration::from_nanos(p.duration.as_nanos() / 2);
    let end = SimTime::ZERO + p.duration;
    let mut proc = Poisson::new(p.rate);
    let (hot_a, hot_b) = (flash_crowd_hot_a(), flash_crowd_hot_b());

    let mut out = Vec::new();
    let mut t = SimTime::ZERO;
    loop {
        t = proc.next_after(t, &mut arrivals);
        if t >= end {
            break;
        }
        let key = if hot_rng.gen::<f64>() < FLASH_CROWD_HOT_SHARE {
            let hot = if t < flip_at { hot_a.clone() } else { hot_b.clone() };
            hot.start + hot_rng.gen_range(0..FLASH_CROWD_HOT_KEYS)
        } else {
            cold.sample(&mut keys).0
        };
        let op = if ops_rng.gen::<f64>() < 0.92 {
            WireOp::Get { key, max_staleness: None }
        } else {
            WireOp::Put {
                key,
                value_size: key_size(key, 64, 1024),
                ttl: Some(SimDuration::from_millis(250)),
            }
        };
        out.push(TimedOp { at: t, op });
    }
    out
}

/// `diurnal`: read-heavy traffic whose arrival rate follows a sinusoid
/// with two full periods over the run — a compressed day/night cycle.
/// Guards open-loop pacing and tail latency at the peak; the load
/// generator's scheduled-send latency accounting means falling behind
/// at peak shows up as p99/p999, not silently absorbed.
fn diurnal(p: &ScenarioParams) -> Vec<TimedOp> {
    let f = RngFactory::new(p.seed);
    let mut arrivals = f.stream("diurnal.arrivals");
    let mut keys = f.stream("diurnal.keys");
    let mut ops_rng = f.stream("diurnal.ops");
    let mut perm = f.stream("diurnal.perm");

    let ks = KeySpace::new(4096, 0.9, 0, &mut perm);
    let period = SimDuration::from_nanos((p.duration.as_nanos() / 2).max(1));
    let mut proc = DiurnalPoisson::new(p.rate, 0.6, period);
    let end = SimTime::ZERO + p.duration;

    let mut out = Vec::new();
    let mut t = SimTime::ZERO;
    loop {
        t = proc.next_after(t, &mut arrivals);
        if t >= end {
            break;
        }
        let key = ks.sample(&mut keys).0;
        let op = if ops_rng.gen::<f64>() < 0.97 {
            WireOp::Get { key, max_staleness: None }
        } else {
            WireOp::Put {
                key,
                value_size: key_size(key, 64, 1024),
                ttl: Some(SimDuration::from_secs(1)),
            }
        };
        out.push(TimedOp { at: t, op });
    }
    out
}

/// `write-heavy-ticker`: 65% puts with 50ms TTLs over a small keyspace
/// — a market-data-style stream where values are superseded almost as
/// fast as they are written. Reads carry a 30s staleness bound, so the
/// bounded-read path runs on every get while refusals stay impossible
/// for a run shorter than the bound. Guards the write path, TTL churn,
/// and version monotonicity under rapid supersession.
fn write_heavy_ticker(p: &ScenarioParams) -> Vec<TimedOp> {
    let f = RngFactory::new(p.seed);
    let mut out = Vec::new();
    stream_ops(
        &f,
        &StreamSpec {
            label: "ticker",
            start: SimTime::ZERO,
            end: SimTime::ZERO + p.duration,
            rate: p.rate,
            num_keys: 1024,
            key_base: 0,
            zipf: 1.0,
            read_ratio: 0.35,
            ttl: Some(SimDuration::from_millis(50)),
            bound: Some(SimDuration::from_secs(30)),
            size_min: 32,
            size_max: 256,
        },
        &mut out,
    );
    out
}

/// First key id of the `mixed-tenants` short-TTL tenant (tenant B).
pub const MIXED_TENANTS_B_BASE: u64 = 2048;

/// `mixed-tenants`: two applications sharing one cache with *disjoint*
/// freshness regimes — tenant A reads long-TTL entries unbounded
/// (classic read-mostly content), tenant B hammers short-TTL entries
/// with bounded reads and a 45% write share (freshness-sensitive
/// telemetry). Guards policy isolation: one tenant's TTL/bound regime
/// must not perturb the other's hit ratio or latency.
fn mixed_tenants(p: &ScenarioParams) -> Vec<TimedOp> {
    let f = RngFactory::new(p.seed);
    let (start, end) = (SimTime::ZERO, SimTime::ZERO + p.duration);
    let mut out = Vec::new();
    stream_ops(
        &f,
        &StreamSpec {
            label: "tenant-a",
            start,
            end,
            rate: p.rate / 2.0,
            num_keys: MIXED_TENANTS_B_BASE,
            key_base: 0,
            zipf: 1.1,
            read_ratio: 0.95,
            ttl: Some(SimDuration::from_secs(2)),
            bound: None,
            size_min: 128,
            size_max: 4096,
        },
        &mut out,
    );
    stream_ops(
        &f,
        &StreamSpec {
            label: "tenant-b",
            start,
            end,
            rate: p.rate / 2.0,
            num_keys: 2048,
            key_base: MIXED_TENANTS_B_BASE,
            zipf: 0.8,
            read_ratio: 0.55,
            ttl: Some(SimDuration::from_millis(100)),
            bound: Some(SimDuration::from_secs(60)),
            size_min: 32,
            size_max: 512,
        },
        &mut out,
    );
    out
}

/// The `freshness-regimes` constraint classes: `(name, max_staleness,
/// ttl)` per segment, strictest first. Bounds are generous relative to
/// any CI-sized run (see the module docs on violation-freedom); what
/// varies across classes is the bound/TTL *ratio* the serving path must
/// account under.
pub const FRESHNESS_CLASSES: [(&str, Option<u64>, Option<u64>); 5] = [
    ("strict", Some(5_000), Some(50)),
    ("tight", Some(10_000), Some(100)),
    ("moderate", Some(20_000), Some(250)),
    ("relaxed", Some(60_000), Some(1_000)),
    ("unconstrained", None, None),
];

/// Keys per `freshness-regimes` segment (segments use disjoint bases).
pub const FRESHNESS_SEGMENT_KEYS: u64 = 512;

/// `freshness-regimes`: the schedule is divided into five equal
/// segments, each replaying one freshness-constraint class from the
/// caching-under-freshness literature (strict → unconstrained) on its
/// own keyspace segment: `max_staleness` (in ms) and TTL sweep together
/// from tightest to absent. Guards the bounded-read accounting across
/// the whole constraint spectrum in a single run.
fn freshness_regimes(p: &ScenarioParams) -> Vec<TimedOp> {
    let f = RngFactory::new(p.seed);
    let seg_ns = p.duration.as_nanos() / FRESHNESS_CLASSES.len() as u64;
    let mut out = Vec::new();
    for (i, (_, bound_ms, ttl_ms)) in FRESHNESS_CLASSES.iter().enumerate() {
        let start = SimTime::ZERO + SimDuration::from_nanos(seg_ns * i as u64);
        // Labels must be static; index the RNG streams by key base
        // instead, which is unique per segment.
        let key_base = i as u64 * FRESHNESS_SEGMENT_KEYS;
        let mut arrivals = f.stream(&format!("regimes.{i}.arrivals"));
        let mut keys = f.stream(&format!("regimes.{i}.keys"));
        let mut ops_rng = f.stream(&format!("regimes.{i}.ops"));
        let mut perm = f.stream(&format!("regimes.{i}.perm"));
        let ks = KeySpace::new(FRESHNESS_SEGMENT_KEYS, 1.0, key_base, &mut perm);
        let mut proc = Poisson::new(p.rate);
        let end = start + SimDuration::from_nanos(seg_ns);
        let mut t = start;
        loop {
            t = proc.next_after(t, &mut arrivals);
            if t >= end {
                break;
            }
            let key = ks.sample(&mut keys).0;
            let op = if ops_rng.gen::<f64>() < 0.9 {
                WireOp::Get { key, max_staleness: bound_ms.map(SimDuration::from_millis) }
            } else {
                WireOp::Put {
                    key,
                    value_size: key_size(key, 64, 512),
                    ttl: ttl_ms.map(SimDuration::from_millis),
                }
            };
            out.push(TimedOp { at: t, op });
        }
    }
    out
}

/// Keyspace size of `push-storm` — sized to match the `--keys` knob of
/// the `store-push` process its CI leg runs alongside, so every key the
/// load generator touches is also a key the backend invalidates or
/// updates.
pub const PUSH_STORM_KEYS: u64 = 2048;

/// `push-storm`: read-mostly (85%) Zipf traffic with a staleness bound
/// on every get, over exactly the keyspace a concurrent `store-push`
/// process dirties. On a plain server this is violation-free like every
/// scenario (the 10s bound dwarfs the run). Its real habitat is the CI
/// leg that replays it against a `serve --origin` + `store-push
/// --origin` pair: backend invalidations land mid-run, every bounded
/// read of an invalidated entry refuses at *any* bound, and the only
/// way the run stays violation-free is the server parking the read,
/// refetching through the origin, and answering `Fresh` — the paper's
/// control loop under storm conditions. Short TTLs keep the cache's own
/// expiry churn in play at the same time, and misses on cold keys
/// exercise the refetch-on-miss path alongside refetch-on-refusal.
fn push_storm(p: &ScenarioParams) -> Vec<TimedOp> {
    let f = RngFactory::new(p.seed);
    let mut out = Vec::new();
    stream_ops(
        &f,
        &StreamSpec {
            label: "push-storm",
            start: SimTime::ZERO,
            end: SimTime::ZERO + p.duration,
            rate: p.rate,
            num_keys: PUSH_STORM_KEYS,
            key_base: 0,
            zipf: 0.9,
            read_ratio: 0.85,
            ttl: Some(SimDuration::from_millis(500)),
            bound: Some(SimDuration::from_secs(10)),
            size_min: 32,
            size_max: 512,
        },
        &mut out,
    );
    out
}

/// Keyspace size of the `churn` scenario.
pub const CHURN_KEYS: u64 = 2048;

/// `churn`: a steady 75%-read Zipf stream whose freshness parameters
/// are shaped for *membership* churn rather than data churn: 60s TTLs
/// keep entries servably fresh for the whole CI-sized run (so a node
/// join triggers real key handoff, not an empty stream), and a 30s
/// read bound keeps every get on the bounded path without ever being
/// refusable by age alone. On stable membership it is violation-free
/// like every scenario; its real habitat is `loadgen --chaos`, where a
/// node is SIGKILLed and rejoined mid-run and the run must stay free
/// of staleness violations, version anomalies, and checksum mismatches
/// while keys re-route and hand off around the death.
fn churn(p: &ScenarioParams) -> Vec<TimedOp> {
    let f = RngFactory::new(p.seed);
    let mut out = Vec::new();
    stream_ops(
        &f,
        &StreamSpec {
            label: "churn",
            start: SimTime::ZERO,
            end: SimTime::ZERO + p.duration,
            rate: p.rate,
            num_keys: CHURN_KEYS,
            key_base: 0,
            zipf: 0.9,
            read_ratio: 0.75,
            ttl: Some(SimDuration::from_secs(60)),
            bound: Some(SimDuration::from_secs(30)),
            size_min: 32,
            size_max: 256,
        },
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> ScenarioParams {
        ScenarioParams { seed, rate: 2000.0, duration: SimDuration::from_secs(2) }
    }

    #[test]
    fn registry_finds_every_scenario_by_name() {
        assert_eq!(all().len(), 7);
        for def in all() {
            assert!(std::ptr::eq(find(def.name).unwrap(), def));
            assert!(!def.summary.is_empty());
            assert!(def.default_rate > 0.0 && def.default_duration_secs > 0);
        }
        assert!(find("no-such-scenario").is_none());
        assert_eq!(names().len(), 7);
    }

    #[test]
    fn schedules_are_sorted_bounded_and_sized() {
        for def in all() {
            let p = small(9);
            let ops = def.build(&p);
            assert!(!ops.is_empty(), "{}", def.name);
            assert!(
                ops.windows(2).all(|w| w[0].at <= w[1].at),
                "{} schedule not sorted",
                def.name
            );
            let end = SimTime::ZERO + p.duration;
            assert!(ops.iter().all(|o| o.at < end), "{} op past duration", def.name);
            // Mean rate lands near the requested one (Poisson noise).
            let per_sec = ops.len() as f64 / p.duration.as_secs_f64();
            assert!(
                (per_sec - p.rate).abs() < 0.15 * p.rate,
                "{}: {per_sec} ops/s vs requested {}",
                def.name,
                p.rate
            );
            for op in &ops {
                if let WireOp::Put { value_size, .. } = op.op {
                    assert!(value_size >= 1, "{}: empty value", def.name);
                }
            }
        }
    }

    #[test]
    fn churn_keeps_entries_servably_fresh_for_handoff() {
        let ops = find("churn").unwrap().build(&small(11));
        let mut gets = 0usize;
        for op in &ops {
            match op.op {
                WireOp::Get { key, max_staleness } => {
                    gets += 1;
                    // Every read is bounded (the chaos run must exercise
                    // the bounded path), with a bound no correct server
                    // can violate by age alone in a CI-sized run.
                    assert_eq!(max_staleness, Some(SimDuration::from_secs(30)));
                    assert!(key < CHURN_KEYS);
                }
                WireOp::Put { key, ttl, .. } => {
                    // TTLs dwarf the run: entries stay servably fresh,
                    // so a mid-run join hands off real keys.
                    assert_eq!(ttl, Some(SimDuration::from_secs(60)));
                    assert!(key < CHURN_KEYS);
                }
            }
        }
        let ratio = gets as f64 / ops.len() as f64;
        assert!((ratio - 0.75).abs() < 0.03, "read ratio {ratio}");
    }

    #[test]
    fn flash_crowd_hot_set_flips_at_midpoint() {
        let p = small(3);
        let ops = find("flash-crowd").unwrap().build(&p);
        let mid = SimTime::ZERO + SimDuration::from_nanos(p.duration.as_nanos() / 2);
        let (a, b) = (flash_crowd_hot_a(), flash_crowd_hot_b());
        let count = |half: &dyn Fn(&TimedOp) -> bool, range: &std::ops::Range<u64>| {
            ops.iter().filter(|o| half(o) && range.contains(&o.op.key())).count()
        };
        let first = |o: &TimedOp| o.at < mid;
        let second = |o: &TimedOp| o.at >= mid;
        let (a1, b1) = (count(&first, &a), count(&first, &b));
        let (a2, b2) = (count(&second, &a), count(&second, &b));
        assert!(a1 > 0 && b2 > 0);
        assert_eq!(b1, 0, "post-flip hot set must be silent before the flip");
        assert_eq!(a2, 0, "pre-flip hot set must be silent after the flip");
        // The active hot set really absorbs the configured share.
        let first_total = ops.iter().filter(|o| first(o)).count();
        assert!(
            a1 as f64 > 0.5 * first_total as f64,
            "hot share too low: {a1}/{first_total}"
        );
    }

    #[test]
    fn write_heavy_ticker_is_write_heavy_with_short_ttls() {
        let ops = find("write-heavy-ticker").unwrap().build(&small(4));
        let puts: Vec<_> = ops.iter().filter(|o| !o.op.is_get()).collect();
        let ratio = puts.len() as f64 / ops.len() as f64;
        assert!((ratio - 0.65).abs() < 0.03, "put ratio {ratio}");
        for op in &puts {
            let WireOp::Put { ttl, .. } = op.op else { unreachable!() };
            assert_eq!(ttl, Some(SimDuration::from_millis(50)));
        }
        for op in &ops {
            if let WireOp::Get { max_staleness, .. } = op.op {
                assert_eq!(max_staleness, Some(SimDuration::from_secs(30)));
            }
        }
    }

    #[test]
    fn mixed_tenants_regimes_are_disjoint() {
        let ops = find("mixed-tenants").unwrap().build(&small(5));
        let (mut a_ops, mut b_ops) = (0u64, 0u64);
        for op in &ops {
            let tenant_b = op.op.key() >= MIXED_TENANTS_B_BASE;
            if tenant_b {
                b_ops += 1;
            } else {
                a_ops += 1;
            }
            match op.op {
                WireOp::Get { max_staleness, .. } => {
                    let expect = if tenant_b { Some(SimDuration::from_secs(60)) } else { None };
                    assert_eq!(max_staleness, expect);
                }
                WireOp::Put { ttl, .. } => {
                    let expect = if tenant_b {
                        Some(SimDuration::from_millis(100))
                    } else {
                        Some(SimDuration::from_secs(2))
                    };
                    assert_eq!(ttl, expect);
                }
            }
        }
        // Roughly even traffic split between tenants.
        let share = a_ops as f64 / (a_ops + b_ops) as f64;
        assert!((share - 0.5).abs() < 0.05, "tenant split {share}");
    }

    #[test]
    fn freshness_regimes_sweeps_bounds_per_segment() {
        let p = small(6);
        let ops = find("freshness-regimes").unwrap().build(&p);
        let seg_ns = p.duration.as_nanos() / FRESHNESS_CLASSES.len() as u64;
        for op in &ops {
            let seg = (op.at.as_nanos() / seg_ns).min(FRESHNESS_CLASSES.len() as u64 - 1);
            let (_, bound_ms, ttl_ms) = FRESHNESS_CLASSES[seg as usize];
            // Keys stay inside the segment's keyspace slice.
            let base = seg * FRESHNESS_SEGMENT_KEYS;
            assert!(
                (base..base + FRESHNESS_SEGMENT_KEYS).contains(&op.op.key()),
                "segment {seg} key {}",
                op.op.key()
            );
            match op.op {
                WireOp::Get { max_staleness, .. } => {
                    assert_eq!(max_staleness, bound_ms.map(SimDuration::from_millis));
                }
                WireOp::Put { ttl, .. } => {
                    assert_eq!(ttl, ttl_ms.map(SimDuration::from_millis));
                }
            }
        }
        // Every class contributes ops.
        for seg in 0..FRESHNESS_CLASSES.len() as u64 {
            let base = seg * FRESHNESS_SEGMENT_KEYS;
            assert!(
                ops.iter().any(|o| (base..base + FRESHNESS_SEGMENT_KEYS).contains(&o.op.key())),
                "class {seg} produced no ops"
            );
        }
    }

    #[test]
    fn push_storm_stays_inside_the_store_pushed_keyspace() {
        let ops = find("push-storm").unwrap().build(&small(12));
        let mut gets = 0u64;
        for op in &ops {
            // Every key must be one the paired store-push process owns.
            assert!(op.op.key() < PUSH_STORM_KEYS, "key {} outside storm", op.op.key());
            match op.op {
                WireOp::Get { max_staleness, .. } => {
                    gets += 1;
                    // The bound is what makes an invalidation refusable —
                    // every get must carry one for the CI leg to mean
                    // anything.
                    assert_eq!(max_staleness, Some(SimDuration::from_secs(10)));
                }
                WireOp::Put { ttl, .. } => {
                    assert_eq!(ttl, Some(SimDuration::from_millis(500)));
                }
            }
        }
        let read_ratio = gets as f64 / ops.len() as f64;
        assert!((read_ratio - 0.85).abs() < 0.03, "read ratio {read_ratio}");
    }

    #[test]
    fn diurnal_peak_dominates_trough() {
        let p = ScenarioParams { seed: 8, rate: 4000.0, duration: SimDuration::from_secs(4) };
        let ops = find("diurnal").unwrap().build(&p);
        // Period = duration/2 = 2s: peak quarters around 0.5s and 2.5s,
        // troughs around 1.5s and 3.5s.
        let in_window = |t: SimTime, centers: &[f64]| {
            centers.iter().any(|c| (t.as_secs_f64() - c).abs() < 0.25)
        };
        let peak = ops.iter().filter(|o| in_window(o.at, &[0.5, 2.5])).count();
        let trough = ops.iter().filter(|o| in_window(o.at, &[1.5, 3.5])).count();
        assert!(
            peak as f64 > 1.5 * trough as f64,
            "peak {peak} should dominate trough {trough}"
        );
    }

    #[test]
    fn per_key_sizes_are_stable() {
        for def in all() {
            let ops = def.build(&small(11));
            let mut sizes = std::collections::HashMap::new();
            for op in &ops {
                if let WireOp::Put { key, value_size, .. } = op.op {
                    let prev = sizes.insert(key, value_size);
                    if let Some(prev) = prev {
                        assert_eq!(prev, value_size, "{}: key {key} changed size", def.name);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn rejects_nonpositive_rate() {
        let def = find("flash-crowd").unwrap();
        def.build(&ScenarioParams { seed: 1, rate: 0.0, duration: SimDuration::from_secs(1) });
    }
}
