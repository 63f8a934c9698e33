//! End-to-end scenario replay: the named scenarios from
//! `fresca_workload::scenario` against a real in-process server.
//!
//! Two contracts are pinned here. First, the flash-crowd scenario's
//! mid-run popularity flip is visible *through the serving path*: the
//! set of hot keys the server actually serves changes at the halfway
//! mark, which is the whole point of replaying a flash crowd instead of
//! a stationary Zipf. Second, the `--fail-on-violations` semantics the
//! CI smoke tests rely on: a scenario replayed as generated is clean,
//! and the same schedule with impossible staleness bounds is not.

use fresca_cache::{CacheConfig, Capacity, EvictionPolicy};
use fresca_net::payload;
use fresca_serve::loadgen::{self, LoadGenConfig, Mode};
use fresca_serve::server::{self, ServerConfig};
use fresca_serve::CacheClient;
use fresca_sim::{SimDuration, SimTime};
use fresca_workload::{scenario, ScenarioParams, WireOp};

fn spawn_server() -> server::ServerHandle {
    server::spawn(
        "127.0.0.1:0",
        ServerConfig {
            cache: CacheConfig { capacity: Capacity::Unbounded, eviction: EvictionPolicy::Lru },
            shards: 8,
            event_loops: 2,
            origin: None,
        },
    )
    .expect("bind ephemeral localhost port")
}

/// Small-but-real flash-crowd build: enough ops for the hot share to
/// dominate sampling noise, small enough to replay in well under a
/// second over localhost.
fn flash_crowd_ops() -> (Vec<fresca_workload::TimedOp>, SimDuration) {
    let def = scenario::find("flash-crowd").expect("flash-crowd is registered");
    let duration = SimDuration::from_secs(2);
    let ops = def.build(&ScenarioParams { seed: 7, rate: 3000.0, duration });
    (ops, duration)
}

#[test]
fn flash_crowd_flip_shifts_the_served_key_distribution() {
    let handle = spawn_server();
    let mut client = CacheClient::connect(handle.addr()).unwrap();
    let (ops, duration) = flash_crowd_ops();
    let flip_at = SimTime::from_nanos(duration.as_nanos() / 2);
    let hot_a = scenario::flash_crowd_hot_a();
    let hot_b = scenario::flash_crowd_hot_b();

    // Replay the schedule in order (as fast as the socket allows — the
    // flip is keyed on the op timestamps, not wall time) and tally which
    // hot set the *served* reads land in, per half.
    let mut served = [[0u64; 2]; 2]; // [half][hot set a|b]
    let mut gets = [0u64; 2];
    for op in &ops {
        let half = usize::from(op.at >= flip_at);
        match op.op {
            WireOp::Get { key, max_staleness } => {
                gets[half] += 1;
                let resp = client.get(key, max_staleness).unwrap();
                if resp.is_served() {
                    if hot_a.contains(&key) {
                        served[half][0] += 1;
                    } else if hot_b.contains(&key) {
                        served[half][1] += 1;
                    }
                }
            }
            WireOp::Put { key, value_size, ttl } => {
                client.put(key, payload::pattern(key, value_size as usize), ttl).unwrap();
            }
        }
    }

    // The flip is total: before it, hot-set B is never even requested;
    // after it, hot-set A is gone. And the hot set actually dominates —
    // served hot-key reads make up a substantial share of each half's
    // gets (the scenario directs FLASH_CROWD_HOT_SHARE of them there,
    // and hot keys are written often enough to be present).
    assert_eq!(served[0][1], 0, "hot-set B keys served before the flip");
    assert_eq!(served[1][0], 0, "hot-set A keys served after the flip");
    assert!(gets[0] > 100 && gets[1] > 100, "halves too small: {gets:?}");
    let share_a = served[0][0] as f64 / gets[0] as f64;
    let share_b = served[1][1] as f64 / gets[1] as f64;
    assert!(
        share_a > scenario::FLASH_CROWD_HOT_SHARE * 0.5,
        "hot-set A share {share_a:.3} too small before the flip"
    );
    assert!(
        share_b > scenario::FLASH_CROWD_HOT_SHARE * 0.5,
        "hot-set B share {share_b:.3} too small after the flip"
    );
}

#[test]
fn flash_crowd_replay_is_clean_and_injected_bounds_violate() {
    let handle = spawn_server();
    let (ops, _) = flash_crowd_ops();
    let config = LoadGenConfig {
        mode: Mode::Closed { connections: 1 },
        pipeline: 16,
        value_bytes: None,
    };

    // As generated, the scenario replays violation-free: flash-crowd
    // gets carry no staleness bound, so nothing can be refused, and
    // every served read checksums against its put. This is what lets
    // CI run scenarios under `--fail-on-violations` and keep the
    // baselines' zero-tolerance counters at zero.
    let clean = loadgen::run(handle.addr(), &ops, &config).expect("clean replay");
    assert!(clean.is_clean(), "scenario replay not clean: {clean}");
    assert_eq!(clean.staleness_violations, 0);
    assert_eq!(clean.checksum_mismatches, 0);
    assert_eq!(clean.ops, ops.len() as u64);

    // The violation-injection lever (`loadgen --bound-ms 1` does this
    // same rewrite): an impossibly tight bound on every get must surface
    // as refused reads, i.e. staleness violations, and flip is_clean —
    // the signal `--fail-on-violations` and `baseline check` key on.
    let bound = Some(SimDuration::from_nanos(1));
    let mut bounded = ops.clone();
    for op in &mut bounded {
        if let WireOp::Get { max_staleness, .. } = &mut op.op {
            *max_staleness = bound;
        }
    }
    let dirty = loadgen::run(handle.addr(), &bounded, &config).expect("bounded replay");
    assert!(dirty.staleness_violations > 0, "1ns bounds refused nothing: {dirty}");
    assert!(!dirty.is_clean());
}
