//! End-to-end cluster test: several in-process `serve` nodes, a
//! consistent-hash [`ClusterClient`], and a real [`StorePusher`] driving
//! wire-level invalidation — the paper's write-triggered freshness
//! pipeline (Figure 4) running between a real store node and real cache
//! nodes instead of inside the simulator.
//!
//! Wall-clock caveat (same rule as `tests/wire_roundtrip.rs`): nothing
//! here asserts that an operation completed *quickly*. Every outcome is
//! forced by construction — an invalidated entry is refused at any
//! bound, a pushed update rewrites a size — so the assertions hold on
//! arbitrarily loaded CI machines.

use fresca_cache::{CacheConfig, Capacity, EvictionPolicy};
use fresca_net::{payload, GetStatus};
use fresca_serve::loadgen::{self, LoadGenConfig, Mode};
use fresca_serve::push::{PushConfig, PushPolicy};
use fresca_serve::server::{self, ServerConfig, ServerHandle};
use fresca_serve::{ClusterClient, StorePusher};
use fresca_sim::SimDuration;
use fresca_workload::{PoissonZipfConfig, ReplayConfig, WorkloadGen};

fn spawn_cluster(n: usize) -> (Vec<ServerHandle>, Vec<String>) {
    let handles: Vec<ServerHandle> = (0..n)
        .map(|_| {
            server::spawn(
                "127.0.0.1:0",
                ServerConfig {
                    cache: CacheConfig {
                        capacity: Capacity::Unbounded,
                        eviction: EvictionPolicy::Lru,
                    },
                    shards: 8,
                    event_loops: 1,
                    origin: None,
                },
            )
            .expect("bind ephemeral localhost port")
        })
        .collect();
    let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
    (handles, addrs)
}

/// Keys route consistently: every participant — two independent cluster
/// clients and the server-side counters — agrees on which node owns
/// which key, and a key written through the cluster is readable through
/// it (and only lives on its owning node).
#[test]
fn cluster_routes_keys_consistently() {
    let (handles, addrs) = spawn_cluster(3);
    let mut a = ClusterClient::connect(&addrs).unwrap();
    let mut b = ClusterClient::connect(&addrs).unwrap();

    let keys: Vec<u64> = (0..96).collect();
    for &key in &keys {
        assert_eq!(a.addr_for(key), b.addr_for(key), "clients disagree on key {key}");
        let v = a.put(key, payload::pattern(key, 32), None).unwrap();
        // The *other* client reads what this one wrote: same owner node —
        // and the exact bytes, checksum-intact across the wire.
        let got = b.get(key, None).unwrap();
        assert_eq!(got.status, GetStatus::Fresh, "key {key}");
        assert_eq!(got.version, v);
        assert_eq!(got.value_size(), 32);
        assert!(payload::verify(key, &got.value), "key {key} payload corrupted in flight");
    }

    // Ownership is exclusive: each node's put/get counters match exactly
    // the keys the ring assigns it, and nothing else.
    let per_node = a.ring().partition(keys.iter().copied());
    assert!(per_node.iter().all(|bucket| !bucket.is_empty()), "3 nodes all own keys");
    for (i, handle) in handles.into_iter().enumerate() {
        let stats = handle.shutdown();
        assert_eq!(stats.puts, per_node[i].len() as u64, "node {i} puts");
        assert_eq!(stats.gets, per_node[i].len() as u64, "node {i} gets");
    }
}

/// The acceptance path: a store-push `Invalidate` batch makes a
/// subsequent bounded read on the owning node refuse (forcing a
/// refetch) rather than serve the stale value, and every pushed batch
/// is acknowledged per node by sequence number.
#[test]
fn store_push_invalidation_refuses_stale_reads_and_acks_by_seq() {
    let (handles, addrs) = spawn_cluster(2);
    let mut client = ClusterClient::connect(&addrs).unwrap();
    let mut pusher = StorePusher::connect(
        &addrs,
        PushConfig { policy: PushPolicy::Invalidate, ..Default::default() },
    )
    .unwrap();
    assert_eq!(
        pusher.ring().nodes(),
        client.ring().nodes(),
        "pusher and client build identical rings from the member list"
    );

    // Populate every node through the cluster client; all reads serve.
    let keys: Vec<u64> = (0..48).collect();
    for &key in &keys {
        client.put(key, payload::pattern(key, 16), None).unwrap();
        assert!(client.get(key, None).unwrap().is_served());
    }

    // The store sees a write burst over the same keys and flushes one
    // invalidate batch per owning node.
    for &key in &keys {
        pusher.write(key, 16);
    }
    let receipts = pusher.flush().unwrap();
    assert_eq!(receipts.len(), 2, "both nodes own dirty keys");
    let mut acked_nodes: Vec<&str> = receipts.iter().map(|r| r.node.as_str()).collect();
    acked_nodes.sort_unstable();
    let mut expect: Vec<&str> = addrs.iter().map(String::as_str).collect();
    expect.sort_unstable();
    assert_eq!(acked_nodes, expect, "a per-node Ack was observed for every pushed batch");
    for r in &receipts {
        assert_eq!(r.seq, 1, "first batch on each node's connection");
    }
    assert_eq!(receipts.iter().map(|r| r.keys).sum::<usize>(), keys.len());

    // Every key is now known-stale on its owning node: a bounded read —
    // even a very permissive one — must refuse rather than serve the
    // stale value. The client's next stop is the backing store.
    for &key in &keys {
        let got = client.get(key, Some(SimDuration::from_secs(3600))).unwrap();
        assert_eq!(got.status, GetStatus::RefusedStale, "key {key} served despite invalidation");
        assert!(!got.is_served());
    }

    // A refetch (modelled as a fresh put, cache-aside style) heals the
    // entry and reads serve again.
    for &key in &keys {
        client.put(key, payload::pattern(key, 16), None).unwrap();
        assert!(client.get(key, None).unwrap().is_served(), "key {key} after refetch");
    }

    // A second identical write burst is entirely suppressed by the
    // backend's invalidation tracker (§3.1): no batches, no acks owed.
    for &key in &keys {
        pusher.write(key, 16);
    }
    assert!(pusher.flush().unwrap().is_empty(), "already-invalidated keys need no resend");
    let stats = pusher.stats();
    assert_eq!(stats.acks, stats.batches, "every batch sent was acknowledged");
    assert_eq!(stats.suppressed, keys.len() as u64);

    // Server-side accounting agrees: each node acked one batch and
    // invalidated exactly the keys it owns.
    let per_node = client.ring().partition(keys.iter().copied());
    for (i, handle) in handles.into_iter().enumerate() {
        let s = handle.shutdown();
        assert_eq!(s.push_batches, 1, "node {i} batches");
        assert_eq!(s.keys_invalidated, per_node[i].len() as u64, "node {i} invalidations");
    }
}

/// Store-pushed `Update` batches refresh entries in place: reads keep
/// serving (no refusal window) and observe the pushed size, with
/// versions still monotone on every node.
#[test]
fn store_push_updates_refresh_in_place() {
    let (handles, addrs) = spawn_cluster(2);
    let mut client = ClusterClient::connect(&addrs).unwrap();
    let mut pusher = StorePusher::connect(
        &addrs,
        PushConfig { policy: PushPolicy::Update, ..Default::default() },
    )
    .unwrap();

    let mut last_version = std::collections::HashMap::new();
    for key in 0..32u64 {
        let v = client.put(key, payload::pattern(key, 8), None).unwrap();
        last_version.insert(key, v);
    }
    for key in 0..32u64 {
        pusher.write(key, 40);
    }
    let receipts = pusher.flush().unwrap();
    assert_eq!(receipts.iter().map(|r| r.keys).sum::<usize>(), 32);
    for key in 0..32u64 {
        let got = client.get(key, None).unwrap();
        assert!(got.is_served(), "update must not open a refusal window for key {key}");
        assert_eq!(got.value_size(), 40, "key {key} carries the pushed size");
        assert!(payload::verify(key, &got.value), "key {key} pushed bytes corrupted");
        assert!(
            got.version > last_version[&key],
            "key {key}: refreshed version regressed ({} <= {})",
            got.version,
            last_version[&key]
        );
    }
    for h in handles {
        let s = h.shutdown();
        assert_eq!(s.push_batches, 1);
    }
}

/// The loadgen cluster fan-out drives all nodes at once and produces a
/// clean merged report whose per-node rows account for every operation.
#[test]
fn loadgen_fans_out_across_the_cluster() {
    let (handles, addrs) = spawn_cluster(3);
    let nodes: Vec<(String, std::net::SocketAddr)> =
        handles.iter().zip(&addrs).map(|(h, a)| (a.clone(), h.addr())).collect();

    let trace = PoissonZipfConfig {
        rate: 50.0,
        num_keys: 100,
        read_ratio: 0.8,
        horizon: SimDuration::from_secs(100),
        ..Default::default()
    }
    .generate(11);
    let ops = ReplayConfig {
        ttl: Some(SimDuration::from_millis(500)),
        max_staleness: None,
        time_scale: 0.0,
    }
    .map_trace(&trace);

    let report = loadgen::run_cluster(
        &nodes,
        &ops,
        &LoadGenConfig {
            mode: Mode::Closed { connections: 2 },
            pipeline: 8,
            value_bytes: Some(loadgen::ValueDist::Uniform { min: 1, max: 2048 }),
        },
    )
    .unwrap();

    assert_eq!(report.aggregate.ops, ops.len() as u64);
    assert_eq!(report.nodes.len(), 3);
    let per_node_ops: u64 = report.nodes.iter().map(|n| n.report.ops).sum();
    assert_eq!(per_node_ops, report.aggregate.ops, "per-node rows cover the whole schedule");
    assert!(report.nodes.iter().all(|n| n.report.ops > 0), "every node served a share");
    assert!(report.is_clean(), "no violations expected: {report}");
    assert!(report.aggregate.value_bytes_written > 0, "real payload bytes flowed");
    assert_eq!(report.aggregate.checksum_mismatches, 0);
    // The status breakdown is internally consistent.
    let agg = &report.aggregate;
    assert_eq!(agg.fresh + agg.stale_served + agg.refused_stale + agg.misses, agg.gets);

    // Server-side: every request went to the node the ring owns it on.
    let total_served: u64 = handles
        .into_iter()
        .map(|h| {
            let s = h.shutdown();
            s.gets + s.puts
        })
        .sum();
    assert_eq!(total_served, ops.len() as u64);
}

/// A graceful leave loses zero acknowledged writes: the departing node
/// streams every servably-fresh entry it owns to the survivors (the
/// handoff the leave announce triggers), and a client that swaps to
/// the post-leave ring finds every key it wrote — served fresh, bytes
/// intact — at the key's new owner.
#[test]
fn graceful_leave_hands_every_acked_write_to_the_survivors() {
    use std::time::{Duration, Instant};

    let (handles, addrs) = spawn_cluster(3);
    let mut admin = fresca_serve::CacheClient::connect(addrs[0].as_str()).unwrap();
    for a in &addrs {
        admin.join(a).unwrap();
    }
    let mut client = ClusterClient::connect(&addrs).unwrap();
    assert!(client.refresh().unwrap());
    assert_eq!(client.members().len(), 3);

    // Acked writes, no TTL: servably fresh forever, so every one of
    // them is eligible for handoff.
    let keys: Vec<u64> = (0..128).collect();
    for &key in &keys {
        client.put(key, payload::pattern(key, 24), None).unwrap();
    }
    let victim = client.ring().node_for(keys[0]).unwrap().to_string();
    let victim_keys: Vec<u64> =
        keys.iter().copied().filter(|&k| client.ring().node_for(k) == Some(victim.as_str())).collect();
    assert!(!victim_keys.is_empty(), "the victim owns a share of the key space");

    admin.leave(&victim).unwrap();
    assert!(client.refresh().unwrap(), "the client adopts the post-leave view");
    assert_eq!(client.members().len(), 2);
    assert!(!client.members().contains(&victim));

    // Handoff is asynchronous (announce → victim rebalance → streamer),
    // so poll: every key must eventually serve fresh from its new
    // owner. Zero acked writes may be lost.
    let deadline = Instant::now() + Duration::from_secs(10);
    for &key in &keys {
        loop {
            let got = client.get(key, None).unwrap();
            if got.status == GetStatus::Fresh {
                assert!(payload::verify(key, &got.value), "key {key} corrupted in handoff");
                break;
            }
            assert!(
                Instant::now() < deadline,
                "key {key} never reached its new owner (status {:?})",
                got.status
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // The books agree: the victim streamed out exactly its share, the
    // survivors installed exactly that many entries.
    let mut handoff_in = 0;
    let mut victim_out = 0;
    for (handle, addr) in handles.into_iter().zip(&addrs) {
        let s = handle.shutdown();
        if *addr == victim {
            victim_out = s.handoff_out;
        } else {
            handoff_in += s.handoff_in;
        }
    }
    assert_eq!(victim_out, victim_keys.len() as u64, "victim streamed exactly its share");
    assert_eq!(handoff_in, victim_keys.len() as u64, "survivors installed exactly that share");
}

/// One streamer thread announces views and hands keys off to every
/// destination, so a member that accepts a connection and then never
/// answers must cost the others a bounded wait, not every later
/// announcement: a node joined *after* the silent member still hears
/// the new epoch.
#[test]
fn silent_member_does_not_wedge_announcements_to_the_others() {
    use std::time::{Duration, Instant};

    let (handles, addrs) = spawn_cluster(2);
    // Accepts (the kernel completes the handshake) and never reads.
    let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let silent_addr = silent.local_addr().unwrap().to_string();

    let mut admin = fresca_serve::CacheClient::connect(addrs[0].as_str()).unwrap();
    admin.join(&addrs[0]).unwrap();
    admin.join(&silent_addr).unwrap();
    admin.join(&addrs[1]).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while handles[1].membership().epoch != 3 {
        assert!(
            Instant::now() < deadline,
            "the second node never heard epoch 3: {:?}",
            handles[1].membership()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(handles[1].membership().contains(&silent_addr));
    for h in handles {
        h.shutdown();
    }
}

/// The chaos harness end to end, in process: a three-node cluster, a
/// deterministic kill-one schedule that abruptly kills the victim
/// mid-run and restarts it, and a freshness-checking driver. The run
/// must stay clean — zero staleness violations, version anomalies, or
/// checksum mismatches — with the outage bounded, the ring epoch
/// settled on every node, and ownership (with data) restored to the
/// restarted node via handoff.
#[test]
fn chaos_kill_restart_stays_clean_and_restores_ownership() {
    use fresca_serve::chaos::{ChaosSchedule, Supervisor};
    use fresca_serve::server::ServerHandle;
    use std::time::Duration;

    fn node_config() -> ServerConfig {
        ServerConfig {
            cache: CacheConfig { capacity: Capacity::Unbounded, eviction: EvictionPolicy::Lru },
            shards: 8,
            event_loops: 1,
            origin: None,
        }
    }

    /// Kill = abrupt in-process shutdown (connections die mid-stream,
    /// the in-process stand-in for SIGKILL); restart = rebind the same
    /// address under the same advertised name, cache empty.
    struct InProcSupervisor {
        slots: Vec<Option<ServerHandle>>,
        addrs: Vec<String>,
    }

    impl Supervisor for InProcSupervisor {
        fn kill(&mut self, node: usize) {
            if let Some(h) = self.slots[node].take() {
                h.shutdown();
            }
        }
        fn restart(&mut self, node: usize) -> bool {
            match server::spawn_with_identity(
                self.addrs[node].as_str(),
                node_config(),
                Some(self.addrs[node].clone()),
            ) {
                Ok(h) => {
                    self.slots[node] = Some(h);
                    true
                }
                Err(_) => false,
            }
        }
    }

    let (handles, addrs) = spawn_cluster(3);
    let nodes: Vec<(String, std::net::SocketAddr)> =
        handles.iter().zip(&addrs).map(|(h, a)| (a.clone(), h.addr())).collect();
    let mut supervisor =
        InProcSupervisor { slots: handles.into_iter().map(Some).collect(), addrs: addrs.clone() };

    // Long TTLs and loose bounds (the churn shape): surviving entries
    // stay servably fresh across the outage, so the rejoin handoff has
    // something to stream back and a late read is never refused.
    let trace = PoissonZipfConfig {
        rate: 150.0,
        num_keys: 256,
        read_ratio: 0.7,
        horizon: SimDuration::from_secs(6),
        ..Default::default()
    }
    .generate(23);
    let ops = ReplayConfig {
        ttl: Some(SimDuration::from_secs(60)),
        max_staleness: Some(SimDuration::from_secs(30)),
        time_scale: 1.0,
    }
    .map_trace(&trace);
    let duration = Duration::from_nanos(ops.last().unwrap().at.as_nanos());
    let schedule = ChaosSchedule::generate("kill-one", 42, duration, 3).unwrap();

    let report = loadgen::run_cluster_chaos(
        &nodes,
        &ops,
        &LoadGenConfig {
            mode: Mode::Closed { connections: 2 },
            pipeline: 8,
            value_bytes: Some(loadgen::ValueDist::Uniform { min: 16, max: 512 }),
        },
        &schedule,
        &mut supervisor,
        42,
    )
    .unwrap();

    // The core promise: churn may cost availability and hit ratio,
    // never correctness.
    assert!(report.is_clean(), "staleness/anomaly/checksum violations under chaos: {report}");

    let chaos = report.chaos.as_ref().expect("chaos runs attach a chaos report");
    assert_eq!(chaos.schedule, "kill-one");
    assert_eq!(chaos.kills, 1);
    assert_eq!(chaos.restarts, 1);
    assert!(chaos.reconnects >= 1, "the driver reconnected to the restarted node");
    // Epoch ledger: 3 seeding joins + leave on kill + join on restart.
    assert_eq!(chaos.final_epoch, 5, "{chaos:?}");
    assert!(
        chaos.windows_bounded(Duration::from_secs(10)),
        "unavailability window unbounded: {chaos:?}"
    );
    let killed: Vec<_> = chaos.windows.iter().filter(|w| w.killed_at_secs >= 0.0).collect();
    assert_eq!(killed.len(), 1, "kill-one kills exactly one node");
    let w = killed[0];
    assert!(w.restarted_at_secs > w.killed_at_secs);
    assert!(w.recovered_at_secs >= w.killed_at_secs, "recovery stamped after the kill");
    assert_eq!(w.epoch, chaos.final_epoch, "the restarted node converged to the final view");
    assert!(
        w.handoff_in > 0,
        "rejoin handoff restored no data to the restarted node: {w:?}"
    );
}
