//! End-to-end serving-path test: real TCP over localhost.
//!
//! The rest of the test suite exercises freshness under a virtual clock;
//! this file is where the paper's semantics must survive an actual
//! network boundary: the client's TTLs and staleness bounds travel in
//! `fresca-net` frames, the server enforces them against its
//! `SlabCache` shards on the wall clock, and the verdict travels back as
//! a `GetStatus`.
//!
//! Wall-clock caveat: assertions only ever rely on *lower* bounds on
//! elapsed time (sleeps guarantee an entry got older than X), never on
//! operations completing quickly, so the tests stay robust on loaded CI
//! machines.

use fresca_cache::{CacheConfig, Capacity, EvictionPolicy};
use fresca_net::{payload, GetStatus};
use fresca_serve::loadgen::{self, LoadGenConfig, Mode};
use fresca_serve::server::{self, ServerConfig};
use fresca_serve::CacheClient;
use fresca_sim::{SimDuration, SimTime};
use fresca_workload::{PoissonZipfConfig, ReplayConfig, TimedOp, WireOp, WorkloadGen};
use std::time::Duration;

fn spawn_server() -> server::ServerHandle {
    spawn_server_with_loops(2)
}

fn spawn_server_with_loops(event_loops: usize) -> server::ServerHandle {
    server::spawn(
        "127.0.0.1:0",
        ServerConfig {
            cache: CacheConfig { capacity: Capacity::Unbounded, eviction: EvictionPolicy::Lru },
            shards: 8,
            event_loops,
            origin: None,
        },
    )
    .expect("bind ephemeral localhost port")
}

/// Poll `cond` until it holds; panics with `what` after ten seconds.
/// For counters another thread publishes with no event to wait on.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn client_observes_values_ttl_expiry_and_bound_rejection() {
    let handle = spawn_server();
    let mut client = CacheClient::connect(handle.addr()).unwrap();

    // Correct values: a get returns the exact version and bytes the put
    // was acknowledged with — checksummed, not just size-matched.
    let v1 = client.put(1, payload::pattern(1, 64), None).unwrap();
    let got = client.get(1, None).unwrap();
    assert_eq!(got.status, GetStatus::Fresh);
    assert_eq!(got.version, v1);
    assert_eq!(got.value_size(), 64);
    assert!(payload::verify(1, &got.value), "served bytes differ from the written pattern");

    // Versions are monotone: a second put supersedes the first, bytes
    // and all.
    let v2 = client.put(1, payload::pattern(1, 128), None).unwrap();
    assert!(v2 > v1);
    let got = client.get(1, None).unwrap();
    assert_eq!((got.version, got.value_size()), (v2, 128));
    assert!(payload::verify(1, &got.value));

    // Unknown keys miss.
    assert_eq!(client.get(999, None).unwrap().status, GetStatus::Miss);

    // TTL expiry: fresh within the TTL, served-stale (flagged!) past it.
    client.put(2, payload::pattern(2, 32), Some(SimDuration::from_millis(40))).unwrap();
    assert_eq!(client.get(2, None).unwrap().status, GetStatus::Fresh);
    std::thread::sleep(Duration::from_millis(60));
    let stale = client.get(2, None).unwrap();
    assert_eq!(stale.status, GetStatus::ServedStale);
    assert!(stale.age >= SimDuration::from_millis(40), "age {} too small", stale.age);

    // Staleness-bound rejection: the entry has no TTL and is fresh by
    // the server's contract, but it is older than this reader's bound.
    client.put(3, payload::pattern(3, 16), None).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let refused = client.get(3, Some(SimDuration::from_millis(5))).unwrap();
    assert_eq!(refused.status, GetStatus::RefusedStale);
    assert!(!refused.is_served());
    assert!(refused.age >= SimDuration::from_millis(30));
    // A looser bound admits the same entry.
    assert!(client.get(3, Some(SimDuration::from_secs(10))).unwrap().is_served());

    // A backend invalidation refuses at any bound: known-stale data
    // never satisfies a freshness contract.
    assert!(handle.invalidate(3));
    assert_eq!(client.get(3, None).unwrap().status, GetStatus::RefusedStale);

    let stats = handle.shutdown();
    assert_eq!(stats.puts, 4);
    assert_eq!(stats.gets, 8);
    assert_eq!(stats.fresh, 4);
    assert_eq!(stats.stale_served, 1);
    assert_eq!(stats.refused, 2);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.protocol_errors, 0);
}

/// `ServerConfig.cache.eviction` reaches the shards: under the
/// freshness-aware policy an overflow evicts the entry a backend
/// invalidation already made worthless, not the colder entry that can
/// still be served (plain LRU would evict key 1 here).
#[test]
fn server_shards_run_the_configured_eviction_policy() {
    let handle = server::spawn(
        "127.0.0.1:0",
        ServerConfig {
            cache: CacheConfig {
                capacity: Capacity::Entries(3),
                eviction: EvictionPolicy::FreshnessAware { probe_depth: 3 },
            },
            shards: 1,
            event_loops: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral localhost port");
    let mut client = CacheClient::connect(handle.addr()).unwrap();
    for key in 1..=3 {
        client.put(key, payload::pattern(key, 16), None).unwrap();
    }
    assert!(handle.invalidate(2));
    client.put(4, payload::pattern(4, 16), None).unwrap();

    assert_eq!(client.get(2, None).unwrap().status, GetStatus::Miss, "the stale entry was evicted");
    assert_eq!(client.get(1, None).unwrap().status, GetStatus::Fresh, "the coldest key survived");
    handle.shutdown();
}

#[test]
fn open_loop_schedule_exposes_every_freshness_outcome() {
    let handle = spawn_server();
    let ms = SimDuration::from_millis;
    let at = |m: u64| SimTime::from_millis(m);
    // A hand-built schedule whose outcomes are forced by construction:
    // sleeps guarantee entries age past the relevant deadlines, and no
    // assertion depends on ops being fast.
    let ops = vec![
        TimedOp { at: at(0), op: WireOp::Put { key: 1, value_size: 64, ttl: None } },
        TimedOp { at: at(0), op: WireOp::Put { key: 2, value_size: 32, ttl: Some(ms(100)) } },
        TimedOp { at: at(0), op: WireOp::Put { key: 3, value_size: 16, ttl: None } },
        // Early reads: a fresh hit and a miss.
        TimedOp { at: at(10), op: WireOp::Get { key: 1, max_staleness: None } },
        TimedOp { at: at(10), op: WireOp::Get { key: 4, max_staleness: None } },
        // Late reads, 250ms in: key 2's TTL (100ms) has expired but the
        // unbounded read accepts it; key 3 is within its (absent) TTL
        // but older than this read's 50ms bound; key 1 satisfies a 10s
        // bound comfortably.
        TimedOp { at: at(250), op: WireOp::Get { key: 2, max_staleness: None } },
        TimedOp { at: at(250), op: WireOp::Get { key: 3, max_staleness: Some(ms(50)) } },
        TimedOp { at: at(250), op: WireOp::Get { key: 1, max_staleness: Some(SimDuration::from_secs(10)) } },
    ];
    let report = loadgen::run(
        handle.addr(),
        &ops,
        &LoadGenConfig { mode: Mode::Open, pipeline: 16, value_bytes: None },
    )
    .unwrap();
    assert_eq!(report.ops, 8);
    assert_eq!((report.gets, report.puts), (5, 3));
    assert_eq!(report.fresh, 2);
    assert_eq!(report.stale_served, 1, "TTL expiry observed over the wire");
    assert_eq!(report.staleness_violations, 1, "staleness-bound rejection observed");
    assert_eq!(report.misses, 1);
    assert!((report.hit_ratio - 3.0 / 5.0).abs() < 1e-9);
    assert_eq!(report.version_anomalies, 0);
    assert!(report.wall_secs >= 0.25, "open loop paced the schedule");

    let stats = handle.shutdown();
    assert_eq!(stats.refused, 1);
    assert_eq!(stats.stale_served, 1);
}

#[test]
fn closed_loop_loadgen_replays_a_paper_workload() {
    let handle = spawn_server();
    // The paper's Poisson/Zipf workload, compressed 1000× so ~2k ops
    // replay in well under a second of wall time.
    let trace = PoissonZipfConfig {
        rate: 20.0,
        num_keys: 200,
        read_ratio: 0.8,
        horizon: SimDuration::from_secs(100),
        ..Default::default()
    }
    .generate(42);
    let replay = ReplayConfig {
        ttl: Some(SimDuration::from_millis(200)),
        max_staleness: None,
        time_scale: 0.001,
    };
    let ops = replay.map_trace(&trace);
    let report = loadgen::run(
        handle.addr(),
        &ops,
        &LoadGenConfig {
            mode: Mode::Closed { connections: 4 },
            pipeline: 16,
            value_bytes: Some(loadgen::ValueDist::Fixed(128)),
        },
    )
    .unwrap();

    // Every scheduled op completed, with reads/writes preserved.
    assert_eq!(report.ops as usize, ops.len());
    assert_eq!(report.gets as usize, trace.num_reads());
    assert_eq!(report.puts as usize, trace.num_writes());
    assert!(report.ops_per_sec > 0.0);
    // Cache-aside over a Zipf keyspace: hot keys get written then read,
    // so a meaningful share of reads must be served.
    assert!(report.hit_ratio > 0.3, "hit ratio {}", report.hit_ratio);
    // Versions never regress on any of the 4 connections.
    assert_eq!(report.version_anomalies, 0);
    // Read classifications partition the reads.
    assert_eq!(
        report.fresh + report.stale_served + report.staleness_violations + report.misses,
        report.gets
    );

    // The server counted the same traffic the clients observed.
    let stats = handle.shutdown();
    assert_eq!(stats.gets, report.gets);
    assert_eq!(stats.puts, report.puts);
    // 4 workers, plus the two short-lived connections loadgen uses to
    // bracket the run with refetch-counter probes (`StatsReq`).
    assert_eq!(stats.connections, 6);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn pipelined_requests_match_responses_by_id_in_and_out_of_order() {
    use fresca_net::RequestId;
    use fresca_serve::{PipelinedClient, Response};
    use std::collections::HashMap;

    let handle = spawn_server();
    let mut client = PipelinedClient::connect(handle.addr()).unwrap();

    // 100 requests pipelined on ONE connection: a put for every even key,
    // a get for every key (hits for even, misses for odd). Record what
    // each id was issued for.
    #[derive(Debug, PartialEq)]
    enum Expected {
        Put { key: u64 },
        Get { key: u64 },
    }
    let mut expected: HashMap<RequestId, Expected> = HashMap::new();
    let mut completions: Vec<(RequestId, Response)> = Vec::new();
    for i in 0..50u64 {
        let key = i * 2;
        let id = client.submit_put(key, payload::pattern(key, 16), None).unwrap();
        expected.insert(id, Expected::Put { key });
        let id = client.submit_get(i * 2 + i % 2, None).unwrap();
        expected.insert(id, Expected::Get { key: i * 2 + i % 2 });
        // Consume completions *as they become available* mid-stream, so
        // collection interleaves with submission instead of running
        // strictly after it.
        while let Some(done) = client.try_complete().unwrap() {
            completions.push(done);
        }
    }
    while client.in_flight() > 0 {
        completions.push(client.complete().unwrap());
    }

    // Every id completed exactly once...
    assert_eq!(completions.len(), 100);
    let mut seen = std::collections::HashSet::new();
    assert!(completions.iter().all(|(id, _)| seen.insert(*id)), "duplicate response id");

    // ...and each response matches what its id was issued for, checked
    // out of submission order (sorted by key, then reverse) to make the
    // point that the id — not arrival position — is the join key.
    completions.sort_by_key(|(_, r)| match r {
        Response::Get { key, .. } | Response::Put { key, .. } => *key,
    });
    completions.reverse();
    for (id, resp) in &completions {
        match (expected.remove(id).expect("unknown id"), resp) {
            (Expected::Put { key }, Response::Put { key: k, version }) => {
                assert_eq!(key, *k, "{id} acked the wrong key");
                assert!(*version > 0);
            }
            (Expected::Get { key }, Response::Get { key: k, outcome }) => {
                assert_eq!(key, *k, "{id} answered the wrong key");
                // Even keys were written first on the same connection, so
                // in-order processing guarantees a served read; odd keys
                // were never written.
                assert_eq!(outcome.is_served(), key % 2 == 0, "key {key}");
            }
            (exp, got) => panic!("{id}: expected {exp:?}, got {got:?}"),
        }
    }
    assert!(expected.is_empty(), "requests never answered: {expected:?}");

    let stats = handle.shutdown();
    assert_eq!(stats.gets, 50);
    assert_eq!(stats.puts, 50);
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn deep_pipeline_burst_drains_completely() {
    use fresca_serve::{PipelinedClient, Response};

    // 1,000 requests submitted back-to-back on one connection arrive at
    // the server as a handful of large reads — far more frames per read
    // than the reactor's per-tick fairness budget. Every one must still
    // be answered (the budget defers work to the next tick, it must not
    // strand frames in the decoder).
    let handle = spawn_server_with_loops(1);
    let mut client = PipelinedClient::connect(handle.addr()).unwrap();
    let put_id = client.submit_put(1, payload::pattern(1, 64), None).unwrap();
    for _ in 0..1000 {
        client.submit_get(1, None).unwrap();
    }
    let mut served = 0;
    while client.in_flight() > 0 {
        let (id, resp) = client.complete().unwrap();
        match resp {
            Response::Put { key: 1, .. } => assert_eq!(id, put_id),
            Response::Get { key: 1, outcome } => {
                // The put was first on the same connection, so in-order
                // processing makes every read a served hit.
                assert!(outcome.is_served());
                served += 1;
            }
            other => panic!("unexpected completion {id}: {other:?}"),
        }
    }
    assert_eq!(served, 1000);

    let stats = handle.shutdown();
    assert_eq!(stats.gets, 1000);
    assert_eq!(stats.puts, 1);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn single_event_loop_sustains_1000_concurrent_connections() {
    // The acceptance bar for the reactor: ONE event-loop thread serving
    // ≥ 1,000 simultaneously-open connections, each of which completes
    // real requests while all the others stay open.
    const CONNS: usize = 1000;
    let handle = spawn_server_with_loops(1);
    assert_eq!(handle.event_loops(), 1);

    let mut clients: Vec<CacheClient> = (0..CONNS)
        .map(|_| CacheClient::connect(handle.addr()).expect("connect"))
        .collect();

    // All 1000 sockets are open at once; now do a write and a read on
    // every one of them, interleaved across the whole set.
    for (i, c) in clients.iter_mut().enumerate() {
        let v = c.put(i as u64, payload::pattern(i as u64, 8), None).expect("put");
        assert!(v > 0);
    }
    for (i, c) in clients.iter_mut().enumerate() {
        let got = c.get(i as u64, None).expect("get");
        assert_eq!(got.status, GetStatus::Fresh, "key {i}");
    }

    let mid = handle.stats();
    assert_eq!(mid.open_connections as usize, CONNS, "all connections concurrently open");
    assert_eq!(mid.connections as usize, CONNS);
    assert_eq!(mid.gets as usize, CONNS);
    assert_eq!(mid.puts as usize, CONNS);
    assert_eq!(mid.protocol_errors, 0);

    // Shut down while every client is still connected: the force-closed
    // connections must all be accounted back out of the gauge.
    let final_stats = handle.shutdown();
    assert_eq!(final_stats.open_connections, 0, "gauge drains on forced shutdown");
    drop(clients);
}

#[test]
fn half_closing_client_still_receives_queued_responses() {
    use fresca_net::{FramedStream, Message, RequestId};
    use std::net::{Shutdown, TcpStream};

    // Pipeline a burst, close the write side, then read: the server must
    // answer everything it read before the EOF — the reactor's draining
    // close, matching what the blocking thread-per-connection server did.
    let handle = spawn_server();
    let mut framed = FramedStream::new(TcpStream::connect(handle.addr()).unwrap());
    for i in 1..=20u64 {
        framed
            .send(&Message::PutReq { id: RequestId(i), key: i, value: payload::pattern(i, 8), ttl: 0 })
            .unwrap();
    }
    framed.get_ref().shutdown(Shutdown::Write).unwrap();
    // Cross-core forwarded puts complete after owner-local ones, so the
    // 20 replies need not come back in send order — but every one must
    // arrive before the draining close, and each echoes its request id.
    let mut seen = [false; 21];
    for _ in 1..=20u64 {
        match framed.recv().unwrap() {
            Some(Message::PutResp { id, key, .. }) => {
                assert_eq!(id.0, key, "response echoes its request's id");
                assert!((1..=20).contains(&key), "unexpected key {key}");
                assert!(!seen[key as usize], "duplicate reply for key {key}");
                seen[key as usize] = true;
            }
            other => panic!("expected a PutResp, got {other:?}"),
        }
    }
    assert_eq!(framed.recv().unwrap(), None, "server closes after the last reply");

    // A closing connection is out of the poll set while it waits on
    // other cores, so only the end-of-tick flush of late replies can
    // drop it — while the server is still running, not at shutdown.
    wait_until("the drained connection is dropped", || handle.stats().open_connections == 0);
    let stats = handle.shutdown();
    assert_eq!(stats.puts, 20);
    assert!(stats.cross_core_forwards > 0, "keys 1..=20 span both owners: {stats:?}");
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn retired_tags_are_protocol_errors() {
    use fresca_net::{FramedStream, Message, RequestId};
    use std::io::Write;
    use std::net::TcpStream;

    let handle = spawn_server();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut framed = FramedStream::new(stream.try_clone().unwrap());

    // A valid read, and pipelined right behind it what an id-less peer
    // used to send: tag 8, key and bound, no request id.
    framed.send(&Message::GetReq { id: RequestId(1), key: 123, max_staleness: u64::MAX }).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&21u32.to_be_bytes()); // length: 5 hdr + 8 key + 8 bound
    frame.push(8); // retired tag
    frame.extend_from_slice(&123u64.to_be_bytes()); // key
    frame.extend_from_slice(&u64::MAX.to_be_bytes()); // max_staleness
    (&stream).write_all(&frame).unwrap();

    // The first is answered; the second is not a message at all, so the
    // node closes the connection after draining what it owed.
    match framed.recv().unwrap() {
        Some(Message::GetResp { id, key, status, .. }) => {
            assert_eq!((id, key, status), (RequestId(1), 123, GetStatus::Miss));
        }
        other => panic!("expected the GetResp, got {other:?}"),
    }
    assert!(matches!(framed.recv(), Ok(None) | Err(_)), "no answer to a retired tag");

    let stats = handle.shutdown();
    assert_eq!(stats.gets, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.protocol_errors, 1);
}

#[test]
fn server_drops_connections_that_leave_the_accepted_paths() {
    use fresca_net::{FramedStream, Message};
    use std::net::TcpStream;

    let handle = spawn_server();
    // A cache→origin fetch has no business arriving *at* a cache node.
    let mut rogue = FramedStream::new(TcpStream::connect(handle.addr()).unwrap());
    rogue.send(&Message::FetchReq { key: 1 }).unwrap();
    // The server closes on us rather than answering.
    assert!(matches!(rogue.recv(), Ok(None) | Err(_)));

    // A store-path Invalidate, by contrast, is legitimate since the
    // cluster PR: the node applies it and acks by seq on the same
    // connection.
    let mut store = FramedStream::new(TcpStream::connect(handle.addr()).unwrap());
    store.send(&Message::Invalidate { seq: 7, keys: vec![1, 2] }).unwrap();
    assert_eq!(store.recv().unwrap(), Some(Message::Ack { seq: 7 }));

    // A well-behaved client on a fresh connection is unaffected.
    let mut client = CacheClient::connect(handle.addr()).unwrap();
    client.put(1, payload::pattern(1, 8), None).unwrap();
    assert!(client.get(1, None).unwrap().is_served());

    let stats = handle.shutdown();
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.push_batches, 1);
}

/// SIGTERM maps to [`server::ServerHandle::shutdown_graceful`]: every
/// request the server already read is answered, and every reply still
/// queued server-side is written to the socket before its connection
/// closes. A pipelined client holding a burst of uncollected replies
/// across the drain loses none of them — the no-reply-lost contract
/// the `serve` binary's SIGTERM handler advertises.
#[test]
fn graceful_shutdown_loses_no_queued_reply() {
    let handle = spawn_server();
    let mut client = fresca_serve::PipelinedClient::connect(handle.addr()).unwrap();

    // Seed values big enough that hundreds of replies cannot all hide
    // in kernel socket buffers: the drain must flush a real
    // server-side outbound queue, not find it already empty.
    const KEYS: u64 = 16;
    const GETS: u64 = 512;
    for key in 0..KEYS {
        let id = client.submit_put(key, payload::pattern(key, 4096), None).unwrap();
        let (done, resp) = client.complete().unwrap();
        assert_eq!(done, id);
        assert!(matches!(resp, fresca_serve::Response::Put { .. }));
    }

    // Pipeline a read burst and collect nothing yet.
    let mut expected = std::collections::HashSet::new();
    for i in 0..GETS {
        expected.insert(client.submit_get(i % KEYS, None).unwrap());
    }
    // Wait until the server has read and processed the whole burst —
    // from that point every reply is queued and owed.
    wait_until("the server has processed the burst", || handle.stats().gets >= GETS);

    // Drain on a second thread (it blocks until every reply is out)
    // while this thread collects completions like a live client.
    let drainer = std::thread::spawn(move || handle.shutdown_graceful());
    for _ in 0..GETS {
        let (id, resp) = client.complete().expect("reply lost in graceful shutdown");
        assert!(expected.remove(&id), "duplicate or unknown reply id");
        match resp {
            fresca_serve::Response::Get { key, outcome } => {
                assert_eq!(outcome.status, GetStatus::Fresh);
                assert!(payload::verify(key, &outcome.value), "drained reply corrupted");
            }
            other => panic!("expected a get reply, got {other:?}"),
        }
    }
    assert!(expected.is_empty(), "all {GETS} replies accounted for");
    let stats = drainer.join().expect("drain thread");
    assert_eq!(stats.gets, GETS, "the drained server processed the whole burst");
    // Two loops, sixteen keys: part of the burst was answered by the
    // other core, so the drain also covered replies that were still
    // queued (or still in flight) as cross-core completions.
    assert!(stats.cross_core_forwards > 0, "burst never left its home loop: {stats:?}");
    assert_eq!(stats.open_connections, 0, "every connection drained and closed");
}

/// Completions coming back from another core are queued on their
/// connection and written once per tick, like locally served replies —
/// not one `writev` each. 64 reads arrive in one segment; about half
/// are forwarded, and the whole burst must leave in a handful of
/// writes (typically two: the local replies, then the forwarded ones).
#[test]
fn forwarded_completions_share_one_write_per_tick() {
    use fresca_net::{FramedStream, Message, NonBlockingFramedStream, RequestId};
    use std::net::TcpStream;

    const KEYS: u64 = 64;
    let handle = spawn_server_with_loops(2);
    let mut prefill = CacheClient::connect(handle.addr()).unwrap();
    for key in 0..KEYS {
        prefill.put(key, payload::pattern(key, 32), None).unwrap();
    }
    let before = handle.stats();

    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    // Queue all 64 requests, then one flush: one gathered write.
    let mut out = NonBlockingFramedStream::new(stream.try_clone().unwrap());
    for key in 0..KEYS {
        out.queue(&Message::GetReq { id: RequestId(key + 1), key, max_staleness: u64::MAX });
    }
    assert!(out.flush().unwrap(), "a 2 KiB burst fits the socket buffer");

    let mut replies = FramedStream::new(stream);
    let mut seen = [false; KEYS as usize];
    for _ in 0..KEYS {
        match replies.recv().unwrap() {
            Some(Message::GetResp { id, key, value, status, .. }) => {
                assert_eq!(id.0, key + 1, "reply echoes its request's id");
                assert_eq!(status, GetStatus::Fresh);
                assert!(payload::verify(key, &value), "key {key} served the wrong bytes");
                assert!(!std::mem::replace(&mut seen[key as usize], true), "duplicate key {key}");
            }
            other => panic!("expected a GetResp, got {other:?}"),
        }
    }

    let after = handle.shutdown();
    let forwards = after.cross_core_forwards - before.cross_core_forwards;
    let writes = after.reply_writes - before.reply_writes;
    assert!(forwards >= 16, "64 keys must span both owners, only {forwards} forwarded");
    assert!(writes <= 8, "{writes} reply writes for one burst with {forwards} forwards");
}

/// A reader that stops reading until the socket buffers fill: the
/// server's flushes (of local replies and of late cross-core ones alike)
/// hit would-block, the tails stay queued under write interest, and
/// once the reader resumes every reply arrives intact and — per key,
/// i.e. per owner — in request order.
#[test]
fn stalled_reader_gets_the_would_block_tail_in_order() {
    use fresca_serve::{PipelinedClient, Response};

    const KEYS: u64 = 16;
    const GETS: u64 = 512;
    const VALUE: usize = 64 * 1024;
    let handle = spawn_server_with_loops(2);
    let mut client = PipelinedClient::connect(handle.addr()).unwrap();
    for key in 0..KEYS {
        client.submit_put(key, payload::pattern(key, VALUE), None).unwrap();
        client.complete().unwrap();
    }

    // 15 KiB of requests asking for 32 MiB of replies, and nobody
    // reading: the server must stall with most of the burst unread.
    let mut key_of = std::collections::HashMap::new();
    for i in 0..GETS {
        key_of.insert(client.submit_get(i % KEYS, None).unwrap(), i % KEYS);
    }
    let mut processed = handle.stats().gets;
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let now = handle.stats().gets;
        if now == processed {
            break;
        }
        processed = now;
    }
    assert!(processed > 0 && processed < GETS, "no backpressure: {processed} of {GETS} read");

    let mut last_id = [0u64; KEYS as usize];
    for _ in 0..GETS {
        let (id, resp) = client.complete().expect("reply lost behind a would-block");
        let key = key_of.remove(&id).expect("unknown or duplicate reply id");
        match resp {
            Response::Get { key: k, outcome } => {
                assert_eq!(k, key, "{id} answered the wrong key");
                assert_eq!(outcome.status, GetStatus::Fresh);
                assert!(payload::verify(key, &outcome.value), "tail of {id} corrupted");
            }
            other => panic!("expected a get reply, got {other:?}"),
        }
        assert!(id.0 > last_id[key as usize], "key {key}: {id} overtook {}", last_id[key as usize]);
        last_id[key as usize] = id.0;
    }
    assert!(key_of.is_empty());

    let stats = handle.shutdown();
    assert_eq!(stats.gets, GETS);
    assert!(stats.cross_core_forwards > 0, "keys never left the home loop: {stats:?}");
}

/// What one run of the script below observed: every request's answer in
/// order, the order of the versions each key went through, and the
/// node's counters.
#[derive(Debug, PartialEq)]
struct ScriptRun {
    answers: Vec<(&'static str, u64, GetStatus, Vec<u8>)>,
    version_order: std::collections::BTreeMap<u64, Vec<usize>>,
    reads: [u64; 5],
    writes: [u64; 4],
}

/// One client, one store-push connection and the control handle drive
/// every op kind through a node with `event_loops` loops.
fn run_script(event_loops: usize) -> (ScriptRun, u64) {
    use fresca_net::{FramedStream, Message, UpdateItem};
    use std::collections::BTreeMap;
    use std::net::TcpStream;

    let handle = spawn_server_with_loops(event_loops);
    let mut client = CacheClient::connect(handle.addr()).unwrap();
    let mut store = FramedStream::new(TcpStream::connect(handle.addr()).unwrap());
    let mut answers = Vec::new();
    let mut versions: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let ms = SimDuration::from_millis;

    // Puts without and with a TTL; sixteen keys span both owners.
    for key in 0..16 {
        let v = client.put(key, payload::pattern(key, 32), None).unwrap();
        versions.entry(key).or_default().push(v);
    }
    for key in 100..104 {
        let v = client.put(key, payload::pattern(key, 8), Some(ms(40))).unwrap();
        versions.entry(key).or_default().push(v);
    }
    std::thread::sleep(Duration::from_millis(60));

    let mut get = |what, key, bound| {
        let got = client.get(key, bound).unwrap();
        if got.is_served() {
            versions.entry(key).or_default().push(got.version);
        }
        answers.push((what, key, got.status, got.value.to_vec()));
    };
    for key in 0..16 {
        get("fresh", key, None);
    }
    for key in 100..104 {
        get("past its ttl", key, None);
    }
    get("older than the bound", 0, Some(ms(5)));
    get("within the bound", 0, Some(SimDuration::from_secs(60)));
    get("never written", 999, None);

    // A pushed invalidation and a pushed update, each with keys of both
    // owners and keys the node does not hold.
    let keys = (0..8).chain(500..504).collect();
    store.send(&Message::Invalidate { seq: 1, keys }).unwrap();
    assert_eq!(store.recv().unwrap(), Some(Message::Ack { seq: 1 }));
    for key in 0..8 {
        get("invalidated", key, None);
    }
    let items = (4..12)
        .chain(600..602)
        .map(|key| UpdateItem { key, version: 7, value: payload::pattern(key, 48) })
        .collect();
    store.send(&Message::Update { seq: 2, items }).unwrap();
    assert_eq!(store.recv().unwrap(), Some(Message::Ack { seq: 2 }));
    for key in (0..16).chain(600..602) {
        get("after the update", key, None);
    }

    assert!(handle.invalidate(12));
    assert!(!handle.invalidate(999));
    get("invalidated by the operator", 12, None);

    let stats = handle.shutdown();
    assert_eq!(stats.protocol_errors, 0);
    // Version numbers depend on which owner ran first; their order per
    // key does not.
    let version_order = versions
        .into_iter()
        .map(|(key, seen)| {
            let mut sorted = seen.clone();
            sorted.sort_unstable();
            sorted.dedup();
            (key, seen.iter().map(|v| sorted.binary_search(v).unwrap()).collect())
        })
        .collect();
    let reads = [stats.gets, stats.fresh, stats.stale_served, stats.refused, stats.misses];
    let writes = [stats.puts, stats.push_batches, stats.keys_invalidated, stats.keys_updated];
    (ScriptRun { answers, version_order, reads, writes }, stats.cross_core_forwards)
}

/// Every op has one executor, the owner's `apply`; whether it ran
/// inline or behind a cross-core forward must not show in any answer.
#[test]
fn one_route_same_answers_on_one_and_two_loops() {
    let (one, forwards_one) = run_script(1);
    let (two, forwards_two) = run_script(2);
    assert_eq!(forwards_one, 0, "one loop owns every key");
    assert!(forwards_two > 0, "sixteen keys span both owners");
    assert_eq!(one, two);

    // The script reached every outcome it names.
    let count = |what| one.answers.iter().filter(|a| a.0 == what).map(|a| a.2).collect::<Vec<_>>();
    assert_eq!(count("fresh"), [GetStatus::Fresh; 16]);
    assert_eq!(count("past its ttl"), [GetStatus::ServedStale; 4]);
    assert_eq!(count("older than the bound"), [GetStatus::RefusedStale]);
    assert_eq!(count("within the bound"), [GetStatus::Fresh]);
    assert_eq!(count("never written"), [GetStatus::Miss]);
    assert_eq!(count("invalidated"), [GetStatus::RefusedStale; 8]);
    assert_eq!(count("invalidated by the operator"), [GetStatus::RefusedStale]);
    for (_, key, status, value) in one.answers.iter().filter(|a| a.0 == "after the update") {
        // Updated keys serve the pushed bytes — also the invalidated
        // ones among them; untouched keys keep theirs; absent keys are
        // not installed.
        match key {
            0..=3 => assert_eq!(*status, GetStatus::RefusedStale, "key {key}"),
            4..=11 => assert_eq!(value[..], payload::pattern(*key, 48)[..], "key {key}"),
            12..=15 => assert_eq!(value[..], payload::pattern(*key, 32)[..], "key {key}"),
            _ => assert_eq!(*status, GetStatus::Miss, "key {key}"),
        }
    }
    assert_eq!(one.writes, [20, 2, 8, 8], "20 puts; 2 batches: 8 cached keys invalidated, 8 updated");
}
