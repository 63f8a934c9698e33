//! End-to-end battery for the origin refetch loop (ISSUE 8): a cache
//! server wired to a store-push origin endpoint must turn bounded reads
//! that would refuse or miss into `Fresh` answers by refetching from
//! the backing store — without blocking its reactor, without stampeding
//! the origin, and without letting an origin outage take unrelated
//! keys down with it.
//!
//! Three contracts, plus the edges of answering parked readers late
//! (a push overtaking the fetch, the reader's slot changing hands, many
//! readers sharing one write):
//!
//! 1. **Refetch-on-refusal**: a bounded read of an entry older than its
//!    bound comes back `Fresh` with the store's bytes, not
//!    `RefusedStale`.
//! 2. **Coalescing**: N concurrent readers of one cold key cost the
//!    origin exactly one fetch.
//! 3. **Outage degradation**: with the origin down, bounded reads
//!    degrade to their fallback refusal/miss *promptly*, and keys that
//!    don't need the origin keep being served.

use fresca_cache::{CacheConfig, Capacity, EvictionPolicy};
use fresca_net::{payload, FramedStream, GetStatus, Message, RequestId, UpdateItem};
use fresca_serve::datapath::Topology;
use fresca_serve::origin::{self, OriginState, DEFAULT_ORIGIN_VALUE_SIZE};
use fresca_serve::server::{self, ServerConfig};
use fresca_serve::{CacheClient, PipelinedClient, Response};
use fresca_sim::SimDuration;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// One event loop keeps request ordering deterministic for the
/// coalescing assertions.
fn spawn_server(origin: Option<SocketAddr>) -> server::ServerHandle {
    spawn_server_with_loops(origin, 1)
}

fn spawn_server_with_loops(origin: Option<SocketAddr>, event_loops: usize) -> server::ServerHandle {
    server::spawn(
        "127.0.0.1:0",
        ServerConfig {
            cache: CacheConfig { capacity: Capacity::Unbounded, eviction: EvictionPolicy::Lru },
            shards: 8,
            event_loops,
            origin,
        },
    )
    .expect("bind ephemeral localhost port")
}

fn spawn_origin() -> origin::OriginHandle {
    let state = OriginState::with_default_estimator(DEFAULT_ORIGIN_VALUE_SIZE).into_shared();
    origin::spawn("127.0.0.1:0", state).expect("bind origin endpoint")
}

#[test]
fn bounded_read_past_its_bound_refetches_to_fresh() {
    let origin = spawn_origin();
    let handle = spawn_server(Some(origin.addr()));
    let mut client = CacheClient::connect(handle.addr()).unwrap();

    // Install an entry, let it age past the bound we'll read with.
    client.put_pattern(7, 128, None).unwrap();
    std::thread::sleep(Duration::from_millis(60));

    // Without an origin this read would be RefusedStale (age ~60ms >
    // bound 10ms). With the loop closed it parks, refetches, and the
    // server vouches for the bytes as Fresh.
    let got = client.get(7, Some(SimDuration::from_millis(10))).unwrap();
    assert_eq!(got.status, GetStatus::Fresh, "refusal was not rescued: {got:?}");
    assert_eq!(got.age, SimDuration::ZERO, "refetched entry must be brand new");
    // The served bytes are the origin's record — the canonical pattern
    // at the origin's default size, since the store never saw a write
    // for this key — and they now serve repeat readers from cache.
    assert_eq!(got.value, payload::pattern(7, DEFAULT_ORIGIN_VALUE_SIZE as usize));
    let again = client.get(7, Some(SimDuration::from_secs(10))).unwrap();
    assert_eq!(again.status, GetStatus::Fresh);

    let stats = handle.stats();
    assert!(stats.refetches >= 1, "no refetch recorded: {stats:?}");
    assert_eq!(stats.origin_errors, 0, "healthy origin errored: {stats:?}");
    {
        let state = origin.state();
        let s = state.lock();
        assert!(s.fetches_for(7) >= 1, "origin never saw the fetch");
    }

    // A cold miss refetches too (the store materialises first-touch
    // keys), so a bounded read of a never-written key is also Fresh.
    let cold = client.get(4242, Some(SimDuration::from_secs(10))).unwrap();
    assert_eq!(cold.status, GetStatus::Fresh, "miss was not rescued: {cold:?}");
    assert_eq!(cold.value_size(), DEFAULT_ORIGIN_VALUE_SIZE);

    handle.shutdown();
    origin.shutdown();
}

#[test]
fn concurrent_readers_of_one_cold_key_coalesce_to_one_origin_fetch() {
    const KEY: u64 = 99;
    const READERS: usize = 8;

    let origin = spawn_origin();
    let handle = spawn_server(Some(origin.addr()));

    // Fire 8 pipelined reads of one cold key. However the frames slice
    // across reactor ticks, the table admits one fetch per epoch: the
    // first parker owns it, later readers either coalesce onto it or
    // (after it completes) hit the now-fresh cache entry. Exactly one
    // origin fetch either way.
    let mut client = PipelinedClient::connect(handle.addr()).unwrap();
    for _ in 0..READERS {
        client.submit_get(KEY, Some(SimDuration::from_secs(10))).unwrap();
    }
    let mut fresh = 0;
    for _ in 0..READERS {
        let (_, resp) = client.complete().unwrap();
        match resp {
            Response::Get { key, outcome } => {
                assert_eq!(key, KEY);
                assert_eq!(outcome.status, GetStatus::Fresh, "reader not rescued: {outcome:?}");
                assert_eq!(outcome.value_size(), DEFAULT_ORIGIN_VALUE_SIZE);
                fresh += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(fresh, READERS);

    {
        let state = origin.state();
        let s = state.lock();
        assert_eq!(s.fetches_for(KEY), 1, "origin stampede: {} fetches", s.fetches_for(KEY));
    }
    let stats = handle.stats();
    assert_eq!(stats.refetches, 1, "expected exactly one refetch epoch: {stats:?}");
    assert!(
        stats.refetch_coalesced <= (READERS - 1) as u64,
        "more coalesced readers than issued: {stats:?}"
    );

    handle.shutdown();
    origin.shutdown();
}

#[test]
fn origin_outage_degrades_to_refusal_without_stalling_unrelated_keys() {
    // Bind a real origin, then take it down: the server's connect
    // attempts fail fast (connection refused), never hang.
    let origin = spawn_origin();
    let origin_addr = origin.addr();
    origin.shutdown();

    let handle = spawn_server(Some(origin_addr));
    let mut client = CacheClient::connect(handle.addr()).unwrap();

    // A key that never needs the origin serves normally throughout.
    client.put_pattern(1, 64, None).unwrap();
    assert_eq!(client.get(1, None).unwrap().status, GetStatus::Fresh);

    // Age an entry past a tight bound: the refetch cannot happen, so
    // the read must degrade to its honest fallback — RefusedStale, with
    // the age that exceeded the bound — rather than stall or lie.
    client.put_pattern(2, 64, None).unwrap();
    std::thread::sleep(Duration::from_millis(60));
    let refused = client.get(2, Some(SimDuration::from_millis(10))).unwrap();
    assert_eq!(refused.status, GetStatus::RefusedStale, "outage must not invent data");
    assert!(refused.age >= SimDuration::from_millis(10), "refusal age below bound");

    // A cold key degrades to its own fallback, a plain miss.
    let missed = client.get(3333, Some(SimDuration::from_secs(10))).unwrap();
    assert_eq!(missed.status, GetStatus::Miss);

    // Unrelated fresh keys were served the whole time, and the failures
    // were accounted as origin errors, not silent.
    assert_eq!(client.get(1, None).unwrap().status, GetStatus::Fresh);
    let stats = handle.stats();
    assert!(stats.origin_errors >= 2, "outage not accounted: {stats:?}");
    assert_eq!(stats.refetches, 0, "no fetch can be issued while the origin is down");

    handle.shutdown();
}

/// An origin the test drives by hand: it sees every `FetchReq` the node
/// sends and answers only when told to, which is what lets a test hold
/// a fetch in flight while something else happens at the node.
struct HeldOrigin {
    /// Write halves of the node's origin links, one per event loop.
    links: Vec<FramedStream<TcpStream>>,
    /// `(link, key)` for each `FetchReq`, in arrival order per link.
    fetches: mpsc::Receiver<(usize, u64)>,
}

impl HeldOrigin {
    /// Spawn a node with `event_loops` loops whose origin is this test;
    /// every loop dials at startup, so all links are up on return.
    fn with_node(event_loops: usize) -> (HeldOrigin, server::ServerHandle) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind held origin");
        let handle = spawn_server_with_loops(Some(listener.local_addr().unwrap()), event_loops);
        let (tx, fetches) = mpsc::channel();
        let mut links = Vec::new();
        for link in 0..event_loops {
            let (stream, _) = listener.accept().expect("node dials its origin");
            let mut reader = FramedStream::new(stream.try_clone().unwrap());
            let tx = tx.clone();
            // Ends on the EOF the node's shutdown produces.
            std::thread::spawn(move || {
                while let Ok(Some(msg)) = reader.recv() {
                    if let Message::FetchReq { key } = msg {
                        let _ = tx.send((link, key));
                    }
                }
            });
            links.push(FramedStream::new(stream));
        }
        (HeldOrigin { links, fetches }, handle)
    }

    /// The next `FetchReq`, or `None` if the node sends none within `wait`.
    fn next_fetch(&self, wait: Duration) -> Option<(usize, u64)> {
        self.fetches.recv_timeout(wait).ok()
    }

    /// Answer `key`'s fetch on `link` with the canonical pattern at `size`.
    fn respond(&mut self, link: usize, key: u64, size: usize) {
        let value = payload::pattern(key, size);
        self.links[link].send(&Message::FetchResp { key, version: 1, value }).unwrap();
    }
}

/// Poll `cond` until it holds; panics with `what` after ten seconds.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The origin reads `k` for a `FetchReq`, then the store writes `k` and
/// pushes — and the push reaches the node *before* the `FetchResp`. The
/// push finds nothing to invalidate (or refreshes an entry the response
/// then overwrites), the response installs the superseded value as
/// fresh, and the origin, which already counts `k` as invalidated,
/// suppresses every later push. The node must notice the overtaking
/// push and refetch on the next read.
#[test]
fn push_overtaking_an_in_flight_refetch_is_not_lost() {
    let (mut origin, handle) = HeldOrigin::with_node(1);
    let bound = Some(SimDuration::from_secs(10));
    let mut client = PipelinedClient::connect(handle.addr()).unwrap();
    let mut store = FramedStream::new(TcpStream::connect(handle.addr()).unwrap());

    // The next completion is `key` served fresh with the origin's
    // `size`-byte answer.
    let expect_fresh = |client: &mut PipelinedClient, key: u64, size: usize| {
        match client.complete().unwrap() {
            (_, Response::Get { outcome, .. }) => {
                assert_eq!(outcome.status, GetStatus::Fresh);
                assert_eq!(outcome.value, payload::pattern(key, size));
            }
            other => panic!("unexpected response {other:?}"),
        }
    };

    let pushes = [
        (31, Message::Invalidate { seq: 1, keys: vec![31] }),
        (32, {
            let item = UpdateItem { key: 32, version: 2, value: payload::pattern(32, 48) };
            Message::Update { seq: 2, items: vec![item] }
        }),
    ];
    for (seq, (key, push)) in pushes.into_iter().enumerate() {
        // Read k: the node parks the reader and asks the origin. The
        // read is only queued until flushed, and nothing here completes.
        client.submit_get(key, bound).unwrap();
        client.flush().unwrap();
        assert_eq!(origin.next_fetch(Duration::from_secs(10)), Some((0, key)));

        // The push overtakes the held response and is acknowledged.
        store.send(&push).unwrap();
        assert_eq!(store.recv().unwrap(), Some(Message::Ack { seq: seq as u64 + 1 }));

        // The response read before that write arrives; the parked
        // reader is answered with it.
        origin.respond(0, key, 64);
        expect_fresh(&mut client, key, 64);

        // The next read must go back to the origin, not serve the
        // superseded value as fresh.
        client.submit_get(key, bound).unwrap();
        client.flush().unwrap();
        assert_eq!(
            origin.next_fetch(Duration::from_secs(2)),
            Some((0, key)),
            "key {key}: overtaken value is being served as fresh"
        );
        origin.respond(0, key, 96);
        expect_fresh(&mut client, key, 96);
        // With no push in between, that entry now serves from cache.
        client.submit_get(key, bound).unwrap();
        expect_fresh(&mut client, key, 96);
    }
    let stats = handle.shutdown();
    assert_eq!(stats.refetches, 4, "two fetches per key, none for the cached reads: {stats:?}");
}

/// A connection dies with reads parked — on fetches its own loop's link
/// carries and on fetches another loop's link carries — and a new
/// connection takes over its slot; then the fetches complete. The late
/// replies name the dead connection's token, so the newcomer must
/// neither receive them nor be flushed or dropped on their account.
#[test]
fn late_completion_never_lands_on_a_connection_that_reused_the_slot() {
    const COLD: std::ops::Range<u64> = 100..108;
    const FIRST: std::ops::Range<u64> = 100..104;
    let (mut origin, handle) = HeldOrigin::with_node(2);
    let wait = Duration::from_secs(10);
    let get = |key: u64| Message::GetReq {
        id: RequestId(1000 + key),
        key,
        max_staleness: 10_000_000_000,
    };

    // First connection → loop 0: four cold reads that open fetches on
    // loop 0's link and park until the held origin answers.
    let mut a = FramedStream::new(TcpStream::connect(handle.addr()).unwrap());
    for key in FIRST {
        a.send(&get(key)).unwrap();
    }
    let mut held: Vec<(usize, u64)> =
        FIRST.map(|_| origin.next_fetch(wait).expect("four fetches")).collect();

    // Second connection → loop 1, the one that dies. One put (answered
    // at once), then reads of all eight keys: the first four join loop
    // 0's fetches, the last four open fetches on loop 1's own link.
    let mut dying = FramedStream::new(TcpStream::connect(handle.addr()).unwrap());
    let put = Message::PutReq { id: RequestId(999), key: 1, value: payload::pattern(1, 8), ttl: 0 };
    dying.send(&put).unwrap();
    for key in COLD {
        dying.send(&get(key)).unwrap();
    }
    held.extend((4..8).map(|_| origin.next_fetch(wait).expect("four more fetches")));
    let link_of = |keys: std::ops::Range<u64>| {
        let links: std::collections::HashSet<usize> =
            held.iter().filter(|(_, key)| keys.contains(key)).map(|&(link, _)| link).collect();
        assert_eq!(links.len(), 1, "{keys:?} fetched on one link: {held:?}");
        links.into_iter().next().unwrap()
    };
    assert_ne!(link_of(FIRST), link_of(104..108), "fetches on both links: {held:?}");
    assert_eq!(handle.stats().refetch_coalesced, 4, "the first four reads joined");

    // Closing with the PutResp unread resets the connection: the node
    // sees a transport error and frees the slot with reads in flight.
    let mut byte = [0u8; 1];
    assert_eq!(dying.get_ref().peek(&mut byte).unwrap(), 1, "PutResp is waiting unread");
    drop(dying);
    wait_until("the reset connection is dropped", || handle.stats().open_connections == 1);

    // Third connection → loop 0, fourth → loop 1, into the freed slot.
    let _filler = TcpStream::connect(handle.addr()).unwrap();
    let mut b = FramedStream::new(TcpStream::connect(handle.addr()).unwrap());
    b.send(&Message::PutReq { id: RequestId(1), key: 2, value: payload::pattern(2, 8), ttl: 0 })
        .unwrap();
    assert!(matches!(b.recv().unwrap(), Some(Message::PutResp { id: RequestId(1), .. })));

    // Release the fetches; all twelve parked readers are "answered",
    // A's four for real.
    for (link, key) in held {
        origin.respond(link, key, 64);
    }
    wait_until("every parked reader was completed", || handle.stats().fresh == 12);
    for _ in FIRST {
        match a.recv().unwrap() {
            Some(Message::GetResp { id, key, status, .. }) => {
                assert_eq!((id.0, status), (1000 + key, GetStatus::Fresh));
            }
            other => panic!("expected a GetResp, got {other:?}"),
        }
    }

    // B reads the same keys: it gets exactly its own eight replies.
    for key in COLD {
        b.send(&Message::GetReq { id: RequestId(key), key, max_staleness: u64::MAX }).unwrap();
    }
    let mut seen = std::collections::HashSet::new();
    for _ in COLD {
        match b.recv().unwrap() {
            Some(Message::GetResp { id, key, status, .. }) => {
                assert_eq!(id.0, key, "a stranger's reply reached the slot's new owner");
                assert_eq!(status, GetStatus::Fresh);
                assert!(COLD.contains(&key) && seen.insert(key));
            }
            other => panic!("expected a GetResp, got {other:?}"),
        }
    }
    b.get_ref().set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    assert!(b.recv().is_err(), "an extra frame followed B's own replies");

    let stats = handle.shutdown();
    assert_eq!(stats.refetches, 8);
    assert_eq!(stats.protocol_errors, 0);
}

/// On a two-loop node, a read of a cold key outside the reading loop's
/// share opens its fetch on the *reader's* origin link, and the reply
/// comes back to the reader's own connection. A reader on the other
/// loop joins that fetch instead of sending a second one. When the link
/// dies mid-fetch, both readers are answered their fallback.
#[test]
fn a_fetch_leaves_on_the_readers_link_and_falls_back_when_it_dies() {
    let (mut origin, handle) = HeldOrigin::with_node(2);
    let topo = Topology::new(8, 2);
    let home_key = (1000u64..).find(|&k| topo.owner_of(k) == 0).unwrap();
    let foreign: Vec<u64> = (1000u64..).filter(|&k| topo.owner_of(k) == 1).take(2).collect();
    let wait = Duration::from_secs(10);

    // First connection → loop 0, second → loop 1.
    let mut c = FramedStream::new(TcpStream::connect(handle.addr()).unwrap());
    let mut d = FramedStream::new(TcpStream::connect(handle.addr()).unwrap());
    let read = |c: &mut FramedStream<TcpStream>, key: u64| {
        c.send(&Message::GetReq { id: RequestId(key), key, max_staleness: u64::MAX }).unwrap();
    };
    let answer = |c: &mut FramedStream<TcpStream>| match c.recv().unwrap() {
        Some(Message::GetResp { id, key, status, value, .. }) => {
            assert_eq!(id.0, key, "the reply is this connection's own");
            (key, status, value)
        }
        other => panic!("expected a GetResp, got {other:?}"),
    };

    // A cold key of loop 0's own share names loop 0's link.
    read(&mut c, home_key);
    let (home_link, key) = origin.next_fetch(wait).expect("a fetch for the local key");
    assert_eq!(key, home_key);
    origin.respond(home_link, home_key, 32);
    assert_eq!(answer(&mut c), (home_key, GetStatus::Fresh, payload::pattern(home_key, 32)));

    // A cold key of loop 1's share, read on loop 0: the fetch leaves on
    // loop 0's link all the same.
    let before = handle.stats();
    read(&mut c, foreign[0]);
    assert_eq!(origin.next_fetch(wait), Some((home_link, foreign[0])), "on the reader's link");
    origin.respond(home_link, foreign[0], 48);
    assert_eq!(answer(&mut c), (foreign[0], GetStatus::Fresh, payload::pattern(foreign[0], 48)));
    let after = handle.stats();
    assert_eq!(after.cross_core_forwards - before.cross_core_forwards, 1, "{after:?}");
    assert_eq!(after.refetches, 2, "{after:?}");

    // The next foreign read opens a fetch on loop 0's link; a reader on
    // loop 1 joins it rather than sending one on its own link.
    read(&mut c, foreign[1]);
    assert_eq!(origin.next_fetch(wait), Some((home_link, foreign[1])));
    read(&mut d, foreign[1]);
    wait_until("loop 1's reader joined", || handle.stats().refetch_coalesced == 1);
    assert_eq!(origin.next_fetch(Duration::from_millis(100)), None, "one fetch for two readers");

    // Loop 0's link dies with both readers parked on its fetch.
    origin.links[home_link].get_ref().shutdown(Shutdown::Both).unwrap();
    for conn in [&mut c, &mut d] {
        let (key, status, value) = answer(conn);
        assert_eq!((key, status, value.len()), (foreign[1], GetStatus::Miss, 0), "the fallback");
    }
    let stats = handle.shutdown();
    assert_eq!(stats.refetches, 3, "{stats:?}");
    assert_eq!(stats.origin_errors, 2, "{stats:?}");
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
}

/// Eight reads of one cold key, pipelined in one segment, coalesce to
/// one fetch and — answered together when it completes — leave in one
/// write, whether the key's shard is in the connection's own loop's
/// share or the other one's.
#[test]
fn coalesced_readers_are_answered_in_one_write() {
    use fresca_net::NonBlockingFramedStream;
    const READERS: u64 = 8;

    let origin = spawn_origin();
    let handle = spawn_server_with_loops(Some(origin.addr()), 2);
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut out = NonBlockingFramedStream::new(stream.try_clone().unwrap());
    let mut replies = FramedStream::new(stream);

    let (mut local_keys, mut forwarded_keys) = (0, 0);
    for key in 500..516u64 {
        let before = handle.stats();
        for r in 0..READERS {
            let id = RequestId(key * READERS + r);
            out.queue(&Message::GetReq { id, key, max_staleness: 10_000_000_000 });
        }
        assert!(out.flush().unwrap());
        for _ in 0..READERS {
            match replies.recv().unwrap() {
                Some(Message::GetResp { key: k, status, value, .. }) => {
                    assert_eq!((k, status), (key, GetStatus::Fresh));
                    assert_eq!(value.len(), DEFAULT_ORIGIN_VALUE_SIZE as usize);
                }
                other => panic!("expected a GetResp, got {other:?}"),
            }
        }
        let after = handle.stats();
        assert_eq!(after.refetches - before.refetches, 1, "key {key}: one fetch epoch");
        let writes = after.reply_writes - before.reply_writes;
        assert!(writes <= 2, "key {key}: {writes} writes for {READERS} coalesced readers");
        match after.cross_core_forwards - before.cross_core_forwards {
            0 => local_keys += 1,
            READERS => forwarded_keys += 1,
            n => panic!("key {key}: {n} of {READERS} same-key reads forwarded"),
        }
    }
    assert!(local_keys > 0 && forwarded_keys > 0, "16 keys must span both owners");

    handle.shutdown();
    origin.shutdown();
}

/// The origin link dies and comes back. While the redial backoff runs,
/// a cold read degrades at once; once it has run out, reads make the
/// loop dial again, and a cold read parks on the new link and is
/// answered `Fresh` with what the origin sends on it.
#[test]
fn a_dead_origin_link_is_redialled_and_reads_park_again() {
    const KEY: u64 = 77;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind held origin");
    let handle = spawn_server(Some(listener.local_addr().unwrap()));
    let (first, _) = listener.accept().expect("the node dials its origin at startup");
    first.shutdown(Shutdown::Both).unwrap();

    // Every read is of one cold key: degraded reads answer `Miss` at
    // once, and once the link is back the first to park opens the one
    // fetch that every later read joins.
    let mut client = FramedStream::new(TcpStream::connect(handle.addr()).unwrap());
    let mut sent = 0u64;
    let mut read = |client: &mut FramedStream<TcpStream>| {
        sent += 1;
        let get = Message::GetReq { id: RequestId(sent), key: KEY, max_staleness: 10_000_000_000 };
        client.send(&get).unwrap();
    };
    read(&mut client);
    match client.recv().unwrap() {
        Some(Message::GetResp { id, status, .. }) => {
            assert_eq!((id, status), (RequestId(1), GetStatus::Miss))
        }
        other => panic!("expected a GetResp, got {other:?}"),
    }
    assert_eq!(handle.stats().origin_errors, 1, "the degraded read is an origin error");

    // Reads, not a timer, make the loop dial once the backoff is over.
    listener.set_nonblocking(true).unwrap();
    let mut second = None;
    wait_until("the node redials its origin", || {
        read(&mut client);
        second = listener.accept().ok().map(|(stream, _)| stream);
        second.is_some()
    });
    let second = second.unwrap();
    second.set_nonblocking(false).unwrap();
    let mut link = FramedStream::new(second);

    // Until the loop adopts the new link its reads still degrade.
    wait_until("a cold read parks on the new link", || {
        if handle.stats().refetches == 0 {
            read(&mut client);
        }
        handle.stats().refetches == 1
    });
    assert_eq!(link.recv().unwrap(), Some(Message::FetchReq { key: KEY }));
    link.send(&Message::FetchResp { key: KEY, version: 1, value: payload::pattern(KEY, 40) })
        .unwrap();

    // Every later read was answered once: `Miss` while the link was
    // down, then `Fresh`, with the origin's bytes, for every read
    // parked on it.
    let (mut missed, mut fresh) = (1, 0);
    for _ in 1..sent {
        match client.recv().unwrap() {
            Some(Message::GetResp { status: GetStatus::Miss, .. }) if fresh == 0 => missed += 1,
            Some(Message::GetResp { status: GetStatus::Fresh, value, .. }) => {
                assert_eq!(value, payload::pattern(KEY, 40));
                fresh += 1;
            }
            other => panic!("expected a Miss or, after the fetch, a Fresh, got {other:?}"),
        }
    }
    assert!(fresh >= 1, "no read parked on the redialled link");
    let stats = handle.shutdown();
    assert_eq!((stats.refetches, stats.origin_errors), (1, missed), "{stats:?}");
}
