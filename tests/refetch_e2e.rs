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
use fresca_serve::origin::{self, OriginState, DEFAULT_ORIGIN_VALUE_SIZE};
use fresca_serve::server::{self, ServerConfig};
use fresca_serve::{CacheClient, PipelinedClient, Response};
use fresca_sim::SimDuration;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// One event loop keeps request ordering deterministic for the
/// coalescing assertions; the refetch path itself is per-loop anyway.
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
        // Read k: the node parks the reader and asks the origin.
        client.submit_get(key, bound).unwrap();
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

/// A connection dies with reads parked (locally and on the other core);
/// a new connection takes over its slot; then the fetches complete. The
/// late replies name the dead connection's token, so the newcomer must
/// neither receive them nor be flushed or dropped on their account.
#[test]
fn late_completion_never_lands_on_a_connection_that_reused_the_slot() {
    const COLD: std::ops::Range<u64> = 100..108;
    let (mut origin, handle) = HeldOrigin::with_node(2);

    // First connection → loop 0. One put (answered at once) and eight
    // cold reads that park until the held origin answers.
    let mut a = FramedStream::new(TcpStream::connect(handle.addr()).unwrap());
    a.send(&Message::PutReq { id: RequestId(999), key: 1, value: payload::pattern(1, 8), ttl: 0 })
        .unwrap();
    for key in COLD {
        a.send(&Message::GetReq { id: RequestId(1000 + key), key, max_staleness: 10_000_000_000 })
            .unwrap();
    }
    let held: Vec<(usize, u64)> = COLD
        .map(|_| origin.next_fetch(Duration::from_secs(10)).expect("eight fetches"))
        .collect();
    assert!(held.iter().any(|&(link, _)| link == 0) && held.iter().any(|&(link, _)| link == 1));

    // Closing with the PutResp unread resets the connection: the node
    // sees a transport error and frees the slot with reads in flight.
    let mut byte = [0u8; 1];
    assert_eq!(a.get_ref().peek(&mut byte).unwrap(), 1, "PutResp is waiting unread");
    drop(a);
    wait_until("the reset connection is dropped", || handle.stats().open_connections == 0);

    // Second connection → loop 1, third → loop 0, into the freed slot.
    let _filler = TcpStream::connect(handle.addr()).unwrap();
    let mut b = FramedStream::new(TcpStream::connect(handle.addr()).unwrap());
    b.send(&Message::PutReq { id: RequestId(1), key: 2, value: payload::pattern(2, 8), ttl: 0 })
        .unwrap();
    assert!(matches!(b.recv().unwrap(), Some(Message::PutResp { id: RequestId(1), .. })));

    // Release the fetches; all eight dead readers are "answered".
    for (link, key) in held {
        origin.respond(link, key, 64);
    }
    wait_until("every parked reader was completed", || handle.stats().fresh == 8);

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

/// Eight reads of one cold key, pipelined in one segment, coalesce to
/// one fetch and — answered together when it completes — leave in one
/// write, whether the key's owner is the connection's own loop (the
/// waiters are delivered directly) or the other one (as completions).
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
