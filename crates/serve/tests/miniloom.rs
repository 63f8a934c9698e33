//! Exhaustive-interleaving checks for the reactor's shard locks: two
//! event loops apply ops to one shard — a get decoded on loop A racing
//! a store-pushed invalidate or update decoded on loop B, or a get
//! decoded on loop B (its origin link down) racing the end of loop A's
//! fetch of the key — and no interleaving may produce a torn
//! version/payload, serve a value past a push that was already applied,
//! or answer a read other than exactly once. Includes the mutation
//! tests proving the checker catches a broken loop that drops the
//! refusal-path completion, and one that parks with its link down on a
//! fetch that is no longer in flight.
//!
//! Build and run with the model-checking facade active:
//!
//! ```text
//! RUSTFLAGS="--cfg miniloom" cargo test -p fresca-serve --test miniloom
//! ```
//!
//! The real `EventLoop` multiplexes sockets and cannot run under the
//! model, but the half of it that serves can: the shard in these
//! tests is the server's own [`Owner`], and each loop calls the same
//! [`Owner::apply`] the reactor's `route` calls, and the same
//! [`Owner::fetched`] / [`Owner::fetch_failed`] its origin drain and
//! outage call. Only the concurrency skeleton around it is modelled —
//! the same shape `server.rs` implements:
//!
//! * the shard sits behind one mutex, which any loop locks to apply an
//!   op on one of its keys and releases before it answers;
//! * the loop that decoded an op queues its reply on its own connection
//!   (here: the loop thread's return value);
//! * a store-pushed batch is acked by the loop that decoded it, after
//!   its part is applied;
//! * a fetch ends on the loop whose link carried it, which delivers the
//!   replies `fetched` / `fetch_failed` return, to whichever loop's
//!   connection each is owed.
//!
//! The nondeterminism under test is which loop takes the lock first.
//! Under `--cfg miniloom` the `parking_lot` shim is the scheduler-aware
//! mock, so each `lock()` is a scheduling point the DFS scheduler
//! permutes.

#![cfg(miniloom)]

use std::sync::Arc;

use bytes::Bytes;
use fresca_cache::{CacheConfig, Capacity, EvictionPolicy};
use fresca_net::{GetStatus, Message, RequestId, UpdateItem};
use fresca_serve::datapath::{Applied, Counters, Link, Op, Owner, ReplyTo, Topology};
use fresca_sim::SimTime;
use miniloom::sync::atomic::{AtomicUsize, Ordering};
use parking_lot::Mutex;

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

const KEY: u64 = 7;

/// The connection on loop A the gets came in on.
const HOME: ReplyTo = ReplyTo { home: 0, slot: 0, token: 1 };

/// One shard as the reactor holds it: the owner behind its lock.
/// `applied` names, under the same lock, the ops in the order they were
/// applied — the linearization every reply is checked against.
struct Partition {
    owner: Owner,
    applied: Vec<&'static str>,
}

/// A node's only shard, empty.
fn owner() -> Owner {
    let cache = CacheConfig { capacity: Capacity::Entries(8), eviction: EvictionPolicy::Lru };
    Owner::new(Topology::new(1, 1), cache, Arc::new(Counters::default()))
}

/// A node's only shard, holding `KEY` at version 1 (the first version
/// it allocates) with payload `AA AA AA AA`.
fn partition() -> Arc<Mutex<Partition>> {
    let mut owner = owner();
    let value = Bytes::from(vec![0xAA; 4]);
    owner.apply(HOME, Op::Put { id: RequestId(0), key: KEY, value, ttl: 0 }, t(0));
    Arc::new(Mutex::new(Partition { owner, applied: Vec::new() }))
}

fn get(id: u64) -> Op {
    Op::Get { id: RequestId(id), key: KEY, max_staleness: u64::MAX, link: Link::NoOrigin }
}

fn invalidate() -> Op {
    Op::InvalidateKeys { keys: vec![KEY] }
}

fn update() -> Op {
    // The store's version is another domain: the owner installs the
    // update under its own next version, 2.
    let item = UpdateItem { key: KEY, version: 77, value: Bytes::from(vec![0xBB; 8]) };
    Op::UpdateItems { items: vec![item], install: false }
}

/// `EventLoop::route`'s shape: lock the shard, apply, release. The
/// result is what the decoding loop now owes its connection.
fn route(part: &Mutex<Partition>, name: &'static str, op: Op) -> Applied {
    let mut p = part.lock();
    p.applied.push(name);
    p.owner.apply(HOME, op, t(1))
}

/// The replies one loop queued on its connection.
type Replies = Vec<Message>;

/// Loop A: decode a get (unless the store's `Ack` was already seen —
/// `acked` — which makes this the get sent after the `Ack`) and queue
/// its reply.
fn loop_a(part: Arc<Mutex<Partition>>, acked: Arc<AtomicUsize>) -> (bool, Replies) {
    let after_ack = acked.load(Ordering::SeqCst) == 1;
    let mut replies = Vec::new();
    if let Applied::Reply(reply) = route(&part, "get", get(1)) {
        replies.push(reply);
    }
    (after_ack, replies)
}

/// Loop B: decode a store-pushed batch of one part, apply it, then ack
/// it — the `Ack` leaves only after the part is applied.
fn loop_b(part: Arc<Mutex<Partition>>, acked: Arc<AtomicUsize>, op: Op) -> Replies {
    let mut replies = Vec::new();
    if let Applied::Pushed = route(&part, "push", op) {
        replies.push(Message::Ack { seq: 1 });
        acked.store(1, Ordering::SeqCst);
    }
    replies
}

/// `(id, status, version, value)` of a `GetResp`.
fn get_resp(reply: &Message) -> (u64, GetStatus, u64, &[u8]) {
    match reply {
        Message::GetResp { id, status, version, value, .. } => {
            (id.0, *status, *version, &value[..])
        }
        other => panic!("not a GetResp: {other:?}"),
    }
}

/// Run both loops against one shard with the store path carrying
/// `push`; returns whether the get applied first, whether it was sent
/// after the `Ack`, and each loop's replies.
fn race(push: fn() -> Op) -> (Arc<Mutex<Partition>>, bool, bool, Replies, Replies) {
    let part = partition();
    let acked = Arc::new(AtomicUsize::new(0));
    let a = {
        let (part, acked) = (Arc::clone(&part), Arc::clone(&acked));
        miniloom::thread::spawn(move || loop_a(part, acked))
    };
    let b = {
        let (part, acked) = (Arc::clone(&part), Arc::clone(&acked));
        miniloom::thread::spawn(move || loop_b(part, acked, push()))
    };
    let (after_ack, a_replies) = a.join();
    let b_replies = b.join();
    let get_first = part.lock().applied.first() == Some(&"get");
    (part, get_first, after_ack, a_replies, b_replies)
}

/// A get racing an invalidate applied from another loop. In every
/// interleaving the single reply reflects the lock order exactly: the
/// pre-invalidate value when the get took the lock first, a refusal
/// when the invalidation did — never a served response for a key
/// already marked known-stale, in particular not to a get sent after
/// the `Ack`, and never a torn version/payload pair.
#[test]
fn get_vs_invalidate_from_another_loop_never_serves_known_stale() {
    let stats = miniloom::check(|| {
        let (part, get_first, after_ack, a, b) = race(invalidate);
        assert_eq!(a.len(), 1, "every op completes exactly once");
        assert!(matches!(b[..], [Message::Ack { seq: 1 }]), "the batch is acked once");
        let (id, status, version, value) = get_resp(&a[0]);
        assert_eq!(id, 1);
        assert!(!(after_ack && get_first), "an Ack leaves only after its push is applied");
        if get_first {
            assert_eq!(status, GetStatus::Fresh, "get before invalidate serves the live entry");
            assert_eq!(version, 1);
            assert_eq!(value, [0xAA; 4], "version 1 must carry version 1's bytes");
        } else {
            assert_eq!(
                status,
                GetStatus::RefusedStale,
                "get after invalidate must refuse — serving would violate the staleness contract"
            );
        }
        // Quiescent state: the invalidation always lands.
        let Applied::Reply(settled) = route(&part, "get", get(2)) else { panic!("no reply") };
        assert_eq!(
            get_resp(&settled).1,
            GetStatus::RefusedStale,
            "the key ends known-stale in every interleaving"
        );
    })
    .expect("get vs invalidate must be consistent in every interleaving");
    assert!(stats.complete);
    assert!(stats.executions > 1, "the lock race must produce multiple schedules");
}

/// A get racing an update applied from another loop: the reply is
/// version 1 with version 1's payload or version 2 with version 2's
/// payload — versions never regress behind the lock order, and
/// version/payload are never torn.
#[test]
fn get_vs_update_from_another_loop_is_version_coherent() {
    miniloom::model(|| {
        let (part, get_first, after_ack, a, b) = race(update);
        assert_eq!(a.len(), 1, "every op completes exactly once");
        assert!(matches!(b[..], [Message::Ack { seq: 1 }]), "the batch is acked once");
        let (_, status, version, value) = get_resp(&a[0]);
        assert_eq!(status, GetStatus::Fresh, "a live entry is servable before and after an update");
        if get_first {
            assert!(!after_ack, "an Ack leaves only after its push is applied");
            assert_eq!(version, 1, "get before update sees the pre-update entry");
            assert_eq!(value, [0xAA; 4]);
        } else {
            assert_eq!(
                version, 2,
                "get after update must see it — regressing to version 1 would be the version \
                 anomaly clients check for"
            );
            assert_eq!(value, [0xBB; 8]);
        }
        // The update lands in every interleaving.
        let Applied::Reply(settled) = route(&part, "get", get(10)) else { panic!("no reply") };
        let (_, status, version, value) = get_resp(&settled);
        assert_eq!(status, GetStatus::Fresh, "updated entry must stay servable");
        assert_eq!((version, value), (2, &[0xBB; 8][..]));
    });
}

/// Mutation test: a *broken* loop A that forgets to queue the reply
/// when its get finds the entry invalidated — the request would hang
/// forever on its connection. The checker must find the interleaving
/// where the invalidation takes the lock first and the reply count
/// comes up short, and hand back a deterministic replayable schedule.
#[test]
fn broken_loop_dropping_refusal_completion_is_caught() {
    let broken = || {
        let part = partition();
        let acked = Arc::new(AtomicUsize::new(0));
        let a = {
            let part = Arc::clone(&part);
            miniloom::thread::spawn(move || match route(&part, "get", get(1)) {
                // BROKEN: the reply `apply` returned for a refusal is
                // discarded — the connection waits forever.
                Applied::Reply(Message::GetResp {
                    status: GetStatus::RefusedStale | GetStatus::Miss,
                    ..
                }) => Vec::new(),
                Applied::Reply(reply) => vec![reply],
                _ => Vec::new(),
            })
        };
        let b = {
            let (part, acked) = (Arc::clone(&part), Arc::clone(&acked));
            miniloom::thread::spawn(move || loop_b(part, acked, invalidate()))
        };
        let replies = a.join();
        b.join();
        assert_eq!(replies.len(), 1, "every op completes exactly once");
    };

    let failure = miniloom::check(broken)
        .expect_err("the invalidate-first interleaving must expose the dropped completion");
    assert!(
        failure.message.contains("completes exactly once"),
        "expected the completion-count assertion, got: {failure}"
    );
    assert!(!failure.schedule.is_empty());
    let printed = failure.to_string();
    assert!(printed.contains("replayable schedule"), "{printed}");

    // Deterministic replay: the schedule alone reproduces the failure.
    let replayed = miniloom::replay(broken, &failure.schedule)
        .expect("replaying the schedule reproduces the dropped completion");
    assert_eq!(replayed.message, failure.message);
}

/// A key no one has cached, whose fetch loop A has opened.
const COLD: u64 = 9;

/// The connection on loop B its get of `COLD` came in on.
const READER_B: ReplyTo = ReplyTo { home: 1, slot: 0, token: 2 };

/// How the fetch on loop A's link ends.
#[derive(Clone, Copy)]
enum End {
    /// The `FetchResp` arrived: `fetched`.
    Fetched,
    /// The link died: `fetch_failed`.
    Failed,
}

/// A shard on which loop A's read of `COLD` parked and opened the
/// fetch (its `FetchReq` left on A's link).
fn fetching() -> Arc<Mutex<Partition>> {
    let mut owner = owner();
    let op = Op::Get { id: RequestId(1), key: COLD, max_staleness: u64::MAX, link: Link::Up };
    assert!(matches!(owner.apply(HOME, op, t(0)), Applied::Parked { fetch: Some(COLD) }));
    Arc::new(Mutex::new(Partition { owner, applied: Vec::new() }))
}

/// Loop A: the fetch on its link ends; the replies it must deliver.
fn loop_a_ends(part: Arc<Mutex<Partition>>, end: End) -> Vec<(ReplyTo, Message)> {
    let mut p = part.lock();
    p.applied.push("end");
    match end {
        End::Fetched => p.owner.fetched(COLD, Bytes::from(vec![0xCC; 4]), t(1)),
        End::Failed => p.owner.fetch_failed(COLD),
    }
}

/// Loop B: a get of `COLD`, told its link is `link`. The reply it
/// queues at once, if any. A parked read is answered by whoever ends
/// the fetch it joined; one that opened a fetch would need B's link to
/// send it, and B's link is down, so nothing would ever answer it.
fn loop_b_reads(part: Arc<Mutex<Partition>>, link: Link) -> Option<Message> {
    let mut p = part.lock();
    p.applied.push("get");
    let op = Op::Get { id: RequestId(2), key: COLD, max_staleness: u64::MAX, link };
    match p.owner.apply(READER_B, op, t(1)) {
        Applied::Reply(reply) => Some(reply),
        Applied::Parked { .. } => None,
        Applied::Pushed => panic!("a get answered as a push"),
    }
}

/// Race loop A's end of the fetch against loop B's get (B told its
/// link is `b_link`) and check that B is answered exactly once, with
/// what the fetch's end gives it, and that no reader is left parked.
fn join_race(end: End, b_link: Link) {
    let part = fetching();
    let a = {
        let part = Arc::clone(&part);
        miniloom::thread::spawn(move || loop_a_ends(part, end))
    };
    let b = {
        let part = Arc::clone(&part);
        miniloom::thread::spawn(move || loop_b_reads(part, b_link))
    };
    let a_replies = a.join();
    let b_reply = b.join();
    let owed_to = |to: ReplyTo| a_replies.iter().filter(move |(r, _)| *r == to).map(|(_, m)| m);
    assert_eq!(owed_to(HOME).count(), 1, "A's own reader is answered once");
    let to_b: Vec<&Message> = owed_to(READER_B).chain(&b_reply).collect();
    assert_eq!(to_b.len(), 1, "B is answered exactly once");
    let (id, status, _, value) = get_resp(to_b[0]);
    assert_eq!(id, 2);
    match end {
        End::Fetched => assert_eq!((status, value), (GetStatus::Fresh, &[0xCC; 4][..])),
        End::Failed => assert_eq!(status, GetStatus::Miss, "the fallback of a cold key"),
    }
    // Quiescent state: no reader is left parked on the key.
    assert!(part.lock().owner.fetch_failed(COLD).is_empty(), "a reader is left parked");
}

/// Loop B, its link down, reads a key whose fetch rides loop A's link
/// while that link dies. B joins the fetch if it is still in flight —
/// and is answered its fallback by A — or degrades to it at once if A
/// already failed the fetch; never both, never neither.
#[test]
fn join_vs_fetch_failed_answers_a_reader_with_a_down_link_exactly_once() {
    let stats = miniloom::check(|| join_race(End::Failed, Link::Down))
        .expect("a down-link reader is answered once in every interleaving");
    assert!(stats.complete);
    assert!(stats.executions > 1, "the lock race must produce multiple schedules");
}

/// As above, with the fetch completing instead: B joins and is
/// answered the fetched value by A, or reads the entry A just
/// installed.
#[test]
fn join_vs_fetched_answers_a_reader_with_a_down_link_exactly_once() {
    let stats = miniloom::check(|| join_race(End::Fetched, Link::Down))
        .expect("a down-link reader is answered once in every interleaving");
    assert!(stats.complete);
}

/// Mutation test: a *broken* loop B that parks on a down link as if it
/// were up — what a `park` that joins without checking that a fetch is
/// in flight does. When A fails its fetch first, B opens a new fetch
/// that B's dead link never sends: the reader waits forever. The
/// checker must find that interleaving and hand back a replayable
/// schedule.
#[test]
fn broken_loop_parking_on_a_down_link_without_a_fetch_in_flight_is_caught() {
    let broken = || join_race(End::Failed, Link::Up);
    let failure = miniloom::check(broken)
        .expect_err("the fail-first interleaving must strand the down-link reader");
    assert!(
        failure.message.contains("answered exactly once"),
        "expected the answer-count assertion, got: {failure}"
    );
    assert!(!failure.schedule.is_empty());
    assert!(failure.to_string().contains("replayable schedule"), "{failure}");
    let replayed = miniloom::replay(broken, &failure.schedule)
        .expect("replaying the schedule reproduces the stranded reader");
    assert_eq!(replayed.message, failure.message);
    let again = miniloom::check(broken).expect_err("same failure on re-check");
    assert_eq!((again.schedule, again.trace), (failure.schedule, failure.trace));
}
