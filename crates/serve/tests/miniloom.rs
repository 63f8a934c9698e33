//! Exhaustive-interleaving checks for the reactor's cross-core
//! forwarding protocol: a forwarded get racing an owner-side
//! invalidate or update must never produce a version-anomalous or
//! staleness-violating response, and every forwarded operation must
//! produce exactly one completion. Includes the mutation test proving
//! the checker catches a broken owner that drops the completion on the
//! refusal path.
//!
//! Build and run with the model-checking facade active:
//!
//! ```text
//! RUSTFLAGS="--cfg miniloom" cargo test -p fresca-serve --test miniloom
//! ```
//!
//! The real `EventLoop` multiplexes sockets and cannot run under the
//! model, but the half of it that serves can: the owner side of these
//! tests is the server's own [`Owner::apply`], the same function the
//! reactor calls, and only the concurrency skeleton around it is
//! modelled — the same shape `server.rs` implements:
//!
//! * each loop's inbox is a mutex-protected message vector, appended
//!   to under the lock exactly like `Mailbox::post`;
//! * the owner drains its inbox and applies messages **in arrival
//!   order** against shards it reaches through plain `&mut`
//!   (thread-per-core ownership: the shard itself needs no lock);
//! * completions travel back through the home loop's inbox and are
//!   matched by request id.
//!
//! The nondeterminism under test is the inbox arrival order — which
//! of two racing producers (a peer loop forwarding a client get, the
//! store-path loop forwarding an invalidation/update part) appends
//! first. Under `--cfg miniloom` the `parking_lot` shim is the
//! scheduler-aware mock, so each `lock()` is a scheduling point the
//! DFS scheduler permutes.

#![cfg(miniloom)]

use std::sync::Arc;

use bytes::Bytes;
use fresca_cache::{CacheConfig, Capacity, EvictionPolicy};
use fresca_net::{GetStatus, Message, RequestId, UpdateItem};
use fresca_serve::datapath::{Applied, Completion, Counters, Op, Owner, ReplyTo, Topology};
use fresca_sim::SimTime;
use parking_lot::Mutex;

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

const KEY: u64 = 7;

/// The forwarding loop's connection the gets came in on.
const HOME: ReplyTo = ReplyTo { home: 1, slot: 0, token: 1 };

/// A node's only owner, holding `KEY` at version 1 (the first version
/// it allocates) with payload `AA AA AA AA`.
fn owner_with_key() -> Owner {
    let cache = CacheConfig { capacity: Capacity::Entries(8), eviction: EvictionPolicy::Lru };
    let mut owner = Owner::new(0, Topology::new(1, 1), cache, Arc::new(Counters::default()), false);
    let value = Bytes::from(vec![0xAA; 4]);
    owner.apply(HOME, Op::Put { id: RequestId(0), key: KEY, value, ttl: 0 }, t(0));
    owner
}

fn get(id: u64) -> Op {
    Op::Get { id: RequestId(id), key: KEY, max_staleness: u64::MAX }
}

fn invalidate() -> Op {
    Op::InvalidateKeys { batch: 1, keys: vec![KEY] }
}

/// Owner-side processing of one arrived message, exactly the
/// `handle_core_msg` shape: apply it, stage a reply into the home
/// loop's inbox (a store-push part completes towards its own batch,
/// which these properties do not follow).
fn owner_process(owner: &mut Owner, home: &Mutex<Vec<Message>>, op: Op) {
    if let Applied::Done(Completion::Reply(reply)) = owner.apply(HOME, op, t(1)) {
        home.lock().push(reply);
    }
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

/// Forwarded get racing an owner-side invalidate. In every
/// interleaving the single reply must reflect the arrival order
/// exactly: the pre-invalidate value when the get arrived first, a
/// refusal when the invalidation did — never a served response for a
/// key the owner had already marked known-stale (the staleness
/// violation the per-key FIFO exists to prevent), and never a torn
/// version/payload pair.
#[test]
fn forwarded_get_vs_owner_invalidate_never_serves_known_stale() {
    let stats = miniloom::check(|| {
        let owner_inbox: Arc<Mutex<Vec<Op>>> = Arc::new(Mutex::new(Vec::new()));
        let home_inbox: Arc<Mutex<Vec<Message>>> = Arc::new(Mutex::new(Vec::new()));
        let mut owner = owner_with_key();

        // Two producer loops race to stage into the owner's inbox —
        // single-statement lock-append, like `Mailbox::post`.
        let forwarder = {
            let inbox = Arc::clone(&owner_inbox);
            miniloom::thread::spawn(move || inbox.lock().push(get(1)))
        };
        let store_path = {
            let inbox = Arc::clone(&owner_inbox);
            miniloom::thread::spawn(move || inbox.lock().push(invalidate()))
        };
        forwarder.join();
        store_path.join();

        // The owner loop's tick: drain the inbox, apply in arrival
        // order. Record the order so the reply can be checked against
        // the linearization it implies.
        let arrived = std::mem::take(&mut *owner_inbox.lock());
        let get_arrived_first =
            matches!(arrived.first(), Some(Op::Get { .. }));
        for op in arrived {
            owner_process(&mut owner, &home_inbox, op);
        }

        // The home loop's tick: exactly one completion, matched by id,
        // and its content is the linearization's — not a mixture.
        let replies = std::mem::take(&mut *home_inbox.lock());
        assert_eq!(replies.len(), 1, "every forwarded op completes exactly once");
        let (id, status, version, value) = get_resp(&replies[0]);
        assert_eq!(id, 1);
        if get_arrived_first {
            assert_eq!(status, GetStatus::Fresh, "get before invalidate serves the live entry");
            assert_eq!(version, 1);
            assert_eq!(value, [0xAA; 4], "version 1 must carry version 1's bytes");
        } else {
            assert_eq!(status, GetStatus::RefusedStale, "get after invalidate must refuse — \
                       serving would violate the staleness contract");
        }
        // Quiescent owner state: the invalidation always lands.
        owner_process(&mut owner, &home_inbox, get(2));
        assert_eq!(
            get_resp(&home_inbox.lock()[0]).1,
            GetStatus::RefusedStale,
            "the key ends known-stale in every interleaving"
        );
    })
    .expect("forwarded get vs invalidate must be consistent in every interleaving");
    assert!(stats.complete);
    assert!(stats.executions > 1, "the inbox race must produce multiple schedules");
}

/// Forwarded get racing an owner-side update: the reply is version 1
/// with version 1's payload or version 2 with version 2's payload —
/// versions never regress behind what the arrival order implies, and
/// version/payload are never torn.
#[test]
fn forwarded_get_vs_owner_update_is_version_coherent() {
    miniloom::model(|| {
        let owner_inbox: Arc<Mutex<Vec<Op>>> = Arc::new(Mutex::new(Vec::new()));
        let home_inbox: Arc<Mutex<Vec<Message>>> = Arc::new(Mutex::new(Vec::new()));
        let mut owner = owner_with_key();

        let forwarder = {
            let inbox = Arc::clone(&owner_inbox);
            miniloom::thread::spawn(move || inbox.lock().push(get(9)))
        };
        let store_path = {
            let inbox = Arc::clone(&owner_inbox);
            miniloom::thread::spawn(move || {
                // The store's version is another domain: the owner
                // installs the update under its own next version, 2.
                let item = UpdateItem { key: KEY, version: 77, value: Bytes::from(vec![0xBB; 8]) };
                inbox.lock().push(Op::UpdateItems { batch: 1, items: vec![item], install: false })
            })
        };
        forwarder.join();
        store_path.join();

        let arrived = std::mem::take(&mut *owner_inbox.lock());
        let get_arrived_first = matches!(arrived.first(), Some(Op::Get { .. }));
        for op in arrived {
            owner_process(&mut owner, &home_inbox, op);
        }

        let replies = std::mem::take(&mut *home_inbox.lock());
        assert_eq!(replies.len(), 1);
        let (_, status, version, value) = get_resp(&replies[0]);
        assert_eq!(status, GetStatus::Fresh, "a live entry is servable before and after an update");
        if get_arrived_first {
            assert_eq!(version, 1, "get before update sees the pre-update entry");
            assert_eq!(value, [0xAA; 4]);
        } else {
            assert_eq!(version, 2, "get after update must see it — regressing to \
                       version 1 would be the version anomaly clients check for");
            assert_eq!(value, [0xBB; 8]);
        }
        // The update lands in every interleaving.
        owner_process(&mut owner, &home_inbox, get(10));
        let settled = home_inbox.lock();
        let (_, status, version, value) = get_resp(&settled[0]);
        assert_eq!(status, GetStatus::Fresh, "updated entry must stay servable");
        assert_eq!((version, value), (2, &[0xBB; 8][..]));
    });
}

/// Mutation test: a *broken* owner loop that forgets to stage the
/// completion when the forwarded get finds the entry invalidated —
/// the forwarded request would hang forever on its home loop (the
/// connection's in-flight count never drains). The checker must find
/// the interleaving where the invalidation arrives first and the
/// reply count comes up short, and hand back a deterministic
/// replayable schedule.
#[test]
fn broken_owner_dropping_refusal_completion_is_caught() {
    let broken = || {
        let owner_inbox: Arc<Mutex<Vec<Op>>> = Arc::new(Mutex::new(Vec::new()));
        let home_inbox: Arc<Mutex<Vec<Message>>> = Arc::new(Mutex::new(Vec::new()));
        let mut owner = owner_with_key();

        let forwarder = {
            let inbox = Arc::clone(&owner_inbox);
            miniloom::thread::spawn(move || inbox.lock().push(get(1)))
        };
        let store_path = {
            let inbox = Arc::clone(&owner_inbox);
            miniloom::thread::spawn(move || inbox.lock().push(invalidate()))
        };
        forwarder.join();
        store_path.join();

        let arrived = std::mem::take(&mut *owner_inbox.lock());
        for op in arrived {
            match owner.apply(HOME, op, t(1)) {
                // BROKEN: the completion `apply` returned for a refusal
                // is discarded — the home connection waits forever.
                Applied::Done(Completion::Reply(Message::GetResp {
                    status: GetStatus::RefusedStale | GetStatus::Miss,
                    ..
                })) => {}
                Applied::Done(Completion::Reply(reply)) => home_inbox.lock().push(reply),
                _ => {}
            }
        }

        let replies = std::mem::take(&mut *home_inbox.lock());
        assert_eq!(replies.len(), 1, "every forwarded op completes exactly once");
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
