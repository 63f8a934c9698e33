//! Exhaustive-interleaving checks for the in-flight-refetch table:
//! park/coalesce/complete under racing parkers, a completion racing a
//! store-push invalidate, and the mutation test proving the checker
//! catches a broken (check-then-push TOCTOU) coalesce path.
//!
//! Build and run with the model-checking facade active:
//!
//! ```text
//! RUSTFLAGS="--cfg miniloom" cargo test -p fresca-cache --test miniloom
//! ```
//!
//! Under that cfg `parking_lot::Mutex` is miniloom's scheduler-aware
//! mock, so every lock acquisition and release inside `RefetchTable` is
//! a scheduling point the DFS scheduler permutes.

#![cfg(miniloom)]

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use fresca_cache::{Capacity, Park, RefetchTable, SlabCache};
use fresca_sim::SimTime;
use parking_lot::Mutex;

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Test-only shared-mutability wrapper for the *mutated* (lock-free)
/// variant below.
struct Racy<T>(UnsafeCell<T>);

// SAFETY: deliberately unsound — this wrapper exists only so the
// mutation test can hand the checker a data structure whose accesses
// are NOT serialized, to prove the checker notices. Never use outside
// a miniloom model.
unsafe impl<T> Sync for Racy<T> {}

/// The in-flight-refetch table's core guarantee, under every
/// interleaving of two racing parkers: exactly one of them opens the
/// fetch epoch (`Park::Fetch`), and every parked waiter is answered by
/// exactly one `complete` drain — whether it coalesced onto the other's
/// epoch or opened its own after a racing drain closed the first.
#[test]
fn refetch_park_coalesce_complete_answers_every_waiter() {
    let stats = miniloom::check(|| {
        let table: Arc<RefetchTable<u32>> = Arc::new(RefetchTable::new());
        let answered = Arc::new(Mutex::new(Vec::<u32>::new()));
        const KEY: u64 = 7;
        let mut handles = Vec::new();
        for w in 0..2u32 {
            let table = Arc::clone(&table);
            let answered = Arc::clone(&answered);
            handles.push(miniloom::thread::spawn(move || {
                // The reactor's shape: park; the epoch opener later gets
                // the origin's response and drains everyone parked
                // behind it.
                let opened = table.park(KEY, w) == Park::Fetch;
                if opened {
                    answered.lock().extend(table.complete(KEY));
                }
                opened
            }));
        }
        let opened: Vec<bool> = handles.into_iter().map(|h| h.join()).collect();
        assert!(opened.iter().any(|&o| o), "someone must open the fetch epoch");
        assert!(table.is_empty(), "every epoch must be drained");
        let mut a = answered.lock().clone();
        a.sort_unstable();
        assert_eq!(a, vec![0, 1], "every parked waiter must be answered exactly once");
    })
    .expect("park/coalesce/complete must hold in every interleaving");
    assert!(stats.complete);
    assert!(stats.executions > 1, "the race must produce multiple schedules");
}

/// A refetch completion racing a store-push invalidate for the same
/// key — the §3.1 window. Whatever the order, the waiter is answered,
/// the invalidation is accounted exactly once, and the quiescent entry
/// is stale iff the invalidate landed after the refetched install.
#[test]
fn refetch_complete_racing_invalidate_stays_consistent() {
    miniloom::model(|| {
        // The cache shard both parties reach through one lock.
        let cache = Arc::new(Mutex::new(SlabCache::new(Capacity::Entries(8))));
        let table: Arc<RefetchTable<u32>> = Arc::new(RefetchTable::new());
        const KEY: u64 = 5;
        assert_eq!(table.park(KEY, 1), Park::Fetch);

        let completer = {
            let cache = Arc::clone(&cache);
            let table = Arc::clone(&table);
            miniloom::thread::spawn(move || {
                // Origin responded: install the refreshed value, then
                // drain the epoch (the reactor's completion order).
                cache.lock().insert_value(KEY, 1, Bytes::from(vec![0xCC; 4]), t(0), None);
                table.complete(KEY)
            })
        };
        let invalidator = {
            let cache = Arc::clone(&cache);
            miniloom::thread::spawn(move || cache.lock().apply_invalidate(KEY))
        };

        let waiters = completer.join();
        let hit_resident = invalidator.join();
        assert_eq!(waiters, vec![1], "the parked waiter must be answered");
        assert!(table.is_empty());
        let mut cache = cache.lock();
        let stats = cache.stats();
        assert_eq!(
            stats.invalidations_applied + stats.invalidations_missed,
            1,
            "the invalidation must be accounted exactly once"
        );
        // The install always runs; the entry is stale iff the
        // invalidate caught it resident. (A post-install invalidate
        // re-opens the loop: the *next* bounded read refetches again.)
        let get = cache.get(KEY, t(0));
        if hit_resident {
            assert!(get.is_stale_miss(), "invalidate after install must mark stale");
        } else {
            assert!(get.is_fresh_hit(), "invalidate before install must miss it");
        }
    });
}

/// Mutation test: a *broken* refetch table whose coalesce path checks
/// for an in-flight epoch and pushes the waiter as two separate steps
/// with no lock spanning them. In the interleaving where the epoch
/// owner drains between the check and the push, the waiter vanishes —
/// its connection would never be answered (the dropped-waker bug the
/// real table's single critical section makes impossible). The checker
/// must find that interleaving and hand back a replayable schedule.
#[test]
fn broken_refetch_table_drops_a_waiter_and_is_caught() {
    let broken = || {
        let map = Arc::new(Racy(UnsafeCell::new(HashMap::<u64, Vec<u32>>::new())));
        let answered = Arc::new(Mutex::new(Vec::<u32>::new()));
        const KEY: u64 = 7;
        {
            // Waiter 1 opened the epoch before the race starts.
            // SAFETY (test-only): no other thread exists yet.
            let m = unsafe { &mut *map.0.get() };
            m.insert(KEY, vec![1]);
        }
        let owner = {
            let map = Arc::clone(&map);
            let answered = Arc::clone(&answered);
            miniloom::thread::spawn(move || {
                // Origin responded: drain the epoch.
                // SAFETY (test-only): the missing lock IS the bug under
                // test; the model scheduler serializes the accesses, so
                // the UB manifests as the logical race being probed.
                let m = unsafe { &mut *map.0.get() };
                if let Some(ws) = m.remove(&KEY) {
                    answered.lock().extend(ws);
                }
            })
        };
        let racer = {
            let map = Arc::clone(&map);
            let answered = Arc::clone(&answered);
            miniloom::thread::spawn(move || {
                // BROKEN coalesce: observe the in-flight epoch…
                // SAFETY (test-only): see above.
                let in_flight = unsafe { (*map.0.get()).contains_key(&KEY) };
                // …yield (the preemption window a lock would close)…
                miniloom::thread::yield_now();
                if in_flight {
                    // …then push. If the owner drained meanwhile, the
                    // entry is gone and waiter 2 silently vanishes.
                    // SAFETY (test-only): see above.
                    let m = unsafe { &mut *map.0.get() };
                    if let Some(ws) = m.get_mut(&KEY) {
                        ws.push(2);
                    }
                } else {
                    // No epoch in flight: open one and complete it.
                    // SAFETY (test-only): see above.
                    let m = unsafe { &mut *map.0.get() };
                    m.insert(KEY, vec![2]);
                    if let Some(ws) = m.remove(&KEY) {
                        answered.lock().extend(ws);
                    }
                }
            })
        };
        owner.join();
        racer.join();
        {
            // Any epoch still open would be drained by a later
            // completion; count those waiters as answered too.
            // SAFETY (test-only): racing threads have joined.
            let m = unsafe { &mut *map.0.get() };
            for (_, ws) in m.drain() {
                answered.lock().extend(ws);
            }
        }
        let mut a = answered.lock().clone();
        a.sort_unstable();
        assert_eq!(a, vec![1, 2], "every parked waiter must be answered");
    };

    let failure = miniloom::check(broken)
        .expect_err("the check-then-push TOCTOU must drop a waiter in some schedule");
    assert!(
        failure.message.contains("every parked waiter must be answered"),
        "expected the dropped-waiter assertion, got: {failure}"
    );
    assert!(!failure.schedule.is_empty());
    let replayed = miniloom::replay(broken, &failure.schedule)
        .expect("replaying the schedule reproduces the dropped waiter");
    assert_eq!(replayed.message, failure.message);
}
