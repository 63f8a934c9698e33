//! The in-flight-refetch table: per-key coalescing of origin refetches.
//!
//! When a bounded read would be refused or missed, the serving reactor
//! does not answer it — it *parks* the request here and (for the first
//! parker of a key) sends one `FetchReq` to the origin. Every later
//! reader of the same key coalesces onto that in-flight fetch instead
//! of issuing another (the classic dogpile/thundering-herd guard, per
//! key). When the origin responds — or the origin connection dies — the
//! owner drains the key's waiters and answers them all.
//!
//! The table is a small lock-protected map, safe to share across
//! threads; under `--cfg miniloom` its `parking_lot::Mutex` is the
//! model checker's scheduler-aware mock, so the park/coalesce/complete
//! protocol is exhaustively interleaved by the cache crate's miniloom
//! suite. The waiter type is generic: the reactor parks
//! `(connection slot, request id, fallback reply)` triples, tests park
//! whatever lets them observe delivery.

use parking_lot::Mutex;
use std::collections::HashMap;

/// What [`RefetchTable::park`] tells the caller to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Park {
    /// First waiter for this key: the caller owns sending the origin
    /// fetch (exactly one per key is ever in flight).
    Fetch,
    /// A fetch for this key is already in flight; the waiter is parked
    /// behind it and will be answered when that fetch completes.
    Coalesced,
}

/// Per-key in-flight refetch registry. See the module docs.
///
/// ```
/// use fresca_cache::refetch::{Park, RefetchTable};
///
/// let table: RefetchTable<&'static str> = RefetchTable::new();
/// assert_eq!(table.park(7, "first"), Park::Fetch);
/// assert_eq!(table.park(7, "second"), Park::Coalesced);
/// assert_eq!(table.complete(7), vec!["first", "second"]);
/// assert!(table.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct RefetchTable<W> {
    inner: Mutex<HashMap<u64, Vec<W>>>,
}

impl<W> RefetchTable<W> {
    /// New, empty table.
    pub fn new() -> Self {
        RefetchTable { inner: Mutex::new(HashMap::new()) }
    }

    /// Park a waiter for `key`. Returns [`Park::Fetch`] iff this waiter
    /// opened the key's fetch epoch — the caller must then issue the
    /// origin fetch; every other concurrent parker gets
    /// [`Park::Coalesced`]. The check-and-insert is one critical
    /// section: two racing parkers can never both be told to fetch.
    pub fn park(&self, key: u64, waiter: W) -> Park {
        let mut map = self.inner.lock();
        match map.entry(key) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(vec![waiter]);
                Park::Fetch
            }
            std::collections::hash_map::Entry::Occupied(mut o) => {
                o.get_mut().push(waiter);
                Park::Coalesced
            }
        }
    }

    /// Close `key`'s fetch epoch and take every waiter parked in it,
    /// in arrival order. Used both on success (answer each with the
    /// fetched value) and per-key failure (answer each with its
    /// fallback). A parker racing this call lands in a *new* epoch and
    /// is told to fetch again — no waiter is ever stranded between
    /// epochs.
    pub fn complete(&self, key: u64) -> Vec<W> {
        self.inner.lock().remove(&key).unwrap_or_default()
    }

    /// True while a fetch of `key` is in flight (at least one waiter is
    /// parked on it).
    pub fn is_in_flight(&self, key: u64) -> bool {
        self.inner.lock().contains_key(&key)
    }

    /// True when no fetch is in flight.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_parker_fetches_rest_coalesce() {
        let t: RefetchTable<u32> = RefetchTable::new();
        assert_eq!(t.park(1, 10), Park::Fetch);
        assert_eq!(t.park(1, 11), Park::Coalesced);
        assert_eq!(t.park(1, 12), Park::Coalesced);
        // A different key opens its own epoch.
        assert_eq!(t.park(2, 20), Park::Fetch);
        assert!(t.is_in_flight(1) && t.is_in_flight(2) && !t.is_in_flight(3));
        assert_eq!(t.complete(1), vec![10, 11, 12]);
        assert!(!t.is_in_flight(1));
        assert_eq!(t.complete(2), vec![20]);
        assert!(t.is_empty());
    }

    #[test]
    fn complete_closes_the_epoch() {
        let t: RefetchTable<u32> = RefetchTable::new();
        assert_eq!(t.park(1, 10), Park::Fetch);
        assert_eq!(t.complete(1), vec![10]);
        // The next parker starts a fresh epoch and must fetch again.
        assert_eq!(t.park(1, 11), Park::Fetch);
        assert_eq!(t.complete(1), vec![11]);
        // Completing an idle key is a no-op, not an error.
        assert!(t.complete(1).is_empty());
    }
}
