//! A cache entry — the value payload and its freshness metadata — and
//! the freshness state machine.

use bytes::Bytes;
use fresca_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Freshness state of a cached entry.
///
/// ```text
///            insert/update/refresh
///    ┌─────────────────────────────────┐
///    ▼                                 │
///  Fresh ── invalidate msg ──► Invalidated ── read (stale miss + refetch) ──► Fresh
///    │
///    └─ TTL deadline passes (checked lazily on read) ⇒ reported stale
/// ```
///
/// TTL expiry is *lazy*: the entry stays in the map past its deadline and
/// is classified stale when read (the common memcached/CacheLib design).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Freshness {
    /// Entry reflects the most recent state the cache has been told about.
    Fresh,
    /// A backend invalidation marked this entry stale in place.
    Invalidated,
}

/// One cached object: its value bytes and freshness metadata.
///
/// `value` is a refcounted [`Bytes`] handle: cloning an entry — which
/// every cache hit does to hand the caller a stable snapshot — bumps a
/// refcount instead of copying payload bytes. An entry's size is its
/// value's length, and byte-based capacity accounts exactly that. The
/// simulator, which never inspects bytes, stores slices of one shared
/// zero buffer (`fresca_net::payload::zeroes`), so its values cost a
/// refcount, not an allocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Entry {
    /// Backend version this entry reflects (monotone per key).
    pub version: u64,
    /// The value payload: the bytes a hit serves.
    pub value: Bytes,
    /// Freshness state.
    pub state: Freshness,
    /// When the entry was last made fresh (insert, update, or refresh).
    pub refreshed_at: SimTime,
    /// TTL deadline; `None` for policies that do not use TTLs.
    pub expires_at: Option<SimTime>,
}

impl Entry {
    /// A new fresh entry holding `value`.
    pub fn with_value(version: u64, value: Bytes, now: SimTime, expires_at: Option<SimTime>) -> Self {
        Entry { version, value, state: Freshness::Fresh, refreshed_at: now, expires_at }
    }

    /// Age of the entry at `now`: time since it was last made fresh by an
    /// insert, update, or refresh (saturating at zero if `now` predates
    /// that). This is the quantity a staleness-bounded read compares
    /// against its bound — an entry refreshed within the last `T` is
    /// guaranteed no staler than `T`, whatever its TTL says.
    pub fn age(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.refreshed_at)
    }

    /// True if the entry is stale at `now`: invalidated, or past its TTL
    /// deadline. (An entry expiring exactly *at* `now` is stale: the TTL
    /// contract is "fresh strictly within the deadline".)
    pub fn is_stale(&self, now: SimTime) -> bool {
        if self.state == Freshness::Invalidated {
            return true;
        }
        match self.expires_at {
            Some(deadline) => now >= deadline,
            None => false,
        }
    }

    /// Re-arm freshness for the *same* object under a new version and
    /// deadline (the TTL-polling refresh): the payload is kept.
    pub fn rearm(&mut self, version: u64, now: SimTime, expires_at: Option<SimTime>) {
        self.version = version;
        self.state = Freshness::Fresh;
        self.refreshed_at = now;
        self.expires_at = expires_at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fresca_sim::SimDuration;

    fn entry(now: SimTime, expires_at: Option<SimTime>) -> Entry {
        Entry::with_value(1, Bytes::from(vec![0u8; 100]), now, expires_at)
    }

    #[test]
    fn fresh_without_ttl_never_expires() {
        let e = entry(SimTime::ZERO, None);
        assert!(!e.is_stale(SimTime::from_secs(1_000_000)));
    }

    #[test]
    fn ttl_expiry_is_inclusive_at_deadline() {
        let now = SimTime::from_secs(10);
        let e = entry(now, Some(now + SimDuration::from_secs(5)));
        assert!(!e.is_stale(SimTime::from_secs(14)));
        assert!(e.is_stale(SimTime::from_secs(15)), "deadline instant counts as stale");
        assert!(e.is_stale(SimTime::from_secs(16)));
    }

    #[test]
    fn invalidation_beats_ttl() {
        let mut e = entry(SimTime::ZERO, Some(SimTime::from_secs(100)));
        e.state = Freshness::Invalidated;
        assert!(e.is_stale(SimTime::from_secs(1)));
    }

    #[test]
    fn age_tracks_last_refresh() {
        let mut e = entry(SimTime::from_secs(10), None);
        assert_eq!(e.age(SimTime::from_secs(13)), SimDuration::from_secs(3));
        assert_eq!(e.age(SimTime::from_secs(5)), SimDuration::ZERO, "saturates, never negative");
        e.rearm(2, SimTime::from_secs(20), None);
        assert_eq!(e.age(SimTime::from_secs(21)), SimDuration::from_secs(1));
    }

    #[test]
    fn size_is_the_payload_length_and_clones_share_it() {
        let payload = Bytes::from(vec![7u8; 300]);
        let e = Entry::with_value(1, payload.clone(), SimTime::ZERO, None);
        assert_eq!(e.value.len(), 300, "size is the payload's actual length");
        assert_eq!(e.value, payload);
        // A hit clones the entry: the payload must share, not copy.
        let hit = e.clone();
        assert!(hit.value.shares_allocation_with(&payload));
    }

    #[test]
    fn rearm_keeps_the_payload_and_resets_freshness() {
        let mut e = Entry::with_value(1, Bytes::from(vec![1u8, 2, 3]), SimTime::ZERO, None);
        e.state = Freshness::Invalidated;
        // TTL-poll re-arm: same object, value survives.
        let now = SimTime::from_secs(5);
        e.rearm(2, now, Some(now + SimDuration::from_secs(1)));
        assert_eq!((e.version, &e.value[..], e.state), (2, &[1u8, 2, 3][..], Freshness::Fresh));
        assert!(!e.is_stale(SimTime::from_secs(5)));
        assert!(e.is_stale(SimTime::from_secs(6)));
    }
}
