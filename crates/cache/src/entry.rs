//! Cache entry metadata, the value payload, and the freshness state
//! machine.

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

/// One cached object: metadata plus (on the serving path) the value
/// bytes themselves.
///
/// `value` is a refcounted [`Bytes`] handle: cloning an entry — which
/// every cache hit does to hand the caller a stable snapshot — bumps a
/// refcount instead of copying payload bytes. The simulation engines
/// keep using metadata-only entries (`value` empty, `value_size`
/// declared), because the simulator never inspects bytes; the invariant
/// is that `value` is either empty or exactly `value_size` long, and
/// byte-based capacity accounting always uses `value_size`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Entry {
    /// Backend version this entry reflects (monotone per key).
    pub version: u64,
    /// Value size in bytes (for byte-based capacity and cost scaling).
    /// Equals `value.len()` whenever the entry carries real bytes.
    pub value_size: u32,
    /// The value payload. Empty for metadata-only (simulation-path)
    /// entries; on the serving path it holds the bytes a hit serves.
    pub value: Bytes,
    /// Freshness state.
    pub state: Freshness,
    /// When the entry was inserted.
    pub inserted_at: SimTime,
    /// When the entry was last made fresh (insert, update, or refresh).
    pub refreshed_at: SimTime,
    /// TTL deadline; `None` for policies that do not use TTLs.
    pub expires_at: Option<SimTime>,
}

impl Entry {
    /// A new fresh metadata-only entry (declared size, no payload).
    pub fn new(version: u64, value_size: u32, now: SimTime, expires_at: Option<SimTime>) -> Self {
        Entry {
            version,
            value_size,
            value: Bytes::new(),
            state: Freshness::Fresh,
            inserted_at: now,
            refreshed_at: now,
            expires_at,
        }
    }

    /// A new fresh entry carrying real value bytes; `value_size` is the
    /// payload's actual length.
    pub fn with_value(version: u64, value: Bytes, now: SimTime, expires_at: Option<SimTime>) -> Self {
        let mut e = Entry::new(version, value.len() as u32, now, expires_at);
        e.value = value;
        e
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

    /// Make the entry fresh again with a new version/size/deadline,
    /// dropping any carried payload — a metadata-only rewrite must not
    /// leave a *previous* write's bytes serving under the new version.
    /// (The one metadata path that legitimately keeps the value — the
    /// TTL-polling refresh, which re-arms the same object — goes through
    /// [`Entry::rearm`] instead.)
    pub fn refresh(&mut self, version: u64, value_size: u32, now: SimTime, expires_at: Option<SimTime>) {
        self.version = version;
        self.value_size = value_size;
        self.value = Bytes::new();
        self.state = Freshness::Fresh;
        self.refreshed_at = now;
        self.expires_at = expires_at;
    }

    /// Make the entry fresh again with new value bytes.
    pub fn refresh_value(&mut self, version: u64, value: Bytes, now: SimTime, expires_at: Option<SimTime>) {
        self.refresh(version, value.len() as u32, now, expires_at);
        self.value = value;
    }

    /// Re-arm freshness for the *same* object under a new version and
    /// deadline (the TTL-polling refresh): size and payload are kept.
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

    #[test]
    fn fresh_without_ttl_never_expires() {
        let e = Entry::new(1, 100, SimTime::ZERO, None);
        assert!(!e.is_stale(SimTime::from_secs(1_000_000)));
    }

    #[test]
    fn ttl_expiry_is_inclusive_at_deadline() {
        let now = SimTime::from_secs(10);
        let e = Entry::new(1, 100, now, Some(now + SimDuration::from_secs(5)));
        assert!(!e.is_stale(SimTime::from_secs(14)));
        assert!(e.is_stale(SimTime::from_secs(15)), "deadline instant counts as stale");
        assert!(e.is_stale(SimTime::from_secs(16)));
    }

    #[test]
    fn invalidation_beats_ttl() {
        let mut e = Entry::new(1, 100, SimTime::ZERO, Some(SimTime::from_secs(100)));
        e.state = Freshness::Invalidated;
        assert!(e.is_stale(SimTime::from_secs(1)));
    }

    #[test]
    fn age_tracks_last_refresh() {
        let mut e = Entry::new(1, 100, SimTime::from_secs(10), None);
        assert_eq!(e.age(SimTime::from_secs(13)), SimDuration::from_secs(3));
        assert_eq!(e.age(SimTime::from_secs(5)), SimDuration::ZERO, "saturates, never negative");
        e.refresh(2, 100, SimTime::from_secs(20), None);
        assert_eq!(e.age(SimTime::from_secs(21)), SimDuration::from_secs(1));
    }

    #[test]
    fn value_entries_account_actual_length_and_share_on_clone() {
        let payload = Bytes::from(vec![7u8; 300]);
        let e = Entry::with_value(1, payload.clone(), SimTime::ZERO, None);
        assert_eq!(e.value_size, 300, "size is the payload's actual length");
        assert_eq!(e.value, payload);
        // A hit clones the entry: the payload must share, not copy.
        let hit = e.clone();
        assert!(hit.value.shares_allocation_with(&payload));
    }

    #[test]
    fn metadata_refresh_drops_payload_but_rearm_keeps_it() {
        let mut e = Entry::with_value(1, Bytes::from(vec![1u8, 2, 3]), SimTime::ZERO, None);
        // TTL-poll re-arm: same object, value survives.
        e.rearm(2, SimTime::from_secs(1), Some(SimTime::from_secs(5)));
        assert_eq!(e.version, 2);
        assert_eq!(&e.value[..], &[1, 2, 3]);
        assert_eq!(e.value_size, 3);
        // Metadata-only rewrite: a new write without bytes must not keep
        // serving the old payload.
        e.refresh(3, 3, SimTime::from_secs(2), None);
        assert!(e.value.is_empty());
        assert_eq!(e.value_size, 3);
        // And a value refresh installs the new bytes + length.
        e.refresh_value(4, Bytes::from(vec![9u8; 10]), SimTime::from_secs(3), None);
        assert_eq!((e.version, e.value_size, e.value.len()), (4, 10, 10));
    }

    #[test]
    fn refresh_resets_everything() {
        let mut e = Entry::new(1, 100, SimTime::ZERO, Some(SimTime::from_secs(1)));
        e.state = Freshness::Invalidated;
        let now = SimTime::from_secs(5);
        e.refresh(7, 256, now, Some(now + SimDuration::from_secs(1)));
        assert_eq!(e.version, 7);
        assert_eq!(e.value_size, 256);
        assert_eq!(e.state, Freshness::Fresh);
        assert!(!e.is_stale(SimTime::from_secs(5)));
        assert!(e.is_stale(SimTime::from_secs(6)));
    }
}
