//! Invalidated-key tracking (§3.1/§3.3).
//!
//! "We assume that the backend can track keys that have been invalidated
//! … if a key `k` has been invalidated before the next write arrives at
//! the backend, the backend does not need to send a second invalidate."
//! The paper argues this is feasible because keys are small; it suggests a
//! hashmap or an extra field in the database. This is that hashmap, with
//! counters for the suppression benefit (exercised by the
//! `ablate_tracking` bench).

use std::collections::HashSet;

/// Tracks which keys the backend believes are currently invalidated in
/// the cache.
#[derive(Debug, Clone, Default)]
pub struct InvalidationTracker {
    invalidated: HashSet<u64>,
    /// Invalidate sends suppressed thanks to tracking.
    suppressed: u64,
}

impl InvalidationTracker {
    /// New empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Should an invalidate be sent for `key`? Returns `true` (and records
    /// the key) if it is not already invalidated; returns `false` and
    /// counts a suppression otherwise.
    pub fn should_send(&mut self, key: u64) -> bool {
        if self.invalidated.insert(key) {
            true
        } else {
            self.suppressed += 1;
            false
        }
    }

    /// The cache re-fetched `key` (miss on an invalidated entry) or it was
    /// refreshed by other means: it is no longer invalidated.
    pub fn clear(&mut self, key: u64) -> bool {
        self.invalidated.remove(&key)
    }

    /// True if the backend believes `key` is invalidated in the cache.
    pub fn is_invalidated(&self, key: u64) -> bool {
        self.invalidated.contains(&key)
    }

    /// Number of currently-invalidated keys.
    pub fn len(&self) -> usize {
        self.invalidated.len()
    }

    /// True if no key is currently invalidated.
    pub fn is_empty(&self) -> bool {
        self.invalidated.is_empty()
    }

    /// Invalidate messages suppressed so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_invalidate_sends_second_suppressed() {
        let mut t = InvalidationTracker::new();
        assert!(t.should_send(1));
        assert!(!t.should_send(1), "already invalidated → suppressed");
        assert!(!t.should_send(1));
        assert_eq!(t.suppressed(), 2);
    }

    #[test]
    fn clear_reenables_sending() {
        let mut t = InvalidationTracker::new();
        assert!(t.should_send(1));
        assert!(t.clear(1), "was invalidated");
        assert!(!t.clear(1), "already cleared");
        assert!(t.should_send(1), "after re-fetch, a new write invalidates again");
    }

    #[test]
    fn keys_tracked_independently() {
        let mut t = InvalidationTracker::new();
        assert!(t.should_send(1));
        assert!(t.should_send(2));
        assert!(t.is_invalidated(1));
        assert!(t.is_invalidated(2));
        t.clear(1);
        assert!(!t.is_invalidated(1));
        assert!(t.is_invalidated(2));
        assert_eq!(t.len(), 1);
    }
}
