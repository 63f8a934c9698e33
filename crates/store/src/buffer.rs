//! The per-interval dirty-key buffer.
//!
//! Figure 4: "New invalidates or updates over `T` are buffered and batched
//! at the data store" and sent at the end of each interval. The buffer is
//! a set (a key written five times in one interval appears once) with
//! *insertion-ordered* drain — set iteration order must never leak into
//! simulation results.

use std::collections::HashSet;

/// Dirty-key buffer with insertion-ordered, deduplicated drain.
#[derive(Debug, Clone, Default)]
pub struct WriteBuffer {
    order: Vec<u64>,
    set: HashSet<u64>,
    /// Writes absorbed into an existing dirty mark (dedup hits).
    coalesced: u64,
}

impl WriteBuffer {
    /// New empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark `key` dirty. Returns true if this is the first write of the
    /// key in the current interval.
    pub fn mark_dirty(&mut self, key: u64) -> bool {
        if self.set.insert(key) {
            self.order.push(key);
            true
        } else {
            self.coalesced += 1;
            false
        }
    }

    /// Number of distinct dirty keys.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if nothing is dirty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Writes that were coalesced into an existing dirty mark so far
    /// (cumulative across intervals).
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Drain all dirty keys in first-write order, leaving the buffer
    /// empty for the next interval.
    pub fn drain(&mut self) -> Vec<u64> {
        self.set.clear();
        std::mem::take(&mut self.order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_within_interval() {
        let mut b = WriteBuffer::new();
        assert!(b.mark_dirty(1));
        assert!(!b.mark_dirty(1));
        assert!(b.mark_dirty(2));
        assert_eq!(b.len(), 2);
        assert_eq!(b.coalesced(), 1);
    }

    #[test]
    fn drain_preserves_first_write_order() {
        let mut b = WriteBuffer::new();
        for k in [5, 3, 9, 3, 5, 1] {
            b.mark_dirty(k);
        }
        assert_eq!(b.drain(), vec![5, 3, 9, 1]);
        assert!(b.is_empty());
    }

    #[test]
    fn drain_resets_for_next_interval() {
        let mut b = WriteBuffer::new();
        b.mark_dirty(1);
        b.drain();
        assert!(b.mark_dirty(1), "key is dirty again in a new interval");
        assert_eq!(b.drain(), vec![1]);
    }
}
