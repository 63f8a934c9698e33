//! The vocabulary shared by the cache and everything that configures or
//! reads it: capacity and eviction knobs, read classifications, counters.
//! The store itself is [`SlabCache`](crate::SlabCache).

use crate::entry::Entry;
use serde::{Deserialize, Serialize};

/// Capacity limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Capacity {
    /// At most this many entries.
    Entries(usize),
    /// At most this many value bytes (entry metadata not counted).
    Bytes(u64),
    /// No limit (analysis mode; the paper's model has no eviction).
    Unbounded,
}

/// Eviction victim selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Evict the least-recently-*used* entry (reads touch).
    Lru,
    /// Evict the oldest-inserted entry (reads do not touch).
    Fifo,
    /// Segmented LRU: new entries start in a probationary segment and
    /// promote into a protected segment on their first hit. Scans of
    /// one-shot keys churn only the probationary segment, so reused
    /// entries survive (the classic SLRU scan resistance).
    Slru {
        /// Share of the entry budget reserved for the protected segment,
        /// in percent (1..=99). The common choice is 80.
        protected_pct: u8,
    },
    /// The §5 extension: like LRU, but probe the cold end for an
    /// already-stale entry first — evicting stale data is free in
    /// freshness terms, keeping fresh entries alive longer.
    FreshnessAware {
        /// How many cold-end entries to probe for staleness.
        probe_depth: usize,
    },
}

/// Cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Capacity limit.
    pub capacity: Capacity,
    /// Eviction policy.
    pub eviction: EvictionPolicy,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: Capacity::Entries(1024), eviction: EvictionPolicy::Lru }
    }
}

/// Result of a cache read. Carries a clone of the entry — with payload
/// values that is a refcount bump on the shared [`Bytes`](bytes::Bytes) handle, never
/// a byte copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GetResult {
    /// Present and fresh: served from cache.
    FreshHit(Entry),
    /// Present but stale (TTL-expired or invalidated): the paper's
    /// staleness-cost event. Caller re-fetches from the backend.
    StaleMiss(Entry),
    /// Absent: a cold miss.
    ColdMiss,
}

impl GetResult {
    /// True for [`GetResult::FreshHit`].
    pub fn is_fresh_hit(&self) -> bool {
        matches!(self, GetResult::FreshHit(_))
    }

    /// True for [`GetResult::StaleMiss`].
    pub fn is_stale_miss(&self) -> bool {
        matches!(self, GetResult::StaleMiss(_))
    }
}

/// Result of a staleness-bounded read
/// ([`SlabCache::get_bounded`](crate::SlabCache::get_bounded)): the
/// serving-path classification, where a read carries its own maximum
/// acceptable staleness and the cache decides whether to serve or refuse.
/// Served variants carry the entry — and with it the refcounted value
/// handle a server puts on the wire without copying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundedGet {
    /// Served: within its TTL and no older than the request's bound.
    Fresh(Entry),
    /// Served *stale*: past its TTL (or the TTL-less default contract)
    /// but last refreshed within the request's bound — the caller asked
    /// for "no staler than T" and this entry satisfies that.
    ServedStale(Entry),
    /// Refused: present but older than the bound, or known-stale via a
    /// backend invalidation. The entry is returned so the caller can
    /// inspect what was refused, but it must not be used as a value.
    Refused(Entry),
    /// Absent: a cold miss.
    Miss,
}

impl BoundedGet {
    /// True when a value was served ([`BoundedGet::Fresh`] or
    /// [`BoundedGet::ServedStale`]).
    pub fn is_served(&self) -> bool {
        matches!(self, BoundedGet::Fresh(_) | BoundedGet::ServedStale(_))
    }

    /// The entry served, if any.
    pub fn served_entry(&self) -> Option<&Entry> {
        match self {
            BoundedGet::Fresh(e) | BoundedGet::ServedStale(e) => Some(e),
            _ => None,
        }
    }
}

/// Counters exported by the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Reads served fresh from cache.
    pub fresh_hits: u64,
    /// Reads that found a present-but-stale entry (`C_S` events).
    pub stale_misses: u64,
    /// Reads that found nothing.
    pub cold_misses: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Invalidation messages that found their entry.
    pub invalidations_applied: u64,
    /// Invalidation messages for keys not cached (wasted).
    pub invalidations_missed: u64,
    /// Update messages applied to a cached entry.
    pub updates_applied: u64,
    /// Update messages for keys not cached ("does nothing" per the paper).
    pub updates_missed: u64,
    /// TTL-polling refreshes applied.
    pub refreshes: u64,
    /// Bounded reads served past their TTL but within the caller's bound
    /// (a subset of `stale_misses`).
    pub stale_served: u64,
    /// Bounded reads refused because the entry exceeded the caller's
    /// bound or was invalidated (a subset of `stale_misses`).
    pub bound_refusals: u64,
}

impl CacheStats {
    /// Total read operations observed.
    pub fn reads(&self) -> u64 {
        self.fresh_hits + self.stale_misses + self.cold_misses
    }

    /// Reads for which the object was present (fresh or stale) — the
    /// denominator of the paper's `C'_S` normalisation.
    pub fn present_reads(&self) -> u64 {
        self.fresh_hits + self.stale_misses
    }
}
