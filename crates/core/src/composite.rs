//! Many-to-many caching relationships (§5, open question 2).
//!
//! Some cached objects are *composites* rendered from several backend
//! objects (the paper's example: a web page built from figures, HTML
//! fragments and tables). The paper sketches the extension: "a cached
//! object has bounded staleness if its constituent parts satisfy the
//! staleness bound". This module implements that check plus the analytic
//! extension of the per-object model to composites.

use crate::model::WorkloadPoint;
use fresca_cache::SlabCache;
use fresca_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A composite object: an id plus the backend parts it renders.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompositeSpec {
    /// Composite object id (distinct key space from part keys).
    pub id: u64,
    /// Backend part keys. Must be non-empty.
    pub parts: Vec<u64>,
}

/// Registry of composite objects.
#[derive(Debug, Clone, Default)]
pub struct CompositeCatalog {
    specs: HashMap<u64, CompositeSpec>,
    /// part key → composite ids containing it (reverse index, used to
    /// propagate part invalidations to composites).
    reverse: HashMap<u64, Vec<u64>>,
}

impl CompositeCatalog {
    /// New empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a composite. Panics on duplicate ids or empty part lists.
    pub fn register(&mut self, spec: CompositeSpec) {
        assert!(!spec.parts.is_empty(), "composite must have at least one part");
        for &p in &spec.parts {
            self.reverse.entry(p).or_default().push(spec.id);
        }
        let prev = self.specs.insert(spec.id, spec);
        assert!(prev.is_none(), "duplicate composite id");
    }

    /// Parts of composite `id`.
    pub fn parts(&self, id: u64) -> Option<&[u64]> {
        self.specs.get(&id).map(|s| s.parts.as_slice())
    }

    /// Composites containing part `key`.
    pub fn composites_of(&self, key: u64) -> &[u64] {
        self.reverse.get(&key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of registered composites.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when no composite is registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// A composite is fresh iff *every* part is cached and fresh at `now`
    /// (the paper's rule). Returns `None` if any part is absent (composite
    /// cannot be served from cache at all).
    pub fn is_fresh(&self, id: u64, cache: &SlabCache, now: SimTime) -> Option<bool> {
        let spec = self.specs.get(&id)?;
        let mut fresh = true;
        for &p in &spec.parts {
            match cache.peek(p) {
                None => return None,
                Some(e) => fresh &= !e.is_stale(now),
            }
        }
        Some(fresh)
    }
}

/// Analytic extension: for a composite of independent parts with per-part
/// workload points, the probability that at least one part receives a
/// write within an interval `t` — i.e. the composite's effective
/// `P_W(T)` — is `1 − Π(1 − P_W,k(T))`.
pub fn composite_p_write(parts: &[WorkloadPoint], t: f64) -> f64 {
    let p_none: f64 = parts.iter().map(|p| 1.0 - p.p_write(t)).product();
    1.0 - p_none
}

/// Effective read probability of the composite: a composite read reads
/// every part, so the composite's `P_R(T)` is driven by the composite's
/// own read rate `lambda_read` (reads/second of the page itself).
pub fn composite_p_read(lambda_read: f64, t: f64) -> f64 {
    1.0 - (-lambda_read * t).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fresca_cache::Capacity;

    fn cache() -> SlabCache {
        SlabCache::new(Capacity::Entries(64))
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn fresh_only_when_all_parts_fresh() {
        let mut cat = CompositeCatalog::new();
        cat.register(CompositeSpec { id: 100, parts: vec![1, 2, 3] });
        let mut c = cache();
        for k in [1, 2, 3] {
            c.insert(k, 1, 8, t(0), None);
        }
        assert_eq!(cat.is_fresh(100, &c, t(1)), Some(true));
        c.apply_invalidate(2);
        assert_eq!(cat.is_fresh(100, &c, t(1)), Some(false), "one stale part taints all");
    }

    #[test]
    fn missing_part_means_unservable() {
        let mut cat = CompositeCatalog::new();
        cat.register(CompositeSpec { id: 100, parts: vec![1, 2] });
        let mut c = cache();
        c.insert(1, 1, 8, t(0), None);
        assert_eq!(cat.is_fresh(100, &c, t(1)), None);
    }

    #[test]
    fn reverse_index_maps_parts_to_composites() {
        let mut cat = CompositeCatalog::new();
        cat.register(CompositeSpec { id: 100, parts: vec![1, 2] });
        cat.register(CompositeSpec { id: 200, parts: vec![2, 3] });
        assert_eq!(cat.composites_of(2), &[100, 200]);
        assert_eq!(cat.composites_of(1), &[100]);
        assert!(cat.composites_of(99).is_empty());
    }

    #[test]
    fn composite_write_probability_grows_with_parts() {
        let part = WorkloadPoint::new(1.0, 0.9); // P_W(1) = 1 − e^−0.1
        let one = composite_p_write(&[part], 1.0);
        let five = composite_p_write(&[part; 5], 1.0);
        assert!(five > one);
        assert!((one - part.p_write(1.0)).abs() < 1e-12);
        // Independence: 1 − (1−p)^5.
        let expect = 1.0 - (1.0 - one).powi(5);
        assert!((five - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duplicate composite id")]
    fn duplicate_registration_panics() {
        let mut cat = CompositeCatalog::new();
        cat.register(CompositeSpec { id: 1, parts: vec![1] });
        cat.register(CompositeSpec { id: 1, parts: vec![2] });
    }
}
