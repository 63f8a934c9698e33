//! Consistent-hash placement of the key space across cache nodes.
//!
//! A [`HashRing`] maps every `u64` key to one member node the classic
//! way: each node projects `vnodes` *virtual nodes* onto a `u64` circle
//! (hash points derived from the node's name and the replica index), a
//! key hashes onto the same circle, and the key belongs to the node
//! owning the first point at or clockwise after it. Two properties fall
//! out of the construction and are what the serving tier relies on:
//!
//! * **Deterministic placement.** A node's points depend only on its
//!   name, never on membership history or insertion order, so every
//!   participant — cluster clients, the load generator, the store-push
//!   node — derives the *same* owner for every key from the member list
//!   alone. No coordination, no exchanged routing table.
//! * **Minimal remapping.** Adding a node only inserts that node's
//!   points, so the only keys that change owner are the ones the new
//!   node now owns — about `K/n` of `K` keys over `n` members — and
//!   removing a node moves only the keys it owned. A modulo scheme would
//!   reshuffle nearly everything on every membership change.
//!
//! Virtual nodes trade lookup-table size for balance: with `v` points
//! per node the per-node load imbalance concentrates around `1/sqrt(v)`.
//! The default of 128 keeps nodes within a few percent of each other
//! without making membership changes expensive.

use fresca_sim::rng::mix64;

/// Default number of virtual nodes per member.
pub const DEFAULT_VNODES: usize = 128;

/// FNV-1a over a byte string: the seed hash for a node's point stream.
/// Stability matters here — the ring is a *wire-adjacent* contract
/// (every cluster participant must agree on placement), so the hash is
/// fixed by this module, not borrowed from `std`'s unspecified hasher.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Where `key` lands on the circle: the SplitMix64 finalizer spreads
/// key identities uniformly over it.
fn key_point(key: u64) -> u64 {
    mix64(key)
}

/// Where replica `replica` of node `name` lands on the circle (the
/// finalizer decorrelates consecutive replica indices).
fn node_point(name: &str, replica: u32) -> u64 {
    mix64(fnv1a(name.as_bytes()) ^ (replica as u64).rotate_left(17))
}

/// A consistent-hash ring over named nodes (names are typically
/// `host:port` addresses).
///
/// ```
/// use fresca_serve::ring::HashRing;
///
/// let mut ring = HashRing::new(128);
/// ring.add_node("10.0.0.1:7440");
/// ring.add_node("10.0.0.2:7440");
/// ring.add_node("10.0.0.3:7440");
///
/// // Placement is a pure function of (members, key): every participant
/// // computes the same owner.
/// let owner = ring.node_for(42).unwrap().to_string();
/// assert_eq!(ring.node_for(42).unwrap(), owner);
///
/// // Removing an unrelated node does not move the key unless that node
/// // owned it.
/// let other = ring.nodes().iter().find(|n| **n != owner).unwrap().clone();
/// ring.remove_node(&other);
/// assert_eq!(ring.node_for(42).unwrap(), owner);
/// ```
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: usize,
    /// Member names in insertion order — the stable index space handed
    /// out by [`HashRing::node_index_for`].
    nodes: Vec<String>,
    /// `(point, node index)` sorted by point; rebuilt on membership
    /// change. Ties between points of different nodes break by node
    /// *name* (not index) so placement stays independent of insertion
    /// order.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Empty ring with `vnodes` virtual nodes per member (`0` is
    /// rounded up to 1).
    pub fn new(vnodes: usize) -> Self {
        HashRing { vnodes: vnodes.max(1), nodes: Vec::new(), points: Vec::new() }
    }

    /// Build a ring from a member list in one call. Duplicate names are
    /// silently dropped; use [`HashRing::try_from_members`] when an
    /// empty or duplicated member list should be an error.
    pub fn from_nodes<S: AsRef<str>>(vnodes: usize, names: &[S]) -> Self {
        let mut ring = Self::new(vnodes);
        for n in names {
            ring.add_node(n.as_ref());
        }
        ring
    }

    /// Build a ring from a cluster member list, validating it the way
    /// every cluster participant must: at least one member, no
    /// duplicates. This is the one constructor behind
    /// [`crate::ClusterClient`], [`crate::StorePusher`] and the loadgen
    /// fan-out, so membership validation cannot drift between them.
    pub fn try_from_members<S: AsRef<str>>(
        vnodes: usize,
        names: &[S],
    ) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        if names.is_empty() {
            return Err(Error::new(ErrorKind::InvalidInput, "no cluster members given"));
        }
        let ring = Self::from_nodes(vnodes, names);
        if ring.len() != names.len() {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                "duplicate cluster member address",
            ));
        }
        Ok(ring)
    }

    /// Virtual nodes per member.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Member names, in insertion order (the index space of
    /// [`HashRing::node_index_for`]).
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Add a member. Returns `false` (and changes nothing) if a node
    /// with this name is already on the ring.
    pub fn add_node(&mut self, name: &str) -> bool {
        if self.nodes.iter().any(|n| n == name) {
            return false;
        }
        self.nodes.push(name.to_string());
        self.rebuild();
        true
    }

    /// Remove a member by name. Returns `false` if it was not a member.
    pub fn remove_node(&mut self, name: &str) -> bool {
        let Some(pos) = self.nodes.iter().position(|n| n == name) else {
            return false;
        };
        self.nodes.remove(pos);
        self.rebuild();
        true
    }

    /// Recompute the sorted point table from the member list. Each
    /// node's points depend only on its own name, which is what makes
    /// remapping minimal: membership changes add or delete one node's
    /// points and leave every other point exactly where it was.
    fn rebuild(&mut self) {
        self.points.clear();
        self.points.reserve(self.nodes.len() * self.vnodes);
        for (idx, name) in self.nodes.iter().enumerate() {
            for replica in 0..self.vnodes {
                self.points.push((node_point(name, replica as u32), idx));
            }
        }
        // Tie-break equal points by name so the winner does not depend
        // on insertion order.
        self.points
            .sort_by(|a, b| (a.0, self.nodes[a.1].as_str()).cmp(&(b.0, self.nodes[b.1].as_str())));
    }

    /// Index (into [`HashRing::nodes`]) of the member owning `key`, or
    /// `None` on an empty ring.
    pub fn node_index_for(&self, key: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let p = key_point(key);
        // First point at or clockwise after the key, wrapping at the top.
        let at = self.points.partition_point(|&(point, _)| point < p);
        let (_, idx) = self.points[if at == self.points.len() { 0 } else { at }];
        Some(idx)
    }

    /// Name of the member owning `key`, or `None` on an empty ring.
    pub fn node_for(&self, key: u64) -> Option<&str> {
        self.node_index_for(key).map(|i| self.nodes[i].as_str())
    }

    /// Partition `keys` into one bucket per member (indexed like
    /// [`HashRing::nodes`]), preserving each bucket's input order — the
    /// shape a per-node `Invalidate`/`Update` batch is built from.
    pub fn partition(&self, keys: impl IntoIterator<Item = u64>) -> Vec<Vec<u64>> {
        let mut buckets = vec![Vec::new(); self.nodes.len()];
        for key in keys {
            if let Some(i) = self.node_index_for(key) {
                buckets[i].push(key);
            }
        }
        buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn ring(n: usize) -> HashRing {
        let names: Vec<String> = (0..n).map(|i| format!("10.0.0.{i}:7440")).collect();
        HashRing::from_nodes(128, &names)
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let r = HashRing::new(64);
        assert!(r.is_empty());
        assert_eq!(r.node_for(1), None);
        assert_eq!(r.node_index_for(1), None);
        assert_eq!(r.partition([1, 2, 3]), Vec::<Vec<u64>>::new());
    }

    #[test]
    fn single_node_owns_everything() {
        let mut r = HashRing::new(8);
        assert!(r.add_node("a:1"));
        for k in 0..1000u64 {
            assert_eq!(r.node_for(k), Some("a:1"));
        }
    }

    #[test]
    fn duplicate_add_and_missing_remove_are_noops() {
        let mut r = ring(3);
        assert!(!r.add_node("10.0.0.1:7440"));
        assert_eq!(r.len(), 3);
        assert!(!r.remove_node("nope:1"));
        assert!(r.remove_node("10.0.0.1:7440"));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn placement_is_independent_of_insertion_order() {
        let names = ["c:3", "a:1", "b:2", "d:4"];
        let fwd = HashRing::from_nodes(64, &names);
        let mut rev_names = names;
        rev_names.reverse();
        let rev = HashRing::from_nodes(64, &rev_names);
        for k in 0..10_000u64 {
            assert_eq!(fwd.node_for(k), rev.node_for(k), "key {k}");
        }
    }

    #[test]
    fn distribution_is_roughly_balanced() {
        let r = ring(5);
        let mut counts: HashMap<&str, u64> = HashMap::new();
        let keys = 50_000u64;
        for k in 0..keys {
            *counts.entry(r.node_for(k).unwrap()).or_default() += 1;
        }
        assert_eq!(counts.len(), 5, "every node owns some keys");
        let mean = keys as f64 / 5.0;
        for (node, c) in counts {
            let share = c as f64 / mean;
            assert!(
                (0.5..=1.5).contains(&share),
                "node {node} owns {c} keys ({share:.2}x the mean)"
            );
        }
    }

    #[test]
    fn adding_a_node_moves_keys_only_to_it() {
        let before = ring(4);
        let mut after = before.clone();
        after.add_node("10.0.0.99:7440");
        let keys = 20_000u64;
        let mut moved = 0u64;
        for k in 0..keys {
            let old = before.node_for(k).unwrap();
            let new = after.node_for(k).unwrap();
            if old != new {
                moved += 1;
                assert_eq!(new, "10.0.0.99:7440", "key {k} moved to an unrelated node");
            }
        }
        // Expected share for the 5th node is K/5; allow generous slack.
        assert!(moved > 0, "the new node must own something");
        assert!(
            moved as f64 <= keys as f64 / 5.0 * 2.0,
            "moved {moved} of {keys} keys — far more than ~K/n"
        );
    }

    #[test]
    fn removing_a_node_moves_only_its_keys() {
        let before = ring(4);
        let mut after = before.clone();
        after.remove_node("10.0.0.2:7440");
        for k in 0..20_000u64 {
            let old = before.node_for(k).unwrap();
            let new = after.node_for(k).unwrap();
            if old != "10.0.0.2:7440" {
                assert_eq!(old, new, "key {k} moved although its owner stayed");
            } else {
                assert_ne!(new, "10.0.0.2:7440");
            }
        }
    }

    #[test]
    fn partition_covers_all_keys_in_order() {
        let r = ring(3);
        let keys: Vec<u64> = (0..999).collect();
        let buckets = r.partition(keys.iter().copied());
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), keys.len());
        for (i, bucket) in buckets.iter().enumerate() {
            let mut prev = None;
            for &k in bucket {
                assert_eq!(r.node_index_for(k), Some(i));
                assert!(prev.is_none_or(|p| p < k), "bucket order preserved");
                prev = Some(k);
            }
        }
    }
}
