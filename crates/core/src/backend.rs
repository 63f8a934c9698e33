//! The store's half of the freshness loop, I/O-free (Figure 4, §3.1,
//! §3.3).
//!
//! A [`Backend`] owns the versioned [`DataStore`], the per-interval
//! [`WriteBuffer`] of dirty keys, the §3.1 [`InvalidationTracker`] and
//! the [`Rule`] that picks update-vs-invalidate per key. It has two
//! callers, and both run the one decision loop in [`Backend::drain`]:
//!
//! * the simulation engine ([`crate::engine`]), which sends each flush's
//!   [`Batch`] over its simulated store→cache link;
//! * the live store-push node (`fresca-serve`'s `push` and `origin`
//!   modules), which partitions the flush by ring owner and sends each
//!   node its batch over TCP.
//!
//! It holds no lock, socket or clock: callers hand it `now`, and the
//! live path serialises calls behind its own mutex.
//!
//! **Who clears the tracker after an update is the caller's call.** The
//! engine clears a key when a delivered `Update` lands in its cache. The
//! live path clears at decision, before the send — a node that applied
//! an update whose ack was lost must not be left marked "invalidated",
//! or the next write's invalidate would be suppressed and the node would
//! serve stale data as fresh.

use crate::cost::{CostModel, ObjectSize};
use crate::policy::{AdaptivePolicy, FlushDecision, SloAdaptivePolicy};
use fresca_sim::SimTime;
use fresca_sketch::EwEstimator;
use fresca_store::{CacheStateMirror, DataStore, InvalidationTracker, Record, WriteBuffer};

/// How the backend decides for a dirty key.
pub enum Rule {
    /// TTL policies: writes mark nothing dirty and nothing is pushed.
    Off,
    /// The same decision for every key.
    Static(FlushDecision),
    /// §3.3's `E[W]` rule. `mirror` is the backend's view of the cache,
    /// for Adpt.+C.S. only: keys it does not hold get nothing.
    Adaptive {
        /// The per-key `E[W]` policy.
        policy: AdaptivePolicy<Box<dyn EwEstimator + Send>>,
        /// Which keys the cache holds, if the backend knows.
        mirror: Option<CacheStateMirror>,
    },
    /// §3.2's throughput-max-under-staleness-SLO rule.
    Slo(SloAdaptivePolicy),
}

impl Rule {
    /// Cumulative `(updates, invalidates)` decided by an adaptive rule.
    pub fn decision_counts(&self) -> Option<(u64, u64)> {
        match self {
            Rule::Adaptive { policy, .. } => Some(policy.decision_counts()),
            Rule::Slo(policy) => Some(policy.decision_counts()),
            Rule::Off | Rule::Static(_) => None,
        }
    }
}

/// One destination's share of a flush, each list in first-write order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    /// Keys to invalidate (already past §3.1 suppression), with the
    /// store's record at flush time.
    pub invalidate: Vec<(u64, Record)>,
    /// Keys to update, with the store's record at flush time.
    pub update: Vec<(u64, Record)>,
}

/// The store-side state of the freshness loop. See the module docs.
pub struct Backend {
    store: DataStore,
    buffer: WriteBuffer,
    tracker: InvalidationTracker,
    rule: Rule,
}

impl Backend {
    /// An empty store deciding by `rule`.
    pub fn new(rule: Rule) -> Self {
        Backend {
            store: DataStore::new(),
            buffer: WriteBuffer::new(),
            tracker: InvalidationTracker::new(),
            rule,
        }
    }

    /// Apply a client write: bump the record, feed the rule's write
    /// stream and mark the key dirty (unless the rule is [`Rule::Off`]).
    pub fn write(&mut self, key: u64, value_size: u32, now: SimTime) -> Record {
        let rec = self.store.write(key, value_size, now);
        match &mut self.rule {
            Rule::Off => return rec,
            Rule::Static(_) => {}
            Rule::Adaptive { policy, .. } => policy.on_write(key),
            Rule::Slo(policy) => policy.on_write(key),
        }
        self.buffer.mark_dirty(key);
        rec
    }

    /// Feed a read of `key` to the rule's estimator.
    pub fn on_read(&mut self, key: u64) {
        match &mut self.rule {
            Rule::Adaptive { policy, .. } => policy.on_read(key),
            Rule::Slo(policy) => policy.on_read(key),
            Rule::Off | Rule::Static(_) => {}
        }
    }

    /// Serve a cache fetch of `key` (a miss or a refresh): the store's
    /// record, materialised at `default_size` on first touch, and the
    /// cache holds the latest version again.
    pub fn fetched(&mut self, key: u64, default_size: u32) -> Record {
        self.refreshed(key);
        self.store.read(key, default_size)
    }

    /// The cache holds `key`'s latest version again: it is no longer
    /// invalidated. Skipped while nothing is, as under most policies.
    pub fn refreshed(&mut self, key: u64) {
        if !self.tracker.is_empty() {
            self.tracker.clear(key);
        }
    }

    /// The cache populated `key` (Adpt.+C.S.'s mirror).
    pub fn on_populate(&mut self, key: u64) {
        if let Rule::Adaptive { mirror: Some(mirror), .. } = &mut self.rule {
            mirror.on_populate(key);
        }
    }

    /// The cache evicted `key` (Adpt.+C.S.'s mirror).
    pub fn on_evict(&mut self, key: u64) {
        if let Rule::Adaptive { mirror: Some(mirror), .. } = &mut self.rule {
            mirror.on_evict(key);
        }
    }

    /// The rule's decision for `key`.
    pub fn decide(&mut self, key: u64, cost: &CostModel, size: ObjectSize) -> FlushDecision {
        match &mut self.rule {
            Rule::Off => FlushDecision::Nothing,
            Rule::Static(decision) => *decision,
            Rule::Adaptive { policy, mirror } => {
                if mirror.as_mut().is_some_and(|m| !m.should_send(key)) {
                    FlushDecision::Nothing
                } else {
                    policy.decide(key, cost, size)
                }
            }
            Rule::Slo(policy) => policy.decide(key, cost, size),
        }
    }

    /// The interval flush's decisions: drain the dirty keys and decide
    /// each, into `parts` batches indexed by `part_of(key)`. `hook(key,
    /// size, tracker)` decides instead of the rule when it returns
    /// `Some`. An invalidate passes §3.1 suppression here; an update's
    /// tracker clear is left to the caller (see the module docs). No
    /// I/O: the caller sends the batches.
    pub fn drain(
        &mut self,
        cost: &CostModel,
        key_size: u32,
        parts: usize,
        part_of: impl Fn(u64) -> usize,
        mut hook: impl FnMut(u64, ObjectSize, &InvalidationTracker) -> Option<FlushDecision>,
    ) -> Vec<Batch> {
        let mut batches = vec![Batch::default(); parts];
        for key in self.buffer.drain() {
            let rec = self.store.peek(key).expect("a dirty key was written");
            let size = ObjectSize { key: key_size, value: rec.value_size };
            let decision = match hook(key, size, &self.tracker) {
                Some(decision) => decision,
                None => self.decide(key, cost, size),
            };
            let batch = &mut batches[part_of(key)];
            match decision {
                FlushDecision::Update => batch.update.push((key, rec)),
                FlushDecision::Invalidate if self.tracker.should_send(key) => {
                    batch.invalidate.push((key, rec))
                }
                FlushDecision::Invalidate | FlushDecision::Nothing => {}
            }
        }
        batches
    }

    /// Put back batches that were not delivered: their keys are dirty
    /// again, and an unsent invalidate no longer counts as sent.
    pub fn restore(&mut self, unsent: &[Batch]) {
        for batch in unsent {
            for &(key, _) in &batch.invalidate {
                self.tracker.clear(key);
                self.buffer.mark_dirty(key);
            }
            for &(key, _) in &batch.update {
                self.buffer.mark_dirty(key);
            }
        }
    }

    /// The versioned store.
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// The dirty keys of the current interval.
    pub fn buffer(&self) -> &WriteBuffer {
        &self.buffer
    }

    /// The §3.1 tracker.
    pub fn tracker(&self) -> &InvalidationTracker {
        &self.tracker
    }

    /// The decision rule.
    pub fn rule(&self) -> &Rule {
        &self.rule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModel {
        CostModel::unit(1.0, 0.1, 0.5, 1.0)
    }

    fn drain(b: &mut Backend, parts: usize) -> Vec<Batch> {
        b.drain(&cost(), 8, parts, |k| k as usize % parts, |_, _, _| None)
    }

    #[test]
    fn off_marks_nothing_dirty() {
        let mut b = Backend::new(Rule::Off);
        b.write(1, 8, SimTime::ZERO);
        assert!(b.buffer().is_empty());
        assert_eq!(drain(&mut b, 1), vec![Batch::default()]);
    }

    #[test]
    fn drain_partitions_in_first_write_order_and_suppresses_repeats() {
        let mut b = Backend::new(Rule::Static(FlushDecision::Invalidate));
        for key in [3, 2, 1, 3, 4] {
            b.write(key, 8, SimTime::ZERO);
        }
        let batches = drain(&mut b, 2);
        let keys = |batch: &Batch| batch.invalidate.iter().map(|&(k, _)| k).collect::<Vec<_>>();
        assert_eq!(keys(&batches[0]), vec![2, 4]);
        assert_eq!(keys(&batches[1]), vec![3, 1]);
        b.write(3, 8, SimTime::ZERO);
        assert!(drain(&mut b, 2).iter().all(|batch| batch.invalidate.is_empty()));
        assert_eq!(b.tracker().suppressed(), 1);
        b.fetched(3, 8);
        b.write(3, 8, SimTime::ZERO);
        assert_eq!(keys(&drain(&mut b, 2)[1]), vec![3], "a fetch re-arms the key");
    }

    #[test]
    fn hook_overrides_the_rule_and_sees_the_tracker() {
        let mut b = Backend::new(Rule::Static(FlushDecision::Invalidate));
        b.write(1, 8, SimTime::ZERO);
        drain(&mut b, 1);
        let rec = b.write(1, 24, SimTime::ZERO);
        let mut seen = None;
        let batches = b.drain(&cost(), 8, 1, |_| 0, |key, size, tracker| {
            seen = Some((size.value, tracker.is_invalidated(key)));
            Some(FlushDecision::Update)
        });
        assert_eq!(seen, Some((24, true)));
        assert_eq!(batches[0].update, vec![(1, rec)]);
        assert!(b.tracker().is_invalidated(1), "the caller clears after an update");
    }

    #[test]
    fn restore_remarks_dirty_and_rolls_back_invalidates() {
        let mut b = Backend::new(Rule::Static(FlushDecision::Invalidate));
        b.write(1, 8, SimTime::ZERO);
        let batches = drain(&mut b, 1);
        b.restore(&batches);
        assert_eq!(b.buffer().len(), 1);
        assert!(!b.tracker().is_invalidated(1));
        assert_eq!(drain(&mut b, 1)[0].invalidate.len(), 1);
    }

    #[test]
    fn mirror_skips_keys_the_cache_does_not_hold() {
        let policy = AdaptivePolicy::new(crate::policy::EstimatorConfig::Exact.build());
        let mut b = Backend::new(Rule::Adaptive { policy, mirror: Some(CacheStateMirror::new()) });
        b.on_populate(1);
        b.on_populate(2);
        b.on_evict(1);
        b.write(1, 8, SimTime::ZERO);
        b.write(2, 8, SimTime::ZERO);
        let batches = drain(&mut b, 1);
        assert_eq!(batches[0].update.len() + batches[0].invalidate.len(), 1);
        assert_eq!(b.rule().decision_counts().map(|(u, i)| u + i), Some(1));
    }
}
