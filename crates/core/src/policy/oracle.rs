//! The omniscient optimal policy ("Opt." in Figure 5).
//!
//! Opt. knows both the cache contents and the *future* request stream. At
//! each flush it answers, per dirty key:
//!
//! * key not cached → **nothing** (no message can help);
//! * no read follows → **nothing** (no read can go stale);
//! * a later write re-dirties the key, and the flush after that write
//!   comes before the next read → **nothing** (defer: that flush decides
//!   again, and no read in between can go stale);
//! * otherwise the next read is served before another decision →
//!     * entry currently valid: pay `min(c_u, c_i + c_m)` — update now, or
//!       invalidate now and let the read pay the miss;
//!     * entry already invalidated (the read will miss regardless): update
//!       only if healing is cheaper than the miss (`c_u < c_m`), else
//!       nothing (the pending miss re-fetches the latest value anyway).
//!
//! Deferring through write-only intervals coalesces messages the paper's
//! per-interval gap formulation would send. It defers only when a later
//! flush decides before the next read, so Opt. never serves a read data
//! older than the bound: it pays for freshness like every other policy
//! it lower-bounds in Figure 5. (Deferring whenever the next request was
//! a write let a read that shares an interval with a later write be
//! served a version many intervals old.)

use crate::cost::{CostModel, ObjectSize};
use crate::policy::FlushDecision;
use fresca_sim::{SimDuration, SimTime};
use fresca_workload::{Op, Trace};
use std::collections::HashMap;

/// Per-key future-request index over a trace.
pub struct LookaheadIndex {
    /// key → time-sorted (reads, writes).
    per_key: HashMap<u64, (Vec<SimTime>, Vec<SimTime>)>,
}

impl LookaheadIndex {
    /// Build the index from a trace.
    pub fn build(trace: &Trace) -> Self {
        let mut per_key: HashMap<u64, (Vec<SimTime>, Vec<SimTime>)> = HashMap::new();
        for r in trace {
            let (reads, writes) = per_key.entry(r.key.0).or_default();
            match r.op {
                Op::Read => reads.push(r.at),
                Op::Write => writes.push(r.at),
            }
        }
        LookaheadIndex { per_key }
    }

    /// First read of `key` strictly after `t`, with the last write of
    /// `key` after `t` and not after that read, if any.
    pub fn next_read_after(&self, key: u64, t: SimTime) -> Option<(SimTime, Option<SimTime>)> {
        let (reads, writes) = self.per_key.get(&key)?;
        let read = *reads.get(reads.partition_point(|&at| at <= t))?;
        let before = writes.partition_point(|&at| at <= read);
        let last_write = before.checked_sub(1).map(|i| writes[i]).filter(|&at| at > t);
        Some((read, last_write))
    }
}

/// The omniscient policy.
pub struct OraclePolicy {
    index: LookaheadIndex,
    /// The flush interval `T` (flushes fall on its multiples).
    interval: SimDuration,
    decisions_update: u64,
    decisions_invalidate: u64,
    decisions_nothing: u64,
}

impl OraclePolicy {
    /// New oracle over a trace flushed every `interval`.
    pub fn new(trace: &Trace, interval: SimDuration) -> Self {
        OraclePolicy {
            index: LookaheadIndex::build(trace),
            interval,
            decisions_update: 0,
            decisions_invalidate: 0,
            decisions_nothing: 0,
        }
    }

    /// Decide for `key` at flush time `now`.
    ///
    /// `cached` / `already_invalidated` come from the engine's (exact)
    /// cache state and tracker.
    pub fn decide(
        &mut self,
        key: u64,
        now: SimTime,
        cached: bool,
        already_invalidated: bool,
        cost: &CostModel,
        size: ObjectSize,
    ) -> FlushDecision {
        let decision = if !cached {
            FlushDecision::Nothing
        } else {
            match self.index.next_read_after(key, now) {
                None => FlushDecision::Nothing,
                Some((read, Some(write))) if write.interval_end(self.interval) <= read => {
                    FlushDecision::Nothing
                }
                Some(_) => {
                    let c_u = cost.update_cost(size);
                    let c_m = cost.miss_cost(size);
                    let c_i = cost.invalidate_cost(size);
                    if already_invalidated {
                        // The read will miss unless we heal the entry.
                        if c_u < c_m {
                            FlushDecision::Update
                        } else {
                            FlushDecision::Nothing
                        }
                    } else if c_u < c_i + c_m {
                        FlushDecision::Update
                    } else {
                        FlushDecision::Invalidate
                    }
                }
            }
        };
        match decision {
            FlushDecision::Update => self.decisions_update += 1,
            FlushDecision::Invalidate => self.decisions_invalidate += 1,
            FlushDecision::Nothing => self.decisions_nothing += 1,
        }
        decision
    }

    /// `(updates, invalidates, nothings)` decided so far.
    pub fn decision_counts(&self) -> (u64, u64, u64) {
        (self.decisions_update, self.decisions_invalidate, self.decisions_nothing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fresca_workload::{Key, Request};
    use fresca_workload::request::TraceMeta;

    const SIZE: ObjectSize = ObjectSize { key: 16, value: 512 };
    const T: SimDuration = SimDuration::from_secs(1);

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn trace(reqs: Vec<Request>) -> Trace {
        Trace::from_sorted(TraceMeta::default(), reqs)
    }

    fn cost() -> CostModel {
        CostModel::unit(1.0, 0.1, 0.5, 1.0)
    }

    #[test]
    fn lookahead_finds_the_next_read_and_the_last_write_before_it() {
        let tr = trace(vec![
            Request::read(t(5), Key(1), 8),
            Request::write(t(10), Key(1), 8),
            Request::write(t(12), Key(1), 8),
            Request::read(t(15), Key(1), 8),
        ]);
        let idx = LookaheadIndex::build(&tr);
        assert_eq!(idx.next_read_after(1, t(0)), Some((t(5), None)));
        assert_eq!(idx.next_read_after(1, t(5)), Some((t(15), Some(t(12)))));
        assert_eq!(idx.next_read_after(1, t(12)), Some((t(15), None)));
        assert_eq!(idx.next_read_after(1, t(15)), None);
        assert_eq!(idx.next_read_after(9, t(0)), None);
    }

    #[test]
    fn uncached_key_gets_nothing() {
        let tr = trace(vec![Request::read(t(5), Key(1), 8)]);
        let mut o = OraclePolicy::new(&tr, T);
        assert_eq!(o.decide(1, t(0), false, false, &cost(), SIZE), FlushDecision::Nothing);
    }

    #[test]
    fn next_read_with_cheap_update_updates() {
        // c_u = 0.5 < c_i + c_m = 1.1 → update.
        let tr = trace(vec![Request::read(t(5), Key(1), 8)]);
        let mut o = OraclePolicy::new(&tr, T);
        assert_eq!(o.decide(1, t(0), true, false, &cost(), SIZE), FlushDecision::Update);
    }

    #[test]
    fn next_read_with_expensive_update_invalidates() {
        // c_u = 1.5 > c_i + c_m = 1.1 → invalidate (read pays the miss).
        let expensive = CostModel::Unit { c_m: 1.0, c_i: 0.1, c_u: 1.5, c_h: 1.0 };
        let tr = trace(vec![Request::read(t(5), Key(1), 8)]);
        let mut o = OraclePolicy::new(&tr, T);
        assert_eq!(o.decide(1, t(0), true, false, &expensive, SIZE), FlushDecision::Invalidate);
    }

    #[test]
    fn next_write_defers() {
        let tr = trace(vec![
            Request::write(t(5), Key(1), 8),
            Request::read(t(6), Key(1), 8),
        ]);
        let mut o = OraclePolicy::new(&tr, T);
        assert_eq!(
            o.decide(1, t(0), true, false, &cost(), SIZE),
            FlushDecision::Nothing,
            "the write re-dirties the key and its flush (6 s) decides before the read"
        );
    }

    #[test]
    fn write_sharing_the_reads_interval_does_not_defer() {
        // The write at 5.2 s is flushed at 6 s, after the read at 5.5 s:
        // deferring would serve that read the version the 0 s flush saw.
        let tr = trace(vec![
            Request::write(SimTime::from_millis(5_200), Key(1), 8),
            Request::read(SimTime::from_millis(5_500), Key(1), 8),
        ]);
        let mut o = OraclePolicy::new(&tr, T);
        assert_eq!(o.decide(1, t(0), true, false, &cost(), SIZE), FlushDecision::Update);
    }

    #[test]
    fn already_invalidated_heals_only_if_cheaper_than_miss() {
        let tr = trace(vec![Request::read(t(5), Key(1), 8)]);
        // c_u = 0.5 < c_m = 1.0 → heal.
        let mut o = OraclePolicy::new(&tr, T);
        assert_eq!(o.decide(1, t(0), true, true, &cost(), SIZE), FlushDecision::Update);
        // c_u = 0.9 ≥ c_m = 0.8 → the miss is cheaper; do nothing.
        let c2 = CostModel::Unit { c_m: 0.8, c_i: 0.1, c_u: 0.9, c_h: 1.0 };
        let tr2 = trace(vec![Request::read(t(5), Key(1), 8)]);
        let mut o2 = OraclePolicy::new(&tr2, T);
        assert_eq!(o2.decide(1, t(0), true, true, &c2, SIZE), FlushDecision::Nothing);
    }

    #[test]
    fn no_future_request_does_nothing() {
        let tr = trace(vec![Request::write(t(1), Key(1), 8)]);
        let mut o = OraclePolicy::new(&tr, T);
        assert_eq!(o.decide(1, t(2), true, false, &cost(), SIZE), FlushDecision::Nothing);
        assert_eq!(o.decision_counts(), (0, 0, 1));
    }
}
