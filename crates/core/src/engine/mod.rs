//! The simulation engine.
//!
//! [`TraceEngine`] replays a trace against the cache + store with a chosen
//! freshness policy, metering `C_F`/`C_S`. At every interval boundary the
//! write buffer's decisions become [`Message::Invalidate`] and
//! [`Message::Update`] frames sent over the store→cache link, a
//! [`SimNetwork`]; the cache applies them when they are delivered.
//!
//! The link is a value, [`LinkConfig`]. Its default delivers instantly and
//! never loses a message — the paper's simulation setup behind Figures 2,
//! 3 and 5. A lossy one gives the §5 experiments: "lost or re-ordered
//! updates and invalidates may cause a cached object to remain in a stale
//! state in the cache indefinitely", and the classic fix (sequencing +
//! acks + retransmission, [`Retransmit`]).
//!
//! Every run checks each fresh hit against the store's real write
//! history: a **violation** is a read served as fresh whose data misses a
//! write older than the bound `T`.

use crate::backend::{Backend, Batch, Rule};
use crate::cost::{CostModel, ObjectSize};
use crate::metrics::{CostBreakdown, CostMeters};
pub use crate::policy::{EstimatorConfig, PolicyConfig};
use crate::policy::{AdaptivePolicy, FlushDecision, OraclePolicy, SloAdaptivePolicy};
use fresca_cache::slab::SplitMixBuild;
use fresca_cache::{CacheConfig, CacheStats, Capacity, EvictionPolicy, GetResult, SlabCache};
use fresca_net::{
    DedupReceiver, FaultConfig, Message, NetStats, ReliableSender, SimNetwork, UpdateItem,
};
use fresca_sim::{Scheduler, SimDuration, SimTime};
use fresca_store::{CacheStateMirror, InvalidationTracker};
use fresca_workload::{Op, Trace};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Retransmission settings of the reliability layer (sequence numbers,
/// acks on a second link with the same fault model, retransmit on
/// timeout, duplicate suppression at the cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Retransmit {
    /// Retransmission timeout.
    pub rto: SimDuration,
    /// Retry budget per message.
    pub max_retries: u32,
}

/// The store→cache freshness link every flush goes over.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Delay and fault model.
    pub faults: FaultConfig,
    /// RNG seed for the fault draws (the ack link uses `net_seed ^ 0xACED`).
    pub net_seed: u64,
    /// The reliability layer; `None` sends each message once.
    pub reliable: Option<Retransmit>,
}

impl Default for LinkConfig {
    /// Instant, lossless delivery: the paper's simulation setup.
    fn default() -> Self {
        LinkConfig { faults: FaultConfig::reliable(SimDuration::ZERO), net_seed: 1, reliable: None }
    }
}

/// Engine configuration shared by all policies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// The staleness bound `T` (also the TTL and the batching interval).
    pub staleness_bound: SimDuration,
    /// Cache capacity and eviction.
    pub cache: CacheConfig,
    /// Cost model.
    pub cost: CostModel,
    /// Simulated key size in bytes (for byte-scaled cost models).
    pub key_size: u32,
    /// The store→cache link.
    pub link: LinkConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            staleness_bound: SimDuration::from_secs(1),
            cache: CacheConfig { capacity: Capacity::Entries(512), eviction: EvictionPolicy::Lru },
            cost: CostModel::default(),
            key_size: 16,
            link: LinkConfig::default(),
        }
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Policy short name.
    pub policy: String,
    /// Workload (trace generator) name.
    pub workload: String,
    /// Staleness bound in seconds.
    pub staleness_bound_s: f64,
    /// Requests replayed.
    pub requests: u64,
    /// Reads replayed.
    pub reads: u64,
    /// Writes replayed.
    pub writes: u64,
    /// Total freshness cost `C_F` (cost units).
    pub cf_total: f64,
    /// Staleness events `C_S` (stale-data misses).
    pub cs_events: u64,
    /// `C'_F` — `C_F` over useful read cost.
    pub cf_normalized: f64,
    /// `C'_S` — stale-miss ratio over present reads.
    pub cs_normalized: f64,
    /// Event counts and per-component costs.
    pub breakdown: CostBreakdown,
    /// Cache counters.
    pub cache: CacheStats,
    /// Backend reads served.
    pub store_reads: u64,
    /// Backend writes applied.
    pub store_writes: u64,
    /// Invalidates suppressed by backend tracking.
    pub tracker_suppressed: u64,
    /// Writes coalesced in the interval buffer.
    pub buffer_coalesced: u64,
    /// Messages skipped thanks to cache-state knowledge.
    pub mirror_skipped: u64,
    /// Estimator memory at end of run (adaptive policies).
    pub estimator_memory_bytes: Option<usize>,
    /// `(updates, invalidates)` decided by the adaptive policy.
    pub adaptive_decisions: Option<(u64, u64)>,
    /// Reads served as fresh whose data misses a write older than the
    /// bound, judged against the store's write history.
    pub violations: u64,
    /// Worst overage beyond the bound among the violations, in seconds.
    pub max_overage_s: f64,
    /// Counters of the store→cache link.
    pub net: NetStats,
    /// Retransmissions sent by the reliability layer.
    pub retransmissions: u64,
    /// Messages abandoned after the retry budget.
    pub gave_up: u64,
    /// Duplicate messages suppressed at the cache.
    pub duplicates_suppressed: u64,
}

impl RunReport {
    /// Fraction of reads that silently violated the bound.
    pub fn violation_ratio(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.violations as f64 / self.reads as f64
        }
    }
}

/// Events the engine schedules between requests.
enum EngineEvent {
    /// Interval boundary: flush the write buffer onto the link.
    Flush,
    /// TTL-polling refresh for a key (with a generation guard so evicted
    /// and re-inserted entries don't double their polling chains).
    Refresh { key: u64, generation: u64 },
    /// A freshness message (or, store-bound, an ack) arrives. Boxed so
    /// the scheduler's heap entries stay small for the common events.
    Deliver(Box<Message>),
    /// Resend the messages whose retransmission timeout has passed.
    RetransmitCheck,
}

/// Every write's time per key, recorded as the store applies it: the
/// ground truth a served version is judged against. Store versions are
/// dense per key, so a key's log is indexed by version − 1. Each key's
/// slots are reserved from the trace up front, in one allocation, plus
/// one; a slot not yet written reads `SimTime::MAX` (no write to miss).
struct WriteLog {
    /// key → (offset of its slots in `times`, writes recorded so far).
    keys: HashMap<u64, (usize, usize), SplitMixBuild>,
    times: Vec<SimTime>,
}

impl WriteLog {
    fn for_trace(trace: &Trace) -> Self {
        let mut keys: HashMap<u64, (usize, usize), SplitMixBuild> = HashMap::default();
        for req in trace.iter().filter(|r| r.op == Op::Write) {
            keys.entry(req.key.0).or_default().1 += 1;
        }
        let mut total = 0;
        for slot in keys.values_mut() {
            let writes = slot.1;
            *slot = (total, 0);
            total += writes + 1;
        }
        WriteLog { keys, times: vec![SimTime::MAX; total] }
    }

    fn record(&mut self, key: u64, version: u64, at: SimTime) {
        let (offset, len) = self.keys.get_mut(&key).expect("every write comes from the trace");
        debug_assert_eq!(*len as u64 + 1, version, "store versions are dense per key");
        self.times[*offset + *len] = at;
        *len += 1;
    }

    /// Time of the first write that `version` does not reflect
    /// (`SimTime::MAX` if there is none yet).
    fn first_unreflected(&self, key: u64, version: u64) -> SimTime {
        let slots = self.keys.get(&key);
        slots.map_or(SimTime::MAX, |&(offset, _)| self.times[offset + version as usize])
    }
}

/// The trace-driven engine.
pub struct TraceEngine {
    config: EngineConfig,
    policy_config: PolicyConfig,
}

impl TraceEngine {
    /// New engine.
    pub fn new(config: EngineConfig, policy: PolicyConfig) -> Self {
        assert!(!config.staleness_bound.is_zero(), "staleness bound must be positive");
        TraceEngine { config, policy_config: policy }
    }

    /// Replay `trace` and report costs.
    pub fn run(&self, trace: &Trace) -> RunReport {
        let cfg = &self.config;
        let t = cfg.staleness_bound;
        let horizon = if trace.meta().horizon.is_zero() {
            trace.end_time()
        } else {
            SimTime::ZERO + trace.meta().horizon
        };
        let rule = match self.policy_config {
            PolicyConfig::TtlExpiry | PolicyConfig::TtlPolling => Rule::Off,
            PolicyConfig::AlwaysInvalidate => Rule::Static(FlushDecision::Invalidate),
            PolicyConfig::AlwaysUpdate => Rule::Static(FlushDecision::Update),
            PolicyConfig::Adaptive(est) => {
                Rule::Adaptive { policy: AdaptivePolicy::new(est.build()), mirror: None }
            }
            PolicyConfig::AdaptiveCacheState(est) => {
                let mirror = Some(CacheStateMirror::new());
                Rule::Adaptive { policy: AdaptivePolicy::new(est.build()), mirror }
            }
            PolicyConfig::AdaptiveSlo { staleness_slo } => {
                Rule::Slo(SloAdaptivePolicy::new(staleness_slo))
            }
            // Opt. decides through the flush hook; the rule never runs.
            PolicyConfig::Oracle => Rule::Static(FlushDecision::Nothing),
        };
        let oracle = matches!(self.policy_config, PolicyConfig::Oracle)
            .then(|| OraclePolicy::new(trace, t));
        let link = cfg.link;
        let mut run = Run {
            cfg,
            horizon,
            policy: self.policy_config,
            backend: Backend::new(rule),
            oracle,
            cache: SlabCache::with_config(cfg.cache),
            meters: CostMeters::new(),
            sched: Scheduler::new(),
            generations: HashMap::default(),
            net: SimNetwork::new(link.faults, link.net_seed),
            ack_net: SimNetwork::new(link.faults, link.net_seed ^ 0xACED),
            sender: link.reliable.map(|r| ReliableSender::new(r.rto, r.max_retries)),
            dedup: DedupReceiver::new(),
            writes: WriteLog::for_trace(trace),
            violations: 0,
            max_overage: SimDuration::ZERO,
        };
        if self.policy_config.reacts_to_writes() {
            run.sched.schedule(SimTime::ZERO + t, EngineEvent::Flush);
        }
        for req in trace {
            // Events due at or before this request run first (a flush at
            // exactly `at` covers the *previous* interval).
            run.advance(req.at);
            let size = ObjectSize { key: cfg.key_size, value: req.value_size };
            match req.op {
                Op::Read => run.read(req.at, req.key.0, size),
                Op::Write => run.write(req.at, req.key.0, req.value_size),
            }
        }
        // Drain events through the horizon so trailing flushes (and their
        // costs) are accounted.
        run.advance(horizon);
        run.report(self.policy_config, trace)
    }
}

/// One run's state.
struct Run<'a> {
    cfg: &'a EngineConfig,
    horizon: SimTime,
    policy: PolicyConfig,
    backend: Backend,
    /// Opt. reads the trace's future, so it stays here and decides
    /// through the backend's flush hook.
    oracle: Option<OraclePolicy>,
    cache: SlabCache,
    meters: CostMeters,
    sched: Scheduler<EngineEvent>,
    /// Each key's TTL-polling generation, bumped at every cold insert
    /// and kept across evictions: a chain scheduled before an eviction
    /// never matches again, so a re-read key polls on one chain.
    generations: HashMap<u64, u64, SplitMixBuild>,
    net: SimNetwork,
    ack_net: SimNetwork,
    /// `Some` iff the link is reliable.
    sender: Option<ReliableSender>,
    dedup: DedupReceiver,
    writes: WriteLog,
    violations: u64,
    max_overage: SimDuration,
}

impl Run<'_> {
    #[inline]
    fn advance(&mut self, until: SimTime) {
        while let Some((now, ev)) = self.sched.pop_until(until) {
            match ev {
                EngineEvent::Flush => self.flush(now),
                EngineEvent::Refresh { key, generation } => self.refresh(now, key, generation),
                EngineEvent::Deliver(msg) => self.deliver(now, *msg),
                EngineEvent::RetransmitCheck => {
                    let sender = self.sender.as_mut().expect("only a reliable link retransmits");
                    for msg in sender.due(now) {
                        for d in self.net.send(now, msg) {
                            self.sched.schedule(d.at, EngineEvent::Deliver(Box::new(d.msg)));
                        }
                    }
                    if let Some(deadline) = sender.next_deadline() {
                        self.sched.schedule(deadline, EngineEvent::RetransmitCheck);
                    }
                }
            }
        }
    }

    /// Interval boundary: the backend decides per dirty key; meter what
    /// is sent and send one invalidate and one update frame over the link.
    fn flush(&mut self, now: SimTime) {
        let cfg = self.cfg;
        let (cache, oracle) = (&self.cache, &mut self.oracle);
        let hook = |key, size, tracker: &InvalidationTracker| {
            let oracle = oracle.as_mut()?;
            let invalidated = tracker.is_invalidated(key);
            Some(oracle.decide(key, now, cache.contains(key), invalidated, &cfg.cost, size))
        };
        let batch = self.backend.drain(&cfg.cost, cfg.key_size, 1, |_| 0, hook).pop();
        let Batch { invalidate, update } = batch.expect("one part");
        let keys: Vec<u64> = invalidate
            .into_iter()
            .map(|(key, rec)| {
                let size = ObjectSize { key: cfg.key_size, value: rec.value_size };
                self.meters.on_invalidate_sent(cfg.cost.invalidate_cost(size));
                key
            })
            .collect();
        let items: Vec<UpdateItem> = update
            .into_iter()
            .map(|(key, rec)| {
                let size = ObjectSize { key: cfg.key_size, value: rec.value_size };
                self.meters.on_update_sent(cfg.cost.update_cost(size));
                // The simulator never reads value bytes; zeroes() slices
                // a shared buffer, so the size costs nothing.
                let value = fresca_net::payload::zeroes(rec.value_size as usize);
                UpdateItem { key, version: rec.version, value }
            })
            .collect();
        if !keys.is_empty() {
            self.send(now, |seq| Message::Invalidate { seq, keys });
        }
        if !items.is_empty() {
            self.send(now, |seq| Message::Update { seq, items });
        }
        self.next_interval(now, EngineEvent::Flush);
    }

    /// Send a sequenced frame (sequence 0 on an unreliable link).
    fn send(&mut self, now: SimTime, frame: impl FnOnce(u64) -> Message) {
        let msg = frame(self.sender.as_mut().map_or(0, |s| s.next_seq()));
        if let (Some(sender), Some(r)) = (&mut self.sender, self.cfg.link.reliable) {
            sender.track(msg.clone(), now);
            self.sched.schedule(now + r.rto, EngineEvent::RetransmitCheck);
        }
        for d in self.net.send(now, msg) {
            self.sched.schedule(d.at, EngineEvent::Deliver(Box::new(d.msg)));
        }
    }

    /// The cache applies a delivered freshness message (the store takes
    /// an ack).
    fn deliver(&mut self, now: SimTime, msg: Message) {
        if let Message::Ack { seq } = msg {
            self.sender.as_mut().expect("only a reliable link acks").on_ack(seq);
            return;
        }
        if let (Some(_), Some(seq)) = (&self.sender, msg.seq()) {
            // Always (re-)ack; apply only if new.
            for d in self.ack_net.send(now, Message::Ack { seq }) {
                self.sched.schedule(d.at, EngineEvent::Deliver(Box::new(d.msg)));
            }
            if !self.dedup.observe(seq) {
                return;
            }
        }
        match msg {
            Message::Invalidate { keys, .. } => {
                for key in keys {
                    self.cache.apply_invalidate(key);
                }
            }
            Message::Update { items, .. } => {
                for UpdateItem { key, version, value } in items {
                    // Version guard: a delayed update must not overwrite
                    // newer data installed by a re-fetch.
                    let newer = self.cache.peek(key).is_some_and(|e| e.version > version);
                    if !newer && self.cache.apply_update_value(key, version, value, now, None) {
                        self.backend.refreshed(key);
                    }
                }
            }
            _ => {}
        }
    }

    fn refresh(&mut self, now: SimTime, key: u64, generation: u64) {
        if self.generations.get(&key) == Some(&generation) && self.cache.contains(key) {
            let value_size = self.cache.peek(key).map_or(0, |e| e.value.len() as u32);
            let size = ObjectSize { key: self.cfg.key_size, value: value_size };
            self.meters.on_polling_refresh(self.cfg.cost.miss_cost(size));
            let rec = self.backend.fetched(key, value_size);
            self.cache.apply_refresh(key, rec.version, now, None);
            self.next_interval(now, EngineEvent::Refresh { key, generation });
        }
    }

    /// Schedule `ev` one interval after `now`, if that is within the horizon.
    fn next_interval(&mut self, now: SimTime, ev: EngineEvent) {
        let next = now + self.cfg.staleness_bound;
        if next <= self.horizon {
            self.sched.schedule(next, ev);
        }
    }

    #[inline]
    fn read(&mut self, now: SimTime, key: u64, size: ObjectSize) {
        let cfg = self.cfg;
        self.meters.on_read(cfg.cost.hit_cost(size));
        self.backend.on_read(key);
        let expires = match self.policy {
            PolicyConfig::TtlExpiry => Some(now + cfg.staleness_bound),
            _ => None,
        };
        let cold = match self.cache.get(key, now) {
            GetResult::FreshHit(entry) => {
                // Served as fresh: judge it against the write history.
                let age = now.saturating_since(self.writes.first_unreflected(key, entry.version));
                if age > cfg.staleness_bound {
                    self.violations += 1;
                    self.max_overage = self.max_overage.max(age - cfg.staleness_bound);
                }
                return;
            }
            GetResult::StaleMiss(_) => {
                self.meters.on_stale_fetch(cfg.cost.miss_cost(size));
                false
            }
            GetResult::ColdMiss => {
                self.meters.on_cold_fetch();
                true
            }
        };
        let rec = self.backend.fetched(key, size.value);
        let value = fresca_net::payload::zeroes(rec.value_size as usize);
        self.cache.insert_with(key, rec.version, value, now, expires, |k| self.backend.on_evict(k));
        if !cold {
            return;
        }
        self.backend.on_populate(key);
        if matches!(self.policy, PolicyConfig::TtlPolling) {
            let generation = self.generations.entry(key).or_insert(0);
            *generation += 1;
            let generation = *generation;
            self.next_interval(now, EngineEvent::Refresh { key, generation });
        }
    }

    #[inline]
    fn write(&mut self, now: SimTime, key: u64, value_size: u32) {
        let rec = self.backend.write(key, value_size, now);
        self.writes.record(key, rec.version, now);
    }

    fn report(self, policy_config: PolicyConfig, trace: &Trace) -> RunReport {
        let cache_stats = self.cache.stats();
        let rule = self.backend.rule();
        let (estimator_memory_bytes, mirror_skipped) = match rule {
            Rule::Adaptive { policy, mirror } => (
                Some(policy.estimator().memory_bytes()),
                mirror.as_ref().map_or(0, CacheStateMirror::skipped),
            ),
            Rule::Slo(policy) => (Some(policy.memory_bytes()), 0),
            Rule::Off | Rule::Static(_) => (None, 0),
        };
        let store = self.backend.store().stats();
        RunReport {
            policy: policy_config.name().into(),
            workload: trace.meta().generator.clone(),
            staleness_bound_s: self.cfg.staleness_bound.as_secs_f64(),
            requests: trace.len() as u64,
            reads: trace.num_reads() as u64,
            writes: trace.num_writes() as u64,
            cf_total: self.meters.cf_total(),
            cs_events: self.meters.cs_total(),
            cf_normalized: self.meters.cf_normalized(),
            cs_normalized: self.meters.cs_normalized(cache_stats.present_reads()),
            breakdown: self.meters.breakdown(),
            cache: cache_stats,
            store_reads: store.reads,
            store_writes: store.writes,
            tracker_suppressed: self.backend.tracker().suppressed(),
            buffer_coalesced: self.backend.buffer().coalesced(),
            mirror_skipped,
            estimator_memory_bytes,
            adaptive_decisions: rule.decision_counts(),
            violations: self.violations,
            max_overage_s: self.max_overage.as_secs_f64(),
            net: self.net.stats(),
            retransmissions: self.sender.as_ref().map_or(0, |s| s.retransmissions()),
            gave_up: self.sender.as_ref().map_or(0, |s| s.gave_up()),
            duplicates_suppressed: self.dedup.duplicates(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fresca_workload::request::TraceMeta;
    use fresca_workload::{Key, Request};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn config(bound_ms: u64) -> EngineConfig {
        EngineConfig {
            staleness_bound: SimDuration::from_millis(bound_ms),
            cache: CacheConfig { capacity: Capacity::Entries(64), eviction: EvictionPolicy::Lru },
            cost: CostModel::unit(1.0, 0.1, 0.5, 1.0),
            key_size: 16,
            link: LinkConfig::default(),
        }
    }

    fn mk_trace(reqs: Vec<Request>, horizon_ms: u64) -> Trace {
        Trace::from_sorted(
            TraceMeta {
                generator: "hand".into(),
                seed: 0,
                num_keys: 16,
                horizon: SimDuration::from_millis(horizon_ms),
            },
            reqs,
        )
    }

    /// read at 0 (cold), write at 10, read at 50 — all inside one T=100ms
    /// interval, then read at 150 (next interval).
    fn canonical_trace() -> Trace {
        mk_trace(
            vec![
                Request::read(t(0), Key(1), 100),
                Request::write(t(10), Key(1), 100),
                Request::read(t(50), Key(1), 100),
                Request::read(t(150), Key(1), 100),
            ],
            300,
        )
    }

    #[test]
    fn invalidate_policy_canonical_sequence() {
        let report = TraceEngine::new(config(100), PolicyConfig::AlwaysInvalidate)
            .run(&canonical_trace());
        // Read@0: cold miss. Read@50: within-interval, entry still valid
        // (fresh within bound). Flush@100: invalidate (c_i = 0.1).
        // Read@150: stale miss (c_m = 1.0).
        assert_eq!(report.cache.cold_misses, 1);
        assert_eq!(report.cs_events, 1);
        assert_eq!(report.breakdown.invalidates_sent, 1);
        assert!((report.cf_total - 1.1).abs() < 1e-12, "cf = {}", report.cf_total);
        // C'_S: stale misses / present reads = 1 / 2.
        assert!((report.cs_normalized - 0.5).abs() < 1e-12);
    }

    #[test]
    fn update_policy_canonical_sequence() {
        let report =
            TraceEngine::new(config(100), PolicyConfig::AlwaysUpdate).run(&canonical_trace());
        // Flush@100 sends one update (c_u = 0.5); read@150 hits fresh.
        assert_eq!(report.cs_events, 0);
        assert_eq!(report.breakdown.updates_sent, 1);
        assert!((report.cf_total - 0.5).abs() < 1e-12);
        assert_eq!(report.cache.fresh_hits, 2);
    }

    #[test]
    fn ttl_expiry_canonical_sequence() {
        let report =
            TraceEngine::new(config(100), PolicyConfig::TtlExpiry).run(&canonical_trace());
        // Entry fetched at 0 expires at 100. Read@50 hits. Read@150: the
        // entry is expired → stale miss, re-fetch (c_m = 1).
        assert_eq!(report.cs_events, 1);
        assert_eq!(report.breakdown.invalidates_sent, 0);
        assert_eq!(report.breakdown.updates_sent, 0);
        assert!((report.cf_total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ttl_polling_refreshes_every_interval() {
        // One cold read at 0, horizon 300ms, T = 100ms → polls at 100,
        // 200, 300 (3 refreshes, each c_m = 1).
        let trace = mk_trace(vec![Request::read(t(0), Key(1), 100)], 300);
        let report = TraceEngine::new(config(100), PolicyConfig::TtlPolling).run(&trace);
        assert_eq!(report.breakdown.polling_refreshes, 3);
        assert_eq!(report.cs_events, 0);
        assert!((report.cf_total - 3.0).abs() < 1e-12);
    }

    #[test]
    fn polling_stops_after_eviction() {
        // Cache of 1 entry: key 1 polled, then key 2 evicts key 1.
        let mut cfg = config(100);
        cfg.cache.capacity = Capacity::Entries(1);
        let trace = mk_trace(
            vec![Request::read(t(0), Key(1), 8), Request::read(t(10), Key(2), 8)],
            500,
        );
        let report = TraceEngine::new(cfg, PolicyConfig::TtlPolling).run(&trace);
        // Key 1's chain dies at eviction; only key 2 polls: at 110..510 →
        // 4 in-horizon refreshes (110, 210, 310, 410).
        assert_eq!(report.breakdown.polling_refreshes, 4);
    }

    #[test]
    fn a_key_evicted_and_read_again_polls_on_one_chain() {
        // Cache of 1 entry: k1 at 0, k2 at 10 evicts it, k1 at 20 evicts
        // k2 and comes back. k1's first chain (due at 100) must stay
        // dead: only the new one polls, at 120, 220, 320 and 420.
        let mut cfg = config(100);
        cfg.cache.capacity = Capacity::Entries(1);
        let trace = mk_trace(
            vec![
                Request::read(t(0), Key(1), 8),
                Request::read(t(10), Key(2), 8),
                Request::read(t(20), Key(1), 8),
            ],
            500,
        );
        let report = TraceEngine::new(cfg, PolicyConfig::TtlPolling).run(&trace);
        assert_eq!(report.breakdown.polling_refreshes, 4);
    }

    #[test]
    fn tracker_suppresses_repeat_invalidates() {
        // Two writes in two consecutive intervals, no reads in between:
        // the second flush must not send a second invalidate.
        let trace = mk_trace(
            vec![
                Request::read(t(0), Key(1), 8),
                Request::write(t(10), Key(1), 8),
                Request::write(t(110), Key(1), 8),
                Request::read(t(250), Key(1), 8),
            ],
            400,
        );
        let report =
            TraceEngine::new(config(100), PolicyConfig::AlwaysInvalidate).run(&trace);
        assert_eq!(report.breakdown.invalidates_sent, 1, "tracking dedups");
        assert_eq!(report.tracker_suppressed, 1);
        assert_eq!(report.cs_events, 1, "single stale miss at the read");
    }

    #[test]
    fn buffer_coalesces_within_interval() {
        let trace = mk_trace(
            vec![
                Request::write(t(10), Key(1), 8),
                Request::write(t(20), Key(1), 8),
                Request::write(t(30), Key(1), 8),
            ],
            200,
        );
        let report = TraceEngine::new(config(100), PolicyConfig::AlwaysUpdate).run(&trace);
        assert_eq!(report.breakdown.updates_sent, 1, "one update per interval per key");
        assert_eq!(report.buffer_coalesced, 2);
    }

    #[test]
    fn update_of_uncached_key_costs_but_does_nothing() {
        let trace = mk_trace(vec![Request::write(t(10), Key(1), 8)], 200);
        let report = TraceEngine::new(config(100), PolicyConfig::AlwaysUpdate).run(&trace);
        assert_eq!(report.breakdown.updates_sent, 1);
        assert_eq!(report.cache.updates_missed, 1);
        assert!((report.cf_total - 0.5).abs() < 1e-12, "cost paid even though absent");
    }

    #[test]
    fn cache_state_mirror_skips_uncached_keys() {
        let trace = mk_trace(vec![Request::write(t(10), Key(1), 8)], 200);
        let report = TraceEngine::new(
            config(100),
            PolicyConfig::AdaptiveCacheState(EstimatorConfig::Exact),
        )
        .run(&trace);
        assert_eq!(report.breakdown.updates_sent, 0);
        assert_eq!(report.breakdown.invalidates_sent, 0);
        assert_eq!(report.mirror_skipped, 1);
        assert_eq!(report.cf_total, 0.0);
    }

    #[test]
    fn oracle_defers_when_no_read_follows() {
        let trace = mk_trace(
            vec![Request::read(t(0), Key(1), 8), Request::write(t(10), Key(1), 8)],
            300,
        );
        let report = TraceEngine::new(config(100), PolicyConfig::Oracle).run(&trace);
        assert_eq!(report.cf_total, 0.0, "no future read → nothing to keep fresh");
        assert_eq!(report.cs_events, 0);
    }

    #[test]
    fn oracle_never_worse_than_static_policies() {
        use fresca_workload::{PoissonZipfConfig, WorkloadGen};
        let trace = PoissonZipfConfig {
            rate: 50.0,
            num_keys: 50,
            read_ratio: 0.8,
            horizon: SimDuration::from_secs(200),
            ..Default::default()
        }
        .generate(5);
        let cfg = config(1000);
        let oracle = TraceEngine::new(cfg, PolicyConfig::Oracle).run(&trace);
        for policy in [PolicyConfig::AlwaysInvalidate, PolicyConfig::AlwaysUpdate] {
            let other = TraceEngine::new(cfg, policy).run(&trace);
            assert!(
                oracle.cf_total <= other.cf_total + 1e-9,
                "oracle {} vs {} {}",
                oracle.cf_total,
                other.policy,
                other.cf_total
            );
        }
    }

    #[test]
    fn slo_policy_bounds_staleness() {
        use fresca_workload::{PoissonZipfConfig, WorkloadGen};
        // Write-heavy workload where pure invalidation produces a large
        // stale-miss ratio; the SLO policy must trade throughput to keep
        // C'_S under the bound.
        // r = 0.3 sits below the throughput threshold c_u/(c_m+c_i) ≈
        // 0.45, so only the SLO clause can force updates.
        let trace = PoissonZipfConfig {
            rate: 40.0,
            num_keys: 40,
            read_ratio: 0.3,
            horizon: SimDuration::from_secs(500),
            ..Default::default()
        }
        .generate(17);
        // T = 100 ms: the SLO rule is the paper's T→0 formula, so test it
        // in the regime where that limit is accurate.
        let cfg = config(100);
        let inv = TraceEngine::new(cfg, PolicyConfig::AlwaysInvalidate).run(&trace);
        assert!(inv.cs_normalized > 0.1, "baseline staleness {}", inv.cs_normalized);
        let tight = TraceEngine::new(
            cfg,
            PolicyConfig::AdaptiveSlo { staleness_slo: 0.01 },
        )
        .run(&trace);
        assert!(
            tight.cs_normalized <= 0.01 + 1e-9,
            "SLO 1%: measured {}",
            tight.cs_normalized
        );
        // A loose SLO recovers invalidation's lower freshness cost.
        let loose = TraceEngine::new(
            cfg,
            PolicyConfig::AdaptiveSlo { staleness_slo: 0.9 },
        )
        .run(&trace);
        assert!(loose.cf_total < tight.cf_total, "loose SLO must cost less");
    }

    #[test]
    fn deterministic_runs() {
        use fresca_workload::{PoissonZipfConfig, WorkloadGen};
        let trace = PoissonZipfConfig {
            horizon: SimDuration::from_secs(100),
            ..Default::default()
        }
        .generate(9);
        let cfg = config(500);
        let a = TraceEngine::new(cfg, PolicyConfig::adaptive()).run(&trace);
        let b = TraceEngine::new(cfg, PolicyConfig::adaptive()).run(&trace);
        assert_eq!(a.cf_total, b.cf_total);
        assert_eq!(a.cs_events, b.cs_events);
        assert_eq!(a.breakdown, b.breakdown);
    }

    #[test]
    fn read_heavy_adaptive_behaves_like_update() {
        use fresca_workload::{PoissonZipfConfig, WorkloadGen};
        let trace = PoissonZipfConfig {
            rate: 20.0,
            num_keys: 20,
            read_ratio: 0.95,
            horizon: SimDuration::from_secs(500),
            ..Default::default()
        }
        .generate(3);
        let cfg = config(1000);
        let adaptive =
            TraceEngine::new(cfg, PolicyConfig::Adaptive(EstimatorConfig::Exact)).run(&trace);
        let (upd, inv) = adaptive.adaptive_decisions.unwrap();
        assert!(upd > 10 * inv.max(1), "read-heavy keys should update: {upd} vs {inv}");
    }

    #[test]
    fn write_heavy_adaptive_behaves_like_invalidate() {
        use fresca_workload::{PoissonZipfConfig, WorkloadGen};
        let trace = PoissonZipfConfig {
            rate: 20.0,
            num_keys: 20,
            read_ratio: 0.1,
            horizon: SimDuration::from_secs(500),
            ..Default::default()
        }
        .generate(3);
        let cfg = config(1000);
        let adaptive =
            TraceEngine::new(cfg, PolicyConfig::Adaptive(EstimatorConfig::Exact)).run(&trace);
        let (upd, inv) = adaptive.adaptive_decisions.unwrap();
        assert!(inv > upd, "write-heavy keys should invalidate: {inv} vs {upd}");
    }

    fn lossy_workload() -> Trace {
        use fresca_workload::{PoissonZipfConfig, WorkloadGen};
        PoissonZipfConfig {
            rate: 50.0,
            num_keys: 50,
            zipf_exponent: 1.0,
            read_ratio: 0.8,
            horizon: SimDuration::from_secs(300),
            ..Default::default()
        }
        .generate(11)
    }

    fn lossy_config(drop: f64, reliable: bool) -> EngineConfig {
        EngineConfig {
            link: LinkConfig {
                faults: FaultConfig { drop_prob: drop, ..FaultConfig::default() },
                net_seed: 42,
                reliable: reliable
                    .then_some(Retransmit { rto: SimDuration::from_millis(50), max_retries: 8 }),
            },
            ..EngineConfig::default()
        }
    }

    #[test]
    fn lossless_link_has_no_violations() {
        let trace = lossy_workload();
        for policy in [PolicyConfig::AlwaysInvalidate, PolicyConfig::AlwaysUpdate] {
            let r = TraceEngine::new(lossy_config(0.0, false), policy).run(&trace);
            assert_eq!(r.violations, 0, "{}: {:?}", r.policy, r.violations);
            assert_eq!(r.net.dropped, 0);
        }
    }

    #[test]
    fn lossy_link_causes_violations_without_reliability() {
        let trace = lossy_workload();
        let r = TraceEngine::new(lossy_config(0.3, false), PolicyConfig::AlwaysInvalidate)
            .run(&trace);
        assert!(r.net.dropped > 0);
        assert!(
            r.violations > 0,
            "dropped invalidates must produce bound violations (dropped {})",
            r.net.dropped
        );
        assert!(r.max_overage_s > 0.0);
    }

    #[test]
    fn reliability_layer_restores_the_bound() {
        let trace = lossy_workload();
        let lossy = TraceEngine::new(lossy_config(0.3, false), PolicyConfig::AlwaysInvalidate)
            .run(&trace);
        let fixed = TraceEngine::new(lossy_config(0.3, true), PolicyConfig::AlwaysInvalidate)
            .run(&trace);
        assert!(fixed.retransmissions > 0, "retransmissions expected under loss");
        assert!(
            fixed.violations * 10 < lossy.violations.max(1),
            "reliable {} vs lossy {}",
            fixed.violations,
            lossy.violations
        );
    }

    #[test]
    fn ttl_expiry_is_immune_to_loss() {
        let trace = lossy_workload();
        let r = TraceEngine::new(lossy_config(0.5, false), PolicyConfig::TtlExpiry).run(&trace);
        assert_eq!(r.violations, 0, "TTL freshness is local; loss cannot violate it");
        assert_eq!(r.net.sent, 0, "no freshness messages at all");
    }

    #[test]
    fn duplicates_are_suppressed_when_reliable() {
        let trace = lossy_workload();
        let mut cfg = lossy_config(0.0, true);
        cfg.link.faults.duplicate_prob = 0.5;
        let r = TraceEngine::new(cfg, PolicyConfig::AlwaysUpdate).run(&trace);
        assert!(r.duplicates_suppressed > 0);
        assert_eq!(r.violations, 0);
    }

    #[test]
    fn every_policy_runs_on_a_lossy_link() {
        let trace = lossy_workload();
        for policy in [
            PolicyConfig::TtlPolling,
            PolicyConfig::adaptive_cache_state(),
            PolicyConfig::AdaptiveSlo { staleness_slo: 0.01 },
            PolicyConfig::Oracle,
        ] {
            let a = TraceEngine::new(lossy_config(0.2, true), policy).run(&trace);
            let b = TraceEngine::new(lossy_config(0.2, true), policy).run(&trace);
            assert_eq!(a.violations, b.violations, "{}", a.policy);
            assert_eq!(a.net, b.net, "{}", a.policy);
            assert_eq!(a.cf_total, b.cf_total, "{}", a.policy);
        }
    }

    #[test]
    fn lossy_runs_are_deterministic_given_the_seed() {
        let trace = lossy_workload();
        let a = TraceEngine::new(lossy_config(0.2, true), PolicyConfig::AlwaysInvalidate)
            .run(&trace);
        let b = TraceEngine::new(lossy_config(0.2, true), PolicyConfig::AlwaysInvalidate)
            .run(&trace);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.net, b.net);
        assert_eq!(a.retransmissions, b.retransmissions);
    }
}
