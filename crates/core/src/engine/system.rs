//! The message-driven system engine (§5, open question 1).
//!
//! Same cache/store/policy components as the trace engine, but the
//! store→cache freshness path is a real [`fresca_net::SimNetwork`] link:
//! invalidate/update batches are framed messages subject to delay, drop,
//! duplication and reordering. This is the engine behind the paper's
//! closing observation — *"lost or re-ordered updates and invalidates may
//! cause a cached object to remain in a stale state in the cache
//! indefinitely"* — and behind the evaluation of the classic fix
//! (sequencing + acks + retransmission, [`fresca_net::ReliableSender`]).
//!
//! The metric that matters here is the **staleness violation**: a read
//! served as "fresh" whose data does not reflect a write older than the
//! bound `T`. Under TTLs violations are impossible (timers are local);
//! under write-reactive policies they are exactly what message loss
//! produces.

use crate::cost::{CostModel, ObjectSize};
use crate::engine::{EngineConfig, PolicyConfig};
use crate::policy::{AdaptivePolicy, FlushDecision};
use fresca_cache::{GetResult, SlabCache};
use fresca_net::{DedupReceiver, FaultConfig, Message, NetStats, ReliableSender, SimNetwork, UpdateItem};
use fresca_sim::{Scheduler, SimDuration, SimTime};
use fresca_sketch::EwEstimator;
use fresca_store::{DataStore, InvalidationTracker, WriteBuffer};
use fresca_workload::{Op, Trace};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Configuration of the system-mode run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Shared engine parameters (bound `T`, cache, cost model).
    pub engine: EngineConfig,
    /// Fault model of the store→cache freshness link.
    pub faults: FaultConfig,
    /// Enable the reliability layer (seq + ack + retransmit).
    pub reliable: bool,
    /// Retransmission timeout when `reliable` is on.
    pub rto: SimDuration,
    /// Retry budget per batch.
    pub max_retries: u32,
    /// RNG seed for the network's fault draws.
    pub net_seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            engine: EngineConfig::default(),
            faults: FaultConfig::default(),
            reliable: false,
            rto: SimDuration::from_millis(10),
            max_retries: 5,
            net_seed: 1,
        }
    }
}

/// Results of a system-mode run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemReport {
    /// Policy short name.
    pub policy: String,
    /// Whether the reliability layer was enabled.
    pub reliable: bool,
    /// Staleness bound in seconds.
    pub staleness_bound_s: f64,
    /// Reads served.
    pub reads: u64,
    /// Reads served "fresh" that violated the staleness bound.
    pub violations: u64,
    /// Worst observed overage beyond the bound, in seconds.
    pub max_overage_s: f64,
    /// Stale misses observed (the visible staleness cost).
    pub stale_misses: u64,
    /// Network counters of the freshness link.
    pub net: NetStats,
    /// Retransmissions sent by the reliability layer.
    pub retransmissions: u64,
    /// Batches abandoned after the retry budget.
    pub gave_up: u64,
    /// Duplicate batches suppressed at the cache.
    pub duplicates_suppressed: u64,
    /// Freshness messages applied by the cache (invalidate + update).
    pub messages_applied: u64,
}

/// Violation ratio over all reads.
impl SystemReport {
    /// Fraction of reads that silently violated the bound.
    pub fn violation_ratio(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.violations as f64 / self.reads as f64
        }
    }
}

enum SysPolicy {
    TtlExpiry,
    Invalidate,
    Update,
    Adaptive(AdaptivePolicy<Box<dyn EwEstimator>>),
}

#[derive(Debug)]
enum SysEvent {
    Flush,
    Deliver(Message),
    RetransmitCheck,
}

/// Per-key write history used to detect violations: `(version, at)` in
/// version order.
#[derive(Default)]
struct WriteLog {
    per_key: HashMap<u64, VecDeque<(u64, SimTime)>>,
}

impl WriteLog {
    fn record(&mut self, key: u64, version: u64, at: SimTime) {
        self.per_key.entry(key).or_default().push_back((version, at));
    }

    /// Earliest write time not reflected by `have_version`, pruning
    /// everything the cache has already caught up with.
    fn first_unreflected(&mut self, key: u64, have_version: u64) -> Option<SimTime> {
        let log = self.per_key.get_mut(&key)?;
        while log.front().is_some_and(|&(v, _)| v <= have_version) {
            log.pop_front();
        }
        log.front().map(|&(_, at)| at)
    }
}

/// The system-mode engine.
pub struct SystemEngine {
    config: SystemConfig,
    policy_config: PolicyConfig,
}

impl SystemEngine {
    /// New engine. Supported policies: TTL-expiry (message-free
    /// baseline), always-invalidate, always-update, adaptive.
    pub fn new(config: SystemConfig, policy: PolicyConfig) -> Self {
        assert!(
            !matches!(policy, PolicyConfig::Oracle | PolicyConfig::TtlPolling
                | PolicyConfig::AdaptiveCacheState(_) | PolicyConfig::AdaptiveSlo { .. }),
            "system engine supports ttl-expiry, invalidate, update and adaptive"
        );
        SystemEngine { config, policy_config: policy }
    }

    /// Replay `trace` over the lossy link.
    pub fn run(&self, trace: &Trace) -> SystemReport {
        let cfg = &self.config;
        let t = cfg.engine.staleness_bound;
        let horizon = if trace.meta().horizon.is_zero() {
            trace.end_time()
        } else {
            SimTime::ZERO + trace.meta().horizon
        };

        let mut cache = SlabCache::with_config(cfg.engine.cache);
        let mut store = DataStore::new();
        let mut buffer = WriteBuffer::new();
        let mut tracker = InvalidationTracker::new();
        let mut net = SimNetwork::new(cfg.faults, cfg.net_seed);
        let mut ack_net = SimNetwork::new(cfg.faults, cfg.net_seed ^ 0xACED);
        let mut sender = ReliableSender::new(cfg.rto, cfg.max_retries);
        let mut dedup = DedupReceiver::new();
        let mut sched: Scheduler<SysEvent> = Scheduler::new();
        let mut write_log = WriteLog::default();

        let mut policy = match self.policy_config {
            PolicyConfig::TtlExpiry => SysPolicy::TtlExpiry,
            PolicyConfig::AlwaysInvalidate => SysPolicy::Invalidate,
            PolicyConfig::AlwaysUpdate => SysPolicy::Update,
            PolicyConfig::Adaptive(est) => SysPolicy::Adaptive(AdaptivePolicy::new(est.build())),
            _ => unreachable!("checked in new()"),
        };

        let mut violations = 0u64;
        let mut max_overage = SimDuration::ZERO;
        let mut reads = 0u64;
        let mut messages_applied = 0u64;

        if !matches!(policy, SysPolicy::TtlExpiry) {
            sched.schedule(SimTime::ZERO + t, SysEvent::Flush);
        }

        let key_size = cfg.engine.key_size;
        let cost: CostModel = cfg.engine.cost;

        // Process one engine event.
        #[allow(clippy::too_many_arguments)]
        fn apply_message(
            now: SimTime,
            msg: Message,
            cache: &mut SlabCache,
            tracker: &mut InvalidationTracker,
            dedup: &mut DedupReceiver,
            reliable: bool,
            ack_net: &mut SimNetwork,
            sched: &mut Scheduler<SysEvent>,
            messages_applied: &mut u64,
        ) {
            let seq = msg.seq();
            if reliable {
                if let Some(seq) = seq {
                    // Always (re-)ack; apply only if new.
                    for d in ack_net.send(now, Message::Ack { seq }) {
                        sched.schedule(d.at, SysEvent::Deliver(d.msg));
                    }
                    if !dedup.observe(seq) {
                        return;
                    }
                }
            }
            match msg {
                Message::Invalidate { keys, .. } => {
                    for k in keys {
                        cache.apply_invalidate(k);
                        *messages_applied += 1;
                    }
                }
                Message::Update { items, .. } => {
                    for it in items {
                        // Version guard: a delayed update must not
                        // overwrite newer data installed by a re-fetch.
                        let newer = cache.peek(it.key).is_some_and(|e| e.version > it.version);
                        if !newer && cache.apply_update(it.key, it.version, it.value_size(), now, None)
                        {
                            tracker.clear(it.key);
                        }
                        *messages_applied += 1;
                    }
                }
                _ => {}
            }
        }

        let handle_event = |now: SimTime,
                                ev: SysEvent,
                                cache: &mut SlabCache,
                                store: &mut DataStore,
                                buffer: &mut WriteBuffer,
                                tracker: &mut InvalidationTracker,
                                net: &mut SimNetwork,
                                ack_net: &mut SimNetwork,
                                sender: &mut ReliableSender,
                                dedup: &mut DedupReceiver,
                                sched: &mut Scheduler<SysEvent>,
                                policy: &mut SysPolicy,
                                messages_applied: &mut u64| {
            match ev {
                SysEvent::Flush => {
                    let mut inv_keys: Vec<u64> = Vec::new();
                    let mut upd_items: Vec<UpdateItem> = Vec::new();
                    for key in buffer.drain() {
                        let rec = store.peek(key).expect("dirty key exists");
                        let size = ObjectSize { key: key_size, value: rec.value_size };
                        let decision = match policy {
                            SysPolicy::Invalidate => FlushDecision::Invalidate,
                            SysPolicy::Update => FlushDecision::Update,
                            SysPolicy::Adaptive(p) => p.decide(key, &cost, size),
                            SysPolicy::TtlExpiry => unreachable!(),
                        };
                        match decision {
                            FlushDecision::Invalidate => {
                                if tracker.should_send(key) {
                                    inv_keys.push(key);
                                }
                            }
                            FlushDecision::Update => upd_items.push(UpdateItem {
                                key,
                                version: rec.version,
                                // The simulator never reads value bytes;
                                // zeroes() slices a shared buffer so the
                                // declared size costs no allocation.
                                value: fresca_net::payload::zeroes(rec.value_size as usize),
                            }),
                            FlushDecision::Nothing => {}
                        }
                    }
                    let mut outgoing: Vec<Message> = Vec::new();
                    if !inv_keys.is_empty() {
                        let seq = if cfg.reliable { sender.next_seq() } else { 0 };
                        outgoing.push(Message::Invalidate { seq, keys: inv_keys });
                    }
                    if !upd_items.is_empty() {
                        let seq = if cfg.reliable { sender.next_seq() } else { 0 };
                        outgoing.push(Message::Update { seq, items: upd_items });
                    }
                    for msg in outgoing {
                        if cfg.reliable {
                            sender.track(msg.clone(), now);
                            sched.schedule(now + cfg.rto, SysEvent::RetransmitCheck);
                        }
                        for d in net.send(now, msg) {
                            sched.schedule(d.at, SysEvent::Deliver(d.msg));
                        }
                    }
                    let next = now + t;
                    if next <= horizon {
                        sched.schedule(next, SysEvent::Flush);
                    }
                }
                SysEvent::Deliver(msg) => match &msg {
                    Message::Ack { seq } => {
                        sender.on_ack(*seq);
                    }
                    _ => apply_message(
                        now,
                        msg,
                        cache,
                        tracker,
                        dedup,
                        cfg.reliable,
                        ack_net,
                        sched,
                        messages_applied,
                    ),
                },
                SysEvent::RetransmitCheck => {
                    for msg in sender.due(now) {
                        for d in net.send(now, msg) {
                            sched.schedule(d.at, SysEvent::Deliver(d.msg));
                        }
                    }
                    if let Some(deadline) = sender.next_deadline() {
                        sched.schedule(deadline, SysEvent::RetransmitCheck);
                    }
                }
            }
        };

        for req in trace {
            while let Some((et, ev)) = sched.pop_until(req.at) {
                handle_event(
                    et, ev, &mut cache, &mut store, &mut buffer, &mut tracker, &mut net,
                    &mut ack_net, &mut sender, &mut dedup, &mut sched, &mut policy,
                    &mut messages_applied,
                );
            }
            let now = req.at;
            let key = req.key.0;
            match req.op {
                Op::Read => {
                    reads += 1;
                    if let SysPolicy::Adaptive(p) = &mut policy {
                        p.on_read(key);
                    }
                    let expires = match policy {
                        SysPolicy::TtlExpiry => Some(now + t),
                        _ => None,
                    };
                    match cache.get(key, now) {
                        GetResult::FreshHit(entry) => {
                            // Served as fresh: check the bound against the
                            // store's write history.
                            if let Some(first) = write_log.first_unreflected(key, entry.version) {
                                let age = now.saturating_since(first);
                                if age > t {
                                    violations += 1;
                                    max_overage = max_overage.max(age - t);
                                }
                            }
                        }
                        GetResult::StaleMiss(_) | GetResult::ColdMiss => {
                            let rec = store.read(key, req.value_size);
                            cache.insert(key, rec.version, rec.value_size, now, expires);
                            tracker.clear(key);
                        }
                    }
                }
                Op::Write => {
                    let rec = store.write(key, req.value_size, now);
                    write_log.record(key, rec.version, now);
                    if let SysPolicy::Adaptive(p) = &mut policy {
                        p.on_write(key);
                    }
                    if !matches!(policy, SysPolicy::TtlExpiry) {
                        buffer.mark_dirty(key);
                    }
                }
            }
        }
        while let Some((et, ev)) = sched.pop_until(horizon) {
            handle_event(
                et, ev, &mut cache, &mut store, &mut buffer, &mut tracker, &mut net,
                &mut ack_net, &mut sender, &mut dedup, &mut sched, &mut policy,
                &mut messages_applied,
            );
        }

        SystemReport {
            policy: self.policy_config.name().into(),
            reliable: cfg.reliable,
            staleness_bound_s: t.as_secs_f64(),
            reads,
            violations,
            max_overage_s: max_overage.as_secs_f64(),
            stale_misses: cache.stats().stale_misses,
            net: net.stats(),
            retransmissions: sender.retransmissions(),
            gave_up: sender.gave_up(),
            duplicates_suppressed: dedup.duplicates(),
            messages_applied,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fresca_workload::{PoissonZipfConfig, WorkloadGen};

    fn workload() -> Trace {
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

    fn base_config(drop: f64, reliable: bool) -> SystemConfig {
        SystemConfig {
            engine: EngineConfig {
                staleness_bound: SimDuration::from_secs(1),
                ..EngineConfig::default()
            },
            faults: FaultConfig { drop_prob: drop, ..FaultConfig::default() },
            reliable,
            rto: SimDuration::from_millis(50),
            max_retries: 8,
            net_seed: 42,
        }
    }

    #[test]
    fn lossless_link_has_no_violations() {
        let trace = workload();
        for policy in [PolicyConfig::AlwaysInvalidate, PolicyConfig::AlwaysUpdate] {
            let r = SystemEngine::new(base_config(0.0, false), policy).run(&trace);
            assert_eq!(r.violations, 0, "{}: {:?}", r.policy, r.violations);
            assert_eq!(r.net.dropped, 0);
        }
    }

    #[test]
    fn lossy_link_causes_violations_without_reliability() {
        let trace = workload();
        let r = SystemEngine::new(base_config(0.3, false), PolicyConfig::AlwaysInvalidate)
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
        let trace = workload();
        let lossy = SystemEngine::new(base_config(0.3, false), PolicyConfig::AlwaysInvalidate)
            .run(&trace);
        let fixed = SystemEngine::new(base_config(0.3, true), PolicyConfig::AlwaysInvalidate)
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
        let trace = workload();
        let r = SystemEngine::new(base_config(0.5, false), PolicyConfig::TtlExpiry).run(&trace);
        assert_eq!(r.violations, 0, "TTL freshness is local; loss cannot violate it");
        assert_eq!(r.net.sent, 0, "no freshness messages at all");
    }

    #[test]
    fn duplicates_are_suppressed_when_reliable() {
        let trace = workload();
        let mut cfg = base_config(0.0, true);
        cfg.faults.duplicate_prob = 0.5;
        let r = SystemEngine::new(cfg, PolicyConfig::AlwaysUpdate).run(&trace);
        assert!(r.duplicates_suppressed > 0);
        assert_eq!(r.violations, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let trace = workload();
        let a = SystemEngine::new(base_config(0.2, true), PolicyConfig::AlwaysInvalidate)
            .run(&trace);
        let b = SystemEngine::new(base_config(0.2, true), PolicyConfig::AlwaysInvalidate)
            .run(&trace);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.net, b.net);
        assert_eq!(a.retransmissions, b.retransmissions);
    }
}
