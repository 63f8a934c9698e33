//! Deterministic simulated network with fault injection.
//!
//! The network is *passive*: [`SimNetwork::send`] returns the deliveries
//! (delay-shifted, possibly duplicated, possibly none if dropped) and the
//! caller schedules them on its own event queue. That keeps one source of
//! time and one source of ordering — the engine's scheduler — so runs stay
//! reproducible.
//!
//! Fault injection follows the smoltcp example-suite conventions: a drop
//! chance, a duplicate chance, and delay jitter that naturally re-orders
//! messages (a message with a long jitter draw arrives after a later
//! message with a short one).

use crate::msg::Message;
use fresca_sim::{SimDuration, SimTime, Xoshiro256PlusPlus};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Fault and delay model for one direction of a link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Base one-way propagation delay.
    pub base_delay: SimDuration,
    /// Uniform jitter added on top of the base delay (0 ⇒ FIFO link;
    /// > 0 ⇒ messages can re-order).
    pub jitter: SimDuration,
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a message is delivered twice (second copy gets an
    /// independent delay draw).
    pub duplicate_prob: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        // The paper's Figure 6a cites ~350µs of network delay; use it as
        // the round-number default one-way latency.
        FaultConfig {
            base_delay: SimDuration::from_micros(350),
            jitter: SimDuration::ZERO,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
        }
    }
}

impl FaultConfig {
    /// A perfectly reliable, zero-jitter link with the given delay.
    pub fn reliable(delay: SimDuration) -> Self {
        FaultConfig { base_delay: delay, ..Default::default() }
    }

    fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.drop_prob), "drop_prob in [0,1]");
        assert!((0.0..=1.0).contains(&self.duplicate_prob), "duplicate_prob in [0,1]");
    }
}

/// Delivery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Messages offered to the network.
    pub sent: u64,
    /// Messages dropped by fault injection.
    pub dropped: u64,
    /// Extra copies created by duplication.
    pub duplicated: u64,
    /// Deliveries produced (originals + duplicates − drops).
    pub delivered: u64,
    /// Total wire bytes of produced deliveries.
    pub bytes: u64,
}

/// A message due for delivery at `at`.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Delivery time.
    pub at: SimTime,
    /// The message.
    pub msg: Message,
}

/// Deterministic fault-injecting link.
#[derive(Debug)]
pub struct SimNetwork {
    config: FaultConfig,
    rng: Xoshiro256PlusPlus,
    stats: NetStats,
}

impl SimNetwork {
    /// New link with the given fault model and RNG seed.
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        config.validate();
        SimNetwork { config, rng: Xoshiro256PlusPlus::new(seed), stats: NetStats::default() }
    }

    /// The fault model in use.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    fn delay(&mut self) -> SimDuration {
        let jitter_ns = if self.config.jitter.is_zero() {
            0
        } else {
            self.rng.gen_range(0..=self.config.jitter.as_nanos())
        };
        self.config.base_delay + SimDuration::from_nanos(jitter_ns)
    }

    /// Offer `msg` to the link at time `now`; returns 0, 1 or 2 scheduled
    /// deliveries depending on the fault draws.
    pub fn send(&mut self, now: SimTime, msg: Message) -> Vec<Delivery> {
        self.stats.sent += 1;
        let mut out = Vec::with_capacity(1);
        if self.rng.gen::<f64>() < self.config.drop_prob {
            self.stats.dropped += 1;
            return out;
        }
        let first = self.delay();
        out.push(Delivery { at: now + first, msg: msg.clone() });
        if self.rng.gen::<f64>() < self.config.duplicate_prob {
            self.stats.duplicated += 1;
            let second = self.delay();
            out.push(Delivery { at: now + second, msg });
        }
        for d in &out {
            self.stats.delivered += 1;
            self.stats.bytes += d.msg.wire_size() as u64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(key: u64) -> Message {
        Message::FetchReq { key }
    }

    #[test]
    fn reliable_link_delivers_everything_in_order() {
        let mut net =
            SimNetwork::new(FaultConfig::reliable(SimDuration::from_micros(350)), 1);
        let mut deliveries = Vec::new();
        for i in 0..100 {
            let now = SimTime::from_millis(i);
            deliveries.extend(net.send(now, msg(i)));
        }
        assert_eq!(deliveries.len(), 100);
        assert!(deliveries.windows(2).all(|w| w[0].at <= w[1].at), "FIFO without jitter");
        assert_eq!(net.stats().dropped, 0);
        assert_eq!(deliveries[0].at, SimTime::from_micros(350));
    }

    #[test]
    fn drop_rate_converges() {
        let mut net = SimNetwork::new(
            FaultConfig { drop_prob: 0.3, ..FaultConfig::default() },
            7,
        );
        for i in 0..20_000 {
            net.send(SimTime::from_millis(i), msg(i));
        }
        let s = net.stats();
        let rate = s.dropped as f64 / s.sent as f64;
        assert!((rate - 0.3).abs() < 0.02, "drop rate {rate}");
        assert_eq!(s.delivered + s.dropped, s.sent);
    }

    #[test]
    fn duplicates_produce_two_deliveries() {
        let mut net = SimNetwork::new(
            FaultConfig { duplicate_prob: 1.0, ..FaultConfig::default() },
            3,
        );
        let out = net.send(SimTime::ZERO, msg(5));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].msg, out[1].msg);
        assert_eq!(net.stats().duplicated, 1);
        assert_eq!(net.stats().delivered, 2);
    }

    #[test]
    fn jitter_can_reorder() {
        let mut net = SimNetwork::new(
            FaultConfig {
                base_delay: SimDuration::from_micros(100),
                jitter: SimDuration::from_millis(10),
                ..FaultConfig::default()
            },
            11,
        );
        // Send a burst within 1ms; with 10ms jitter, arrival order almost
        // surely differs from send order.
        let mut deliveries = Vec::new();
        for i in 0..50 {
            deliveries.extend(net.send(SimTime::from_micros(i * 20), msg(i)));
        }
        let sorted = deliveries.windows(2).all(|w| w[0].at <= w[1].at);
        assert!(!sorted, "expected at least one reordering under heavy jitter");
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed| {
            let mut net = SimNetwork::new(
                FaultConfig {
                    drop_prob: 0.2,
                    duplicate_prob: 0.1,
                    jitter: SimDuration::from_micros(500),
                    ..FaultConfig::default()
                },
                seed,
            );
            (0..1000).flat_map(|i| net.send(SimTime::from_millis(i), msg(i))).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn byte_accounting_uses_wire_size() {
        let mut net = SimNetwork::new(FaultConfig::default(), 1);
        let m = Message::FetchResp { key: 1, version: 1, value: crate::payload::zeroes(100) };
        let expect = m.wire_size() as u64;
        net.send(SimTime::ZERO, m);
        assert_eq!(net.stats().bytes, expect);
    }

    #[test]
    #[should_panic(expected = "drop_prob")]
    fn rejects_invalid_probability() {
        SimNetwork::new(FaultConfig { drop_prob: 1.5, ..FaultConfig::default() }, 1);
    }
}
