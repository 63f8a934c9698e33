//! The store-push node: a real `fresca-store` backend that batches
//! writes and pushes `Invalidate`/`Update` batches to the cache nodes
//! owning each key.
//!
//! This is the paper's Figure-4 pipeline lifted off the simulator and
//! onto the wire. A [`StorePusher`] drives the store-side freshness
//! machinery — the shared [`OriginState`] (versioned store, §3.1
//! [`fresca_store::InvalidationTracker`], live adaptive policy) plus
//! the per-interval dirty-key [`WriteBuffer`] — over one framed TCP
//! connection per cache node, routed by the same [`HashRing`] every
//! other cluster participant computes. Writes mark keys dirty;
//! [`StorePusher::flush`] drains the buffer, partitions the dirty keys
//! by ring owner, and sends each node `Invalidate { seq, keys }` and/or
//! `Update { seq, items }` frames, then blocks for the `Ack { seq }`
//! each node owes.
//!
//! Three policies mirror the paper's §3.3 spectrum:
//!
//! * [`PushPolicy::Invalidate`] / [`PushPolicy::Update`] — the static
//!   always-invalidate and always-update policies of the simulation
//!   engines (and the original `--policy` flag, kept as an override).
//! * [`PushPolicy::Adaptive`] — per key, per flush: update iff
//!   `E[W]·c_u < c_m + c_i`, with `E[W]` estimated live from the read
//!   statistics the serving tier reports to the shared origin state.
//!   A mixed workload produces *mixed* batches — hot-read keys ride
//!   `Update` frames, write-mostly keys ride `Invalidate` frames, and
//!   both are counted in [`PushStats::decided_update`] /
//!   [`PushStats::decided_invalidate`].
//!
//! Sequence numbers are **per node** (each connection is its own
//! reliable channel, exactly like the simulation's per-link
//! `ReliableSender`), monotone from 1, assigned at send time — an
//! adaptive flush may send a node two frames (one invalidate, one
//! update), each with its own seq.
//!
//! ## Version domains
//!
//! The store's per-key versions and a cache node's serving versions are
//! *different counters*: the node allocates serving versions from its
//! own global monotone counter so the per-connection anomaly check
//! clients run (served version never regresses below an acked write)
//! stays sound even while a store pushes refreshes. A pushed
//! `UpdateItem` therefore carries the store's version as provenance,
//! but the node re-versions the refreshed entry from its own counter —
//! see `docs/PROTOCOL.md`, *Invalidate/Update on the serving path*.

use crate::origin::{OriginState, DEFAULT_ORIGIN_VALUE_SIZE};
use crate::ring::{HashRing, DEFAULT_VNODES};
use fresca_core::cost::{CostModel, ObjectSize};
use fresca_core::policy::FlushDecision;
use fresca_net::{payload, FramedStream, Message, UpdateItem};
use fresca_store::{Record, WriteBuffer};
use parking_lot::Mutex;
use serde::Serialize;
use std::io;
use std::net::TcpStream;
use std::sync::Arc;

/// What the store sends for a dirty key at flush time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushPolicy {
    /// Send key-only `Invalidate` batches: cheap, but a pushed key is
    /// refused on its owning node until something re-populates it.
    Invalidate,
    /// Send full `Update` batches: each item re-freshens the cached
    /// entry in place (absent keys are untouched, per the paper).
    Update,
    /// Decide per key from the live `E[W]` estimate (§3.3): update iff
    /// `E[W]·c_u < c_m + c_i`. Keys with no estimate yet default to
    /// update — a key nobody has read is assumed cheap to keep fresh
    /// until its write run proves otherwise.
    Adaptive,
}

impl PushPolicy {
    /// Parse a CLI spelling. `None` for anything unknown.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "invalidate" => Some(PushPolicy::Invalidate),
            "update" => Some(PushPolicy::Update),
            "adaptive" => Some(PushPolicy::Adaptive),
            _ => None,
        }
    }

    /// CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            PushPolicy::Invalidate => "invalidate",
            PushPolicy::Update => "update",
            PushPolicy::Adaptive => "adaptive",
        }
    }
}

/// Store-push configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushConfig {
    /// Invalidate, update, or per-key adaptive batches.
    pub policy: PushPolicy,
    /// Cost model the adaptive policy decides under (ignored by the
    /// static policies).
    pub cost: CostModel,
}

impl Default for PushConfig {
    fn default() -> Self {
        PushConfig {
            policy: PushPolicy::Invalidate,
            cost: CostModel::default(),
        }
    }
}

/// One acknowledged per-node batch, as returned by
/// [`StorePusher::flush`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReceipt {
    /// Address of the cache node the batch went to.
    pub node: String,
    /// Sequence number the batch carried — and the `Ack` echoed.
    pub seq: u64,
    /// Keys in the batch.
    pub keys: usize,
    /// Exact wire bytes of the batch frame (the paper's `c_i`/`c_u`
    /// cost, measured rather than modelled).
    pub wire_bytes: usize,
}

/// Cumulative counters for a pusher's lifetime. Serializes to JSON for
/// the `store-push` binary's `--json` flag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PushStats {
    /// Writes applied to the backing store.
    pub writes: u64,
    /// Interval flushes executed (including empty ones).
    pub flushes: u64,
    /// Per-node batches sent.
    pub batches: u64,
    /// Keys carried across all batches.
    pub keys_pushed: u64,
    /// Acks received (equals `batches` unless a node failed).
    pub acks: u64,
    /// Invalidate sends suppressed by the tracker (§3.1 dedup).
    pub suppressed: u64,
    /// Writes coalesced into an existing dirty mark within an interval.
    pub coalesced: u64,
    /// Total wire bytes of pushed batches.
    pub push_bytes: u64,
    /// Dirty keys the flush decided to invalidate (counted before §3.1
    /// suppression; the static invalidate policy counts every key here).
    pub decided_invalidate: u64,
    /// Dirty keys the flush decided to update.
    pub decided_update: u64,
}

/// A batch built during a flush but not yet sent: the seq is assigned
/// at send time, so an adaptive flush can give one node two frames.
#[derive(Debug)]
enum PendingBatch {
    Invalidate(Vec<u64>),
    Update(Vec<UpdateItem>),
}

impl PendingBatch {
    fn keys(&self) -> usize {
        match self {
            PendingBatch::Invalidate(keys) => keys.len(),
            PendingBatch::Update(items) => items.len(),
        }
    }
}

/// A live store node pushing freshness traffic into a cache cluster.
pub struct StorePusher {
    ring: HashRing,
    /// One blocking framed connection per ring member, aligned with
    /// `ring.nodes()`. Push traffic is strictly send-batch/await-ack, so
    /// the simple blocking transport is the right tool.
    conns: Vec<FramedStream<TcpStream>>,
    /// Next sequence number per node, starting at 1.
    next_seq: Vec<u64>,
    /// The store-side brain, shared with an origin listener when one is
    /// serving refetches for the same backend (see [`crate::origin`]).
    origin: Arc<Mutex<OriginState>>,
    buffer: WriteBuffer,
    config: PushConfig,
    stats: PushStats,
}

impl std::fmt::Debug for StorePusher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorePusher")
            .field("nodes", &self.ring.nodes())
            .field("policy", &self.config.policy)
            .field("stats", &self.stats)
            .finish()
    }
}

impl StorePusher {
    /// Connect to every cache node in `addrs` (the ring is built from
    /// the addresses as given — all cluster participants must spell
    /// them identically), with a private backend state.
    pub fn connect<S: AsRef<str>>(addrs: &[S], config: PushConfig) -> io::Result<Self> {
        let origin = Arc::new(Mutex::new(OriginState::with_default_estimator(
            DEFAULT_ORIGIN_VALUE_SIZE,
        )));
        StorePusher::connect_shared(addrs, config, origin)
    }

    /// [`StorePusher::connect`], but sharing an existing backend state —
    /// the wiring that closes the freshness loop: hand the same
    /// `Arc<Mutex<OriginState>>` to [`crate::origin::spawn`] and cache
    /// refetches clear suppression for this pusher while serving-tier
    /// read stats steer its adaptive decisions.
    pub fn connect_shared<S: AsRef<str>>(
        addrs: &[S],
        config: PushConfig,
        origin: Arc<Mutex<OriginState>>,
    ) -> io::Result<Self> {
        let ring = HashRing::try_from_members(DEFAULT_VNODES, addrs)?;
        let conns = ring
            .nodes()
            .iter()
            .map(|addr| {
                let stream = TcpStream::connect(addr.as_str())?;
                stream.set_nodelay(true)?;
                Ok(FramedStream::new(stream))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let next_seq = vec![1; conns.len()];
        Ok(StorePusher {
            ring,
            conns,
            next_seq,
            origin,
            buffer: WriteBuffer::new(),
            config,
            stats: PushStats::default(),
        })
    }

    /// The ring this pusher partitions batches by.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The shared backend state (store, tracker, adaptive policy).
    pub fn origin_state(&self) -> Arc<Mutex<OriginState>> {
        Arc::clone(&self.origin)
    }

    /// Counters so far.
    pub fn stats(&self) -> PushStats {
        let mut s = self.stats;
        s.suppressed = self.origin.lock().tracker().suppressed();
        s.coalesced = self.buffer.coalesced();
        s
    }

    /// Apply a client write to the backing store and mark the key dirty
    /// for the next flush. Returns the store's new record.
    pub fn write(&mut self, key: u64, value_size: u32) -> Record {
        let rec = self.origin.lock().write(key, value_size);
        self.buffer.mark_dirty(key);
        self.stats.writes += 1;
        rec
    }

    /// The store served a miss-path read of `key` (the cache-aside
    /// refetch after an invalidation): the backend no longer considers
    /// the key invalidated, so the *next* write triggers a fresh
    /// invalidate instead of being suppressed. Returns the store's
    /// record for the read.
    ///
    /// This is the §3.1 backchannel the tracking assumption rests on.
    /// When an origin listener serves refetches on this pusher's shared
    /// state ([`StorePusher::connect_shared`] + [`crate::origin::spawn`])
    /// the backchannel runs itself; this method remains for embedders
    /// whose refetch traffic arrives out of band.
    pub fn refetched(&mut self, key: u64, default_size: u32) -> Record {
        let mut o = self.origin.lock();
        o.refetched(key, default_size)
    }

    /// Distinct keys dirty in the current interval.
    pub fn dirty(&self) -> usize {
        self.buffer.len()
    }

    /// End-of-interval flush: drain the dirty set, partition it by ring
    /// owner, decide invalidate-vs-update for each key, send each
    /// owning node its batch(es), and block for each node's `Ack`.
    /// Returns one receipt per batch actually sent (nodes owning no
    /// dirty key this interval get nothing; §3.1 suppression may empty
    /// an invalidate batch out entirely). Under the static policies a
    /// node gets at most one frame per flush; under the adaptive policy
    /// at most two (its invalidate share and its update share).
    ///
    /// On a transport or ack error the flush stops and the error
    /// propagates — but no freshness signal is lost: the failed batch's
    /// keys and every not-yet-sent batch's keys are re-marked dirty
    /// (and their tracker entries rolled back), so the next flush
    /// resends them, reusing the failed batch's sequence number. Cache
    /// nodes apply batches idempotently, so a batch that was received
    /// but whose ack was lost is harmless to resend.
    pub fn flush(&mut self) -> io::Result<Vec<BatchReceipt>> {
        self.stats.flushes += 1;
        let dirty = self.buffer.drain();
        let mut receipts = Vec::new();
        if dirty.is_empty() {
            return Ok(receipts);
        }
        // Build every batch before sending any — under ONE lock
        // acquisition, released before the first blocking send — so a
        // mid-flush failure knows exactly which keys still need
        // pushing and a slow cache node never stalls the origin
        // listener sharing this state.
        let mut batches: Vec<(usize, PendingBatch)> = Vec::new();
        {
            let mut o = self.origin.lock();
            for (node, keys) in self.ring.partition(dirty).into_iter().enumerate() {
                if keys.is_empty() {
                    continue;
                }
                let mut inv_keys: Vec<u64> = Vec::new();
                let mut upd_items: Vec<UpdateItem> = Vec::new();
                for k in keys {
                    let rec = o.store().peek(k).expect("dirty keys were written");
                    let decision = match self.config.policy {
                        PushPolicy::Invalidate => FlushDecision::Invalidate,
                        PushPolicy::Update => FlushDecision::Update,
                        PushPolicy::Adaptive => o.decide(
                            k,
                            &self.config.cost,
                            ObjectSize { key: 8, value: rec.value_size },
                        ),
                    };
                    match decision {
                        FlushDecision::Invalidate => {
                            self.stats.decided_invalidate += 1;
                            // §3.1 tracking: a key the backend already
                            // believes invalidated needs no second
                            // invalidate until a refetch clears it.
                            if o.should_send_invalidate(k) {
                                inv_keys.push(k);
                            }
                        }
                        _ => {
                            self.stats.decided_update += 1;
                            // An update re-freshens the cached entry, so
                            // the backend no longer considers the key
                            // invalidated. The batch carries the store's
                            // real bytes: the deterministic pattern every
                            // writer uses, so checksum-verifying readers
                            // accept refreshed entries.
                            o.clear_invalidated(k);
                            upd_items.push(UpdateItem {
                                key: k,
                                version: rec.version,
                                value: payload::pattern(k, rec.value_size as usize),
                            });
                        }
                    }
                }
                if !inv_keys.is_empty() {
                    batches.push((node, PendingBatch::Invalidate(inv_keys)));
                }
                if !upd_items.is_empty() {
                    batches.push((node, PendingBatch::Update(upd_items)));
                }
            }
        }
        for i in 0..batches.len() {
            let (node, ref batch) = batches[i];
            match self.send_batch(node, batch) {
                Ok(receipt) => receipts.push(receipt),
                Err(e) => {
                    self.restore_unsent(&batches[i..]);
                    return Err(e);
                }
            }
        }
        Ok(receipts)
    }

    /// A flush failed at some batch: put the failed and never-sent
    /// batches' keys back into the dirty buffer (and roll back their
    /// invalidation-tracker marks) so the next flush carries them.
    fn restore_unsent(&mut self, unsent: &[(usize, PendingBatch)]) {
        let mut o = self.origin.lock();
        for (_, batch) in unsent {
            match batch {
                PendingBatch::Invalidate(keys) => {
                    for &k in keys {
                        o.clear_invalidated(k);
                        self.buffer.mark_dirty(k);
                    }
                }
                PendingBatch::Update(items) => {
                    for it in items {
                        self.buffer.mark_dirty(it.key);
                    }
                }
            }
        }
    }

    /// Send one batch (stamping it with the node's next seq) and block
    /// for its ack.
    fn send_batch(&mut self, node: usize, batch: &PendingBatch) -> io::Result<BatchReceipt> {
        let seq = self.next_seq[node];
        let msg = match batch {
            PendingBatch::Invalidate(keys) => Message::Invalidate { seq, keys: keys.clone() },
            PendingBatch::Update(items) => Message::Update { seq, items: items.clone() },
        };
        let keys = batch.keys();
        let wire_bytes = msg.wire_size();
        let addr = self.ring.nodes()[node].clone();
        self.conns[node].send(&msg)?;
        self.stats.batches += 1;
        self.stats.keys_pushed += keys as u64;
        self.stats.push_bytes += wire_bytes as u64;
        match self.conns[node].recv()? {
            Some(Message::Ack { seq: acked }) if acked == seq => {
                self.stats.acks += 1;
                self.next_seq[node] += 1;
                Ok(BatchReceipt { node: addr, seq, keys, wire_bytes })
            }
            Some(other) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("node {addr}: expected Ack {{ seq: {seq} }}, got {other:?}"),
            )),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("node {addr} closed before acking seq {seq}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{self, ServerConfig};
    use fresca_net::ReadStat;

    fn spawn_cluster(n: usize) -> (Vec<server::ServerHandle>, Vec<String>) {
        let handles: Vec<_> = (0..n)
            .map(|_| server::spawn("127.0.0.1:0", ServerConfig::default()).expect("bind"))
            .collect();
        let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
        (handles, addrs)
    }

    #[test]
    fn policy_parse_roundtrip() {
        assert_eq!(PushPolicy::parse("invalidate"), Some(PushPolicy::Invalidate));
        assert_eq!(PushPolicy::parse("update"), Some(PushPolicy::Update));
        assert_eq!(PushPolicy::parse("adaptive"), Some(PushPolicy::Adaptive));
        assert_eq!(PushPolicy::parse("oracle"), None);
        for p in [PushPolicy::Invalidate, PushPolicy::Update, PushPolicy::Adaptive] {
            assert_eq!(PushPolicy::parse(p.name()), Some(p));
        }
    }

    #[test]
    fn empty_flush_sends_nothing() {
        let (handles, addrs) = spawn_cluster(2);
        let mut pusher = StorePusher::connect(&addrs, PushConfig::default()).unwrap();
        assert!(pusher.flush().unwrap().is_empty());
        let stats = pusher.stats();
        assert_eq!((stats.flushes, stats.batches, stats.acks), (1, 0, 0));
        for h in handles {
            h.shutdown();
        }
    }

    #[test]
    fn invalidate_batches_are_acked_per_node_and_deduped() {
        let (handles, addrs) = spawn_cluster(2);
        let mut pusher = StorePusher::connect(&addrs, PushConfig::default()).unwrap();
        for key in 0..32u64 {
            pusher.write(key, 16);
            pusher.write(key, 16); // coalesces within the interval
        }
        let receipts = pusher.flush().unwrap();
        let pushed: usize = receipts.iter().map(|r| r.keys).sum();
        assert_eq!(pushed, 32, "every dirty key pushed exactly once");
        for r in &receipts {
            assert_eq!(r.seq, 1, "first batch on each connection");
            assert!(addrs.contains(&r.node));
        }
        // A second write burst to the same keys is fully suppressed:
        // the backend knows they are already invalidated.
        for key in 0..32u64 {
            pusher.write(key, 16);
        }
        assert!(pusher.flush().unwrap().is_empty());
        let stats = pusher.stats();
        assert_eq!(stats.acks, stats.batches);
        assert_eq!(stats.suppressed, 32);
        assert_eq!(stats.coalesced, 32);
        assert_eq!(stats.decided_invalidate, 64, "decisions counted pre-suppression");
        assert_eq!(stats.decided_update, 0);
        // The refetch backchannel clears suppression: a write after a
        // refetch triggers a fresh invalidate batch again.
        pusher.refetched(0, 16);
        pusher.write(0, 16);
        let receipts = pusher.flush().unwrap();
        assert_eq!(receipts.iter().map(|r| r.keys).sum::<usize>(), 1);
        for h in handles {
            h.shutdown();
        }
    }

    #[test]
    fn failed_flush_restores_dirty_keys_for_the_next_one() {
        let (handles, addrs) = spawn_cluster(2);
        let mut pusher = StorePusher::connect(&addrs, PushConfig::default()).unwrap();
        // Kill both nodes, then dirty keys spread across both: the flush
        // must fail — and must not lose any freshness signal doing so.
        for h in handles {
            h.shutdown();
        }
        for key in 0..32u64 {
            pusher.write(key, 16);
        }
        assert!(pusher.flush().is_err(), "flush against dead nodes fails");
        assert_eq!(pusher.dirty(), 32, "failed flush re-marks every unsent key dirty");
        // The tracker marks were rolled back too: a retry attempts a
        // real send again (and fails on the dead connection) instead of
        // suppressing everything into a silent empty Ok.
        assert!(pusher.flush().is_err(), "retry still pushes, not an empty success");
        assert_eq!(pusher.stats().suppressed, 0);
    }

    #[test]
    fn update_batches_carry_store_state_and_reach_the_cache() {
        let (handles, addrs) = spawn_cluster(2);
        let config = PushConfig { policy: PushPolicy::Update, ..Default::default() };
        let mut pusher = StorePusher::connect(&addrs, config).unwrap();
        // Updates only refresh entries the cache holds; populate first.
        let mut client = crate::ClusterClient::connect(&addrs).unwrap();
        for key in 0..16u64 {
            client.put(key, payload::pattern(key, 8), None).unwrap();
        }
        for key in 0..16u64 {
            pusher.write(key, 24);
        }
        let receipts = pusher.flush().unwrap();
        assert_eq!(receipts.iter().map(|r| r.keys).sum::<usize>(), 16);
        // The refreshed bytes travel end to end: a read now sees the
        // store's 24-byte pattern payload, checksum-intact.
        for key in 0..16u64 {
            let got = client.get(key, None).unwrap();
            assert!(got.is_served());
            assert_eq!(got.value_size(), 24, "key {key} refreshed by the pushed update");
            assert!(payload::verify(key, &got.value), "key {key} pushed payload intact");
        }
        // Sequence numbers advance per node.
        for key in 0..16u64 {
            pusher.write(key, 8);
        }
        for r in pusher.flush().unwrap() {
            assert_eq!(r.seq, 2);
        }
        for h in handles {
            h.shutdown();
        }
    }

    #[test]
    fn adaptive_flush_splits_keys_by_live_read_frequency() {
        let (handles, addrs) = spawn_cluster(1);
        let config = PushConfig { policy: PushPolicy::Adaptive, ..Default::default() };
        let mut pusher = StorePusher::connect(&addrs, config).unwrap();
        // Teach the estimator through the same backchannel the serving
        // tier uses. Keys 0..8 are read-hot: each write run is length 1
        // before a read burst closes it → E[W] = 1, under the 2.2
        // threshold → update. Keys 8..16 run eight writes before a read
        // closes the sample → E[W] = 8 → invalidate.
        for key in 0..8u64 {
            pusher.write(key, 16);
        }
        {
            let origin = pusher.origin_state();
            let mut o = origin.lock();
            let stats: Vec<ReadStat> =
                (0..8).map(|k| ReadStat { key: k, reads: 50 }).collect();
            o.record_reads(&stats);
        }
        for _ in 0..8 {
            for key in 8..16u64 {
                pusher.write(key, 16);
            }
        }
        {
            let origin = pusher.origin_state();
            let mut o = origin.lock();
            let stats: Vec<ReadStat> =
                (8..16).map(|k| ReadStat { key: k, reads: 1 }).collect();
            o.record_reads(&stats);
        }
        // Dirty every key once more so one flush decides all sixteen.
        for key in 0..16u64 {
            pusher.write(key, 16);
        }
        // Populate the cache so updates have entries to refresh.
        let mut client = crate::ClusterClient::connect(&addrs).unwrap();
        for key in 0..16u64 {
            client.put(key, payload::pattern(key, 8), None).unwrap();
        }
        let receipts = pusher.flush().unwrap();
        let stats = pusher.stats();
        assert!(stats.decided_update >= 8, "read-hot keys update: {stats:?}");
        assert!(stats.decided_invalidate >= 8, "write-run keys invalidate: {stats:?}");
        // The single node received both an invalidate and an update
        // frame, with distinct sequence numbers.
        assert_eq!(receipts.len(), 2, "mixed flush sends two frames: {receipts:?}");
        let seqs: Vec<u64> = receipts.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2], "per-node seqs stay monotone across the split");
        // Read-hot keys were refreshed in place; write-only keys were
        // invalidated (bounded reads refuse them).
        let hot = client.get(0, None).unwrap();
        assert!(hot.is_served());
        assert_eq!(hot.value_size(), 16, "updated in place from the store");
        let cold = client
            .get(12, Some(fresca_sim::SimDuration::from_secs(3600)))
            .unwrap();
        assert!(!cold.is_served(), "invalidated key refuses a bounded read");
        for h in handles {
            h.shutdown();
        }
    }
}
