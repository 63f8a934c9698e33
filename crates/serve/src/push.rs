//! The store-push node: the live caller of the one store backend,
//! pushing `Invalidate`/`Update` batches to the cache nodes owning each
//! key.
//!
//! This is the paper's Figure-4 pipeline lifted off the simulator and
//! onto the wire. The store side — versioned store, dirty-key buffer,
//! §3.1 tracker, decision rule — is the I/O-free
//! [`Backend`](fresca_core::backend::Backend) the simulation engine
//! also runs, held in the shared [`OriginState`]. Writes mark keys
//! dirty; [`StorePusher::flush`] drains the backend partitioned by ring
//! owner (the [`HashRing`] every cluster participant computes), sends
//! each node `Invalidate { seq, keys }` and/or `Update { seq, items }`
//! frames, then blocks for the `Ack { seq }` each node owes.
//!
//! Three policies mirror the paper's §3.3 spectrum:
//!
//! * [`PushPolicy::Invalidate`] / [`PushPolicy::Update`] — the static
//!   policies of the simulation engine, passed to the backend's drain
//!   as its decision hook.
//! * [`PushPolicy::Adaptive`] — the backend's own rule: update iff
//!   `E[W]·c_u < c_m + c_i`, with `E[W]` estimated live from the read
//!   statistics the serving tier reports to the shared origin state.
//!   A mixed workload produces *mixed* batches, counted in
//!   [`PushStats::decided_update`] / [`PushStats::decided_invalidate`].
//!
//! **Sharing.** An origin listener may share the backend
//! ([`StorePusher::connect_shared`]). A flush decides under one lock
//! acquisition and sends after releasing it, so a slow cache node never
//! stalls the listener.
//!
//! **The tracker clear is at decision.** A key decided `Update` stops
//! counting as invalidated before its batch is sent, not at the `Ack`:
//! a node that applied the batch but whose `Ack` was lost holds the new
//! value, and a tracker still saying "invalidated" would suppress the
//! next write's invalidate and leave that node serving stale data as
//! fresh. (The simulator clears when its `Update` lands.)
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
use fresca_core::backend::Batch;
use fresca_core::cost::CostModel;
use fresca_core::policy::FlushDecision;
use fresca_net::{payload, FramedStream, Message, UpdateItem};
use fresca_store::Record;
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

/// A live store node pushing freshness traffic into a cache cluster.
pub struct StorePusher {
    ring: HashRing,
    /// One blocking framed connection per ring member, aligned with
    /// `ring.nodes()`. Push traffic is strictly send-batch/await-ack, so
    /// the simple blocking transport is the right tool.
    conns: Vec<FramedStream<TcpStream>>,
    /// Next sequence number per node, starting at 1.
    next_seq: Vec<u64>,
    /// The store backend, shared with an origin listener when one is
    /// serving refetches for it (see [`crate::origin`]).
    origin: Arc<Mutex<OriginState>>,
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
        let origin = OriginState::with_default_estimator(DEFAULT_ORIGIN_VALUE_SIZE);
        StorePusher::connect_shared(addrs, config, origin.into_shared())
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
            config,
            stats: PushStats::default(),
        })
    }

    /// The ring this pusher partitions batches by.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The shared backend state.
    pub fn origin_state(&self) -> Arc<Mutex<OriginState>> {
        Arc::clone(&self.origin)
    }

    /// Counters so far.
    pub fn stats(&self) -> PushStats {
        let mut s = self.stats;
        let o = self.origin.lock();
        s.suppressed = o.backend.tracker().suppressed();
        s.coalesced = o.backend.buffer().coalesced();
        s
    }

    /// Apply a client write to the backing store and mark the key dirty
    /// for the next flush. Returns the store's new record.
    pub fn write(&mut self, key: u64, value_size: u32) -> Record {
        let rec = self.origin.lock().write(key, value_size);
        self.stats.writes += 1;
        rec
    }

    /// The store served a refetch of `key` out of band (an origin
    /// listener on the shared state does this itself): the §3.1
    /// backchannel, so the *next* write invalidates again instead of
    /// being suppressed. Returns the store's record for the read.
    pub fn refetched(&mut self, key: u64, default_size: u32) -> Record {
        let mut o = self.origin.lock();
        o.backend.fetched(key, default_size)
    }

    /// Distinct keys dirty in the current interval.
    pub fn dirty(&self) -> usize {
        let o = self.origin.lock();
        o.backend.buffer().len()
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
        let decision = match self.config.policy {
            PushPolicy::Invalidate => Some(FlushDecision::Invalidate),
            PushPolicy::Update => Some(FlushDecision::Update),
            PushPolicy::Adaptive => None,
        };
        // Decide every batch before sending any, under one lock
        // acquisition released before the first blocking send.
        let mut batches = {
            let mut o = self.origin.lock();
            let suppressed = o.backend.tracker().suppressed();
            let ring = &self.ring;
            let part_of = |key| ring.node_index_for(key).unwrap_or(0);
            let parts = ring.nodes().len();
            let batches = o.backend.drain(&self.config.cost, 8, parts, part_of, |_, _, _| decision);
            for batch in &batches {
                // Cleared at decision, not at the ack: see the module docs.
                for &(key, _) in &batch.update {
                    o.backend.refreshed(key);
                }
                self.stats.decided_update += batch.update.len() as u64;
                self.stats.decided_invalidate += batch.invalidate.len() as u64;
            }
            self.stats.decided_invalidate += o.backend.tracker().suppressed() - suppressed;
            batches
        };
        let mut receipts = Vec::new();
        for node in 0..batches.len() {
            if let Err(e) = self.send_node(node, &mut batches[node], &mut receipts) {
                self.origin.lock().backend.restore(&batches[node..]);
                return Err(e);
            }
        }
        Ok(receipts)
    }

    /// Send one node its invalidate frame, then its update frame, each
    /// blocking for its ack. A sent invalidate list is emptied, so on an
    /// error `batch` holds exactly what was not delivered.
    fn send_node(
        &mut self,
        node: usize,
        batch: &mut Batch,
        receipts: &mut Vec<BatchReceipt>,
    ) -> io::Result<()> {
        if !batch.invalidate.is_empty() {
            let keys = batch.invalidate.iter().map(|&(key, _)| key).collect();
            let frame = |seq| Message::Invalidate { seq, keys };
            receipts.push(self.send_batch(node, batch.invalidate.len(), frame)?);
            batch.invalidate.clear();
        }
        if !batch.update.is_empty() {
            // The batch carries the store's real bytes: the deterministic
            // pattern every writer uses, so checksum-verifying readers
            // accept refreshed entries.
            let item = |&(key, rec): &(u64, Record)| {
                let value = payload::pattern(key, rec.value_size as usize);
                UpdateItem { key, version: rec.version, value }
            };
            let items = batch.update.iter().map(item).collect();
            let frame = |seq| Message::Update { seq, items };
            receipts.push(self.send_batch(node, batch.update.len(), frame)?);
        }
        Ok(())
    }

    /// Send one frame of `keys` keys, stamped with the node's next seq,
    /// and block for its ack.
    fn send_batch(
        &mut self,
        node: usize,
        keys: usize,
        frame: impl FnOnce(u64) -> Message,
    ) -> io::Result<BatchReceipt> {
        let seq = self.next_seq[node];
        let msg = frame(seq);
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
    fn lost_update_ack_leaves_the_key_dirty_and_not_invalidated() {
        // A fake node: it acks the first (Invalidate) batch, then reads
        // the Update batch and hangs up without acking it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let node = std::thread::spawn(move || {
            let mut conn = FramedStream::new(listener.accept().unwrap().0);
            let first = conn.recv().unwrap();
            assert!(matches!(first, Some(Message::Invalidate { seq: 1, .. })), "{first:?}");
            conn.send(&Message::Ack { seq: 1 }).unwrap();
            let second = conn.recv().unwrap();
            assert!(matches!(second, Some(Message::Update { seq: 2, .. })), "{second:?}");
        });
        let mut pusher = StorePusher::connect(&[addr], PushConfig::default()).unwrap();
        pusher.write(7, 16);
        assert_eq!(pusher.flush().unwrap().len(), 1);
        assert!(pusher.origin.lock().backend.tracker().is_invalidated(7));
        pusher.config.policy = PushPolicy::Update;
        pusher.write(7, 16);
        let failed = pusher.flush();
        node.join().unwrap();
        assert!(failed.is_err(), "a lost ack fails the flush");
        assert_eq!(pusher.dirty(), 1, "the update is pushed again next flush");
        // The node may hold the update: cleared at decision, the tracker
        // lets the next write's invalidate through.
        assert!(!pusher.origin.lock().backend.tracker().is_invalidated(7));
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
