//! A node's counters as its operators see them: the reactor's own
//! atomics ([`ServerStats`]) and the point-in-time copy of everything
//! ([`ServerStatsSnapshot`]) that `ServerHandle::stats`, the `serve`
//! binary's counter line and `StatsResp` are built from.

use std::sync::atomic::AtomicU64;

/// The reactor's own monotonically updated counters, shared across
/// event-loop threads; the serving counters live with the owners (see
/// [`crate::datapath::Counters`]). Relaxed ordering everywhere: these are statistics,
/// not synchronisation.
#[derive(Debug, Default)]
pub(crate) struct ServerStats {
    pub(crate) gets: AtomicU64,
    pub(crate) puts: AtomicU64,
    pub(crate) push_batches: AtomicU64,
    pub(crate) connections: AtomicU64,
    pub(crate) open_connections: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) cross_core_forwards: AtomicU64,
    pub(crate) reply_writes: AtomicU64,
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// `GetReq`s handled.
    pub gets: u64,
    /// `PutReq`s handled.
    pub puts: u64,
    /// Reads served fresh (within TTL and bound).
    pub fresh: u64,
    /// Reads served stale (past TTL, within the request's bound).
    pub stale_served: u64,
    /// Reads refused (entry older than the bound, or invalidated).
    pub refused: u64,
    /// Reads that found no entry.
    pub misses: u64,
    /// Store-pushed `Invalidate`/`Update` batches acknowledged.
    pub push_batches: u64,
    /// Keys marked stale by store-pushed `Invalidate` batches (present
    /// keys only; invalidations of uncached keys are not counted here).
    pub keys_invalidated: u64,
    /// Cached entries re-freshened by store-pushed `Update` batches.
    pub keys_updated: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Connections currently registered with an event loop.
    pub open_connections: u64,
    /// Connections dropped for sending non-serving-path or malformed
    /// frames.
    pub protocol_errors: u64,
    /// Origin fetches issued for refused/missed bounded reads (one per
    /// refetch epoch — coalesced readers do not add here).
    pub refetches: u64,
    /// Bounded reads that coalesced onto an already-in-flight refetch
    /// of their key instead of issuing another origin fetch.
    pub refetch_coalesced: u64,
    /// Reads answered with their fallback refusal/miss because the
    /// origin was unreachable or its connection died mid-fetch.
    pub origin_errors: u64,
    /// Operations forwarded to the event loop owning their key's shard
    /// (requests arriving on the owner loop serve inline and do not
    /// count here).
    pub cross_core_forwards: u64,
    /// Flushes of a client connection that had reply bytes to send —
    /// one per connection per tick however many replies it carries, so
    /// `reply_writes / (gets + puts)` is the write syscalls a request
    /// costs. Not part of `Display` or `StatsResp`.
    pub reply_writes: u64,
    /// Live entries across every owned slab shard (gauge, refreshed at
    /// each loop's end of tick).
    pub slab_entries: u64,
    /// Allocated slab slots across every owned shard — the storage
    /// high-water mark (gauge).
    pub slab_capacity: u64,
    /// Current membership epoch (0 = solo, see [`crate::membership`]).
    pub epoch: u64,
    /// Entries installed by inbound key handoff streams (a joining or
    /// rebalancing peer streamed them here as install-mode updates).
    pub handoff_in: u64,
    /// Entries streamed out to their new owners after a membership
    /// change moved them off this node.
    pub handoff_out: u64,
}

impl std::fmt::Display for ServerStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gets={} puts={} fresh={} stale_served={} refused={} misses={} \
             refetches={} coalesced={} origin_errs={} forwards={} \
             push_batches={} keys_invalidated={} keys_updated={} \
             slab={}/{} conns={} open={} proto_errs={} \
             epoch={} handoff_in={} handoff_out={}",
            self.gets,
            self.puts,
            self.fresh,
            self.stale_served,
            self.refused,
            self.misses,
            self.refetches,
            self.refetch_coalesced,
            self.origin_errors,
            self.cross_core_forwards,
            self.push_batches,
            self.keys_invalidated,
            self.keys_updated,
            self.slab_entries,
            self.slab_capacity,
            self.connections,
            self.open_connections,
            self.protocol_errors,
            self.epoch,
            self.handoff_in,
            self.handoff_out
        )
    }
}
