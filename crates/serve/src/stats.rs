//! A node's counters as its operators see them: the point-in-time copy
//! ([`ServerStatsSnapshot`]) of the node's one counter set
//! ([`crate::datapath::Counters`]) and its slab gauges, which
//! `ServerHandle::stats`, the `serve` binary's counter line and
//! `StatsResp` are built from.

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
    /// Operations applied on a shard outside the decoding event loop's
    /// share (shard `s` is in loop `s % L`'s share) — one per request,
    /// one per shard's part of a store-push batch. The name is kept from
    /// when such ops were forwarded to the owning loop; each now costs
    /// that shard's lock instead.
    pub cross_core_forwards: u64,
    /// Flushes of a client connection that had reply bytes to send —
    /// one per connection per tick however many replies it carries, so
    /// `reply_writes / (gets + puts)` is the write syscalls a request
    /// costs. Not part of `Display` or `StatsResp`.
    pub reply_writes: u64,
    /// Live entries across every slab shard (gauge, read from each
    /// shard when the snapshot is taken).
    pub slab_entries: u64,
    /// Allocated slab slots across every shard — the storage
    /// high-water mark (gauge).
    pub slab_capacity: u64,
    /// Entries evicted for capacity across every shard (read with the
    /// slab gauges). Not part of `StatsResp`.
    pub evictions: u64,
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
             epoch={} handoff_in={} handoff_out={} evictions={}",
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
            self.handoff_out,
            self.evictions
        )
    }
}
