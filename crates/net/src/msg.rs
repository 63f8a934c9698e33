//! Protocol messages between the application, cache and data store.
//!
//! Messages that carry a value ([`Message::GetResp`], [`Message::PutReq`],
//! [`Message::FetchResp`] and store-pushed [`UpdateItem`]s) carry its
//! **real bytes** as refcounted [`Bytes`] handles: the codec slices them
//! out of its receive buffer without copying, and handing a payload to
//! the cache or a response is a refcount bump. [`Message::wire_size`] is
//! exact, which is what lets the cost model scale `c_u`/`c_i`/`c_m` by
//! message size when the network is the bottleneck (§3.3).

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Identifies one in-flight request on a connection, so responses can be
/// matched to requests when several are pipelined on the same stream.
///
/// Ids are allocated by the client (any scheme that never repeats while a
/// request is outstanding works; a per-connection counter is typical) and
/// echoed verbatim by the server — every `u64` is an id, none is reserved.
///
/// ```
/// use fresca_net::RequestId;
///
/// let first = RequestId(1);
/// assert!(RequestId(2) > first);
/// assert_eq!(format!("{first}"), "req#1");
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// One item of a batched update message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateItem {
    /// Key being refreshed.
    pub key: u64,
    /// Backend version after the write burst.
    pub version: u64,
    /// The refreshed value, carried verbatim on the wire.
    pub value: Bytes,
}

impl UpdateItem {
    /// Value size in bytes, as accounted on the wire.
    pub fn value_size(&self) -> u32 {
        self.value.len() as u32
    }
}

/// One entry of a [`Message::ReadStats`] backchannel frame: how many
/// bounded reads a cache node absorbed for `key` since the last report.
///
/// Counts are deltas, not totals — the origin accumulates them into its
/// `E[W]` estimator (`fresca-sketch`), so a report lost to a dropped
/// connection degrades the estimate instead of corrupting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadStat {
    /// Key that was read.
    pub key: u64,
    /// Reads absorbed since the previous report (saturating).
    pub reads: u32,
}

/// How a staleness-bounded read ([`Message::GetReq`]) was resolved by the
/// serving cache. Carried on the wire as one byte in
/// [`Message::GetResp`].
///
/// The four outcomes partition the paper's freshness semantics at the
/// serving boundary: an entry can satisfy both the server's TTL contract
/// and the client's bound (`Fresh`), only the client's bound
/// (`ServedStale`), neither (`RefusedStale`), or be absent (`Miss`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GetStatus {
    /// Entry served; within its TTL and within the request's bound.
    Fresh,
    /// Entry served *stale*: past its TTL (the server's default freshness
    /// contract) but still within the staleness bound this request
    /// explicitly accepted.
    ServedStale,
    /// Entry present but refused: older than the request's bound, or
    /// known-stale via a backend invalidation. The client must fetch from
    /// the backing store.
    RefusedStale,
    /// No entry for the key. A normal cold miss, not a freshness event.
    Miss,
}

impl GetStatus {
    /// Wire encoding (one byte).
    pub fn as_u8(self) -> u8 {
        match self {
            GetStatus::Fresh => 0,
            GetStatus::ServedStale => 1,
            GetStatus::RefusedStale => 2,
            GetStatus::Miss => 3,
        }
    }

    /// Decode from the wire byte; `None` for unknown values.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(GetStatus::Fresh),
            1 => Some(GetStatus::ServedStale),
            2 => Some(GetStatus::RefusedStale),
            3 => Some(GetStatus::Miss),
            _ => None,
        }
    }

    /// True when the response carried a value (`Fresh` or `ServedStale`).
    pub fn is_served(self) -> bool {
        matches!(self, GetStatus::Fresh | GetStatus::ServedStale)
    }
}

/// Protocol messages.
///
/// Four families share the frame format (PROTOCOL.md has the tag table):
///
/// * **Store-path** messages (`Invalidate`, `Update`, `Ack`) connect the
///   data store and the cache, inside the engines and on a cache node's
///   socket alike: batched invalidate/update pushes and their acks.
/// * **Serving-path** messages (`GetReq` … `PutResp`, `StatsReq`,
///   `StatsResp`) cross the client ⇄ cache-server boundary and carry the
///   paper's freshness semantics on the wire: a per-request max-staleness
///   bound on reads, a per-key TTL on writes, and a served/refused-stale
///   status on responses. Each carries a [`RequestId`] so several
///   requests can be pipelined on one connection and responses matched
///   by id; the server echoes the request's id on the response.
/// * **Origin-path** messages (`FetchReq`, `FetchResp`, `ReadStats`) run
///   between a cache node and the origin it refetches through.
/// * **Membership** messages (`RingUpdate` … `LeaveReq`) move the ring's
///   epoch-stamped member list between nodes, operators and clients.
///
/// ```
/// use fresca_net::{Message, RequestId};
///
/// // A read that tolerates at most 50ms of staleness...
/// let req = Message::GetReq { id: RequestId(1), key: 7, max_staleness: 50_000_000 };
/// // ...occupies exactly its declared number of wire bytes.
/// assert_eq!(req.wire_size(), 5 + 8 + 8 + 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Message {
    /// Store → cache: batched invalidations for the last interval.
    Invalidate {
        /// Sequence number for reliable delivery.
        seq: u64,
        /// Keys to mark stale.
        keys: Vec<u64>,
    },
    /// Store → cache: batched updates for the last interval.
    Update {
        /// Sequence number for reliable delivery.
        seq: u64,
        /// Refreshed items (values carried on the wire).
        items: Vec<UpdateItem>,
    },
    /// Cache → store: acknowledgement of an Invalidate/Update batch.
    Ack {
        /// Sequence number being acknowledged.
        seq: u64,
    },
    /// Client → cache server: staleness-bounded read, the paper's
    /// freshness contract made explicit per request.
    GetReq {
        /// Client-chosen id echoed on the matching [`Message::GetResp`].
        id: RequestId,
        /// Key to read.
        key: u64,
        /// Maximum acceptable staleness in nanoseconds since the entry
        /// was last made fresh; `u64::MAX` means "any age is fine".
        max_staleness: u64,
    },
    /// Cache server → client: result of a [`Message::GetReq`].
    GetResp {
        /// Echo of the request's id.
        id: RequestId,
        /// Key read.
        key: u64,
        /// Version served (0 when nothing was served).
        version: u64,
        /// The value served, carried verbatim on the wire (empty when
        /// nothing was served — a refusal or miss carries no bytes).
        value: Bytes,
        /// Age of the served entry in nanoseconds since it was last made
        /// fresh (0 when nothing was served).
        age: u64,
        /// How the read was resolved against the freshness contract.
        status: GetStatus,
    },
    /// Client → cache server: write-through with a per-key TTL.
    PutReq {
        /// Client-chosen id echoed on the matching [`Message::PutResp`].
        id: RequestId,
        /// Key written.
        key: u64,
        /// The value written, carried verbatim on the wire.
        value: Bytes,
        /// Time-to-live in nanoseconds; 0 means "no TTL" (fresh until
        /// invalidated or evicted).
        ttl: u64,
    },
    /// Cache server → client: write acknowledged with the version the
    /// server assigned (monotone per key).
    PutResp {
        /// Echo of the request's id.
        id: RequestId,
        /// Key written.
        key: u64,
        /// Version assigned by the server.
        version: u64,
    },
    /// Cache server → origin: refetch a key whose bounded read would have
    /// been refused or missed (§3.1's cache-aside backchannel). One
    /// refetch is in flight per key per reactor loop — concurrent readers
    /// park on the in-flight-refetch table and are answered together.
    FetchReq {
        /// Key to refetch.
        key: u64,
    },
    /// Origin → cache server: the refreshed value. Serving it also clears
    /// the origin-side invalidation-tracker mark for the key, re-arming
    /// push suppression (§3.1).
    FetchResp {
        /// Key refetched.
        key: u64,
        /// Origin's version (provenance only — the cache re-versions the
        /// entry from its own serving counter, see PROTOCOL.md).
        version: u64,
        /// The refreshed value, carried verbatim on the wire.
        value: Bytes,
    },
    /// Cache server → origin: fire-and-forget per-key read counts since
    /// the last report, feeding the origin's `E[W]` estimator so the
    /// adaptive invalidate-vs-update policy sees live read frequencies.
    ReadStats {
        /// Per-key read deltas (bounded batch; see the codec's limits).
        entries: Vec<ReadStat>,
    },
    /// Client → cache server: query the server's freshness-loop counters.
    /// Used by loadgen to report refetch activity for a run.
    StatsReq,
    /// Cache server → client: freshness-loop counters at this instant.
    StatsResp {
        /// Refetches sent to the origin.
        refetches: u64,
        /// Bounded reads coalesced onto an already-in-flight refetch.
        refetch_coalesced: u64,
        /// Bounded reads degraded to `RefusedStale`/`Miss` because the
        /// origin was unreachable or a fetch failed.
        origin_errors: u64,
        /// Requests whose key was owned by a different event loop and
        /// was forwarded over the cross-core channel.
        cross_core_forwards: u64,
        /// Live entries across all event-loop-owned slab shards.
        slab_entries: u64,
        /// Allocated slab slots (live + free-listed) across all owned
        /// shards — the slab memory high-water mark.
        slab_capacity: u64,
        /// Membership epoch this node is currently serving under (0 when
        /// the node has never adopted a membership — solo operation).
        epoch: u64,
        /// Keys received via streaming handoff (install-mode `Update`
        /// batches) since the node started.
        handoff_in: u64,
        /// Keys this node streamed out to new owners on epoch changes.
        handoff_out: u64,
    },
    /// Controller/peer → cache server (or server → client, answering a
    /// [`Message::RingReq`]): the authoritative member list for a
    /// membership epoch. A node adopts the update iff `epoch` is newer
    /// than its current one, then streams every key it no longer owns to
    /// the key's new owner as bulk [`Message::Update`] batches.
    RingUpdate {
        /// Monotone membership epoch; higher wins, ties are ignored.
        epoch: u64,
        /// Every member's advertised address, in ring order. Placement
        /// is a pure function of this list (and the vnode count), so all
        /// participants that adopt the same epoch compute the same ring.
        members: Vec<String>,
    },
    /// Cache server → sender: membership update acknowledged. Echoes the
    /// epoch the node is on *after* processing — the sender can tell an
    /// adoption (`epoch` matches the update) from a stale update the
    /// node ignored (`epoch` is higher).
    RingAck {
        /// The node's current epoch after processing the update.
        epoch: u64,
    },
    /// Any client → cache server: ask for the current membership. The
    /// server answers with a [`Message::RingUpdate`] carrying its
    /// current epoch and member list (epoch 0 and an empty list when the
    /// node is solo).
    RingReq,
    /// Joining node (or operator) → any member: add `node` to the
    /// membership. The receiving member bumps the epoch, adopts the new
    /// ring, broadcasts the resulting [`Message::RingUpdate`] to every
    /// other member, and replies with that same update so the joiner
    /// learns the full membership it just entered.
    JoinReq {
        /// Advertised address of the node joining the ring.
        node: String,
    },
    /// Operator (or a departing node) → any member: remove `node` from
    /// the membership. Same epoch-bump/broadcast/reply contract as
    /// [`Message::JoinReq`]; the reply is the post-departure
    /// [`Message::RingUpdate`].
    LeaveReq {
        /// Advertised address of the node leaving the ring.
        node: String,
    },
}

impl Message {
    /// Exact encoded size in bytes (header + fields + carried values),
    /// kept in lock-step with the codec by a round-trip test.
    pub fn wire_size(&self) -> usize {
        // Frame header: u32 length + u8 type tag.
        const HDR: usize = 5;
        match self {
            Message::Invalidate { keys, .. } => HDR + 8 + 4 + keys.len() * 8,
            Message::Update { items, .. } => {
                HDR + 8
                    + 4
                    + items
                        .iter()
                        .map(|it| 8 + 8 + 4 + it.value.len())
                        .sum::<usize>()
            }
            Message::Ack { .. } => HDR + 8,
            // Serving-path messages lead with the 8-byte request id.
            Message::GetReq { .. } => HDR + 8 + 8 + 8,
            Message::GetResp { value, .. } => HDR + 8 + 8 + 8 + 4 + 8 + 1 + value.len(),
            Message::PutReq { value, .. } => HDR + 8 + 8 + 4 + 8 + value.len(),
            Message::PutResp { .. } => HDR + 8 + 8 + 8,
            Message::FetchReq { .. } => HDR + 8,
            Message::FetchResp { value, .. } => HDR + 8 + 8 + 4 + value.len(),
            Message::ReadStats { entries } => HDR + 4 + entries.len() * 12,
            Message::StatsReq => HDR,
            Message::StatsResp { .. } => HDR + 9 * 8,
            // Membership strings travel as u16 length + UTF-8 bytes.
            Message::RingUpdate { members, .. } => {
                HDR + 8 + 4 + members.iter().map(|m| 2 + m.len()).sum::<usize>()
            }
            Message::RingAck { .. } => HDR + 8,
            Message::RingReq => HDR,
            Message::JoinReq { node } | Message::LeaveReq { node } => HDR + 2 + node.len(),
        }
    }

    /// Sequence number for reliable batches, if this message carries one.
    pub fn seq(&self) -> Option<u64> {
        match self {
            Message::Invalidate { seq, .. } | Message::Update { seq, .. } | Message::Ack { seq } => {
                Some(*seq)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_scale_with_payload() {
        let resp = |len| Message::FetchResp {
            key: 1,
            version: 1,
            value: crate::payload::zeroes(len),
        };
        assert_eq!(resp(1000).wire_size() - resp(10).wire_size(), 990);
        // Invalidates carry keys only — independent of value size.
        let inv = Message::Invalidate { seq: 0, keys: vec![1, 2, 3] };
        assert_eq!(inv.wire_size(), 5 + 8 + 4 + 24);
    }

    #[test]
    fn invalidate_smaller_than_update_for_same_keys() {
        // The heart of the c_i < c_u assumption: invalidates don't carry
        // values.
        let keys = vec![1u64, 2, 3];
        let inv = Message::Invalidate { seq: 0, keys: keys.clone() };
        let upd = Message::Update {
            seq: 0,
            items: keys
                .iter()
                .map(|&k| UpdateItem { key: k, version: 1, value: crate::payload::zeroes(500) })
                .collect(),
        };
        assert!(inv.wire_size() < upd.wire_size());
    }

    #[test]
    fn seq_only_on_reliable_messages() {
        assert_eq!(Message::FetchReq { key: 1 }.seq(), None);
        assert_eq!(Message::Ack { seq: 7 }.seq(), Some(7));
        assert_eq!(Message::Invalidate { seq: 9, keys: vec![] }.seq(), Some(9));
        assert_eq!(
            Message::GetReq { id: RequestId(1), key: 1, max_staleness: 0 }.seq(),
            None
        );
        assert_eq!(
            Message::PutReq { id: RequestId(2), key: 1, value: Bytes::new(), ttl: 0 }.seq(),
            None
        );
    }

    #[test]
    fn serving_path_wire_sizes() {
        assert_eq!(
            Message::GetReq { id: RequestId(7), key: 1, max_staleness: u64::MAX }.wire_size(),
            29
        );
        // No id is special: 0 occupies its 8 bytes like any other.
        assert_eq!(
            Message::GetReq { id: RequestId(0), key: 1, max_staleness: u64::MAX }.wire_size(),
            29
        );
        let served = Message::GetResp {
            id: RequestId(7),
            key: 1,
            version: 2,
            value: crate::payload::pattern(1, 100),
            age: 5,
            status: GetStatus::Fresh,
        };
        assert_eq!(served.wire_size(), 5 + 8 + 8 + 8 + 4 + 8 + 1 + 100);
        assert_eq!(
            Message::PutReq {
                id: RequestId(8),
                key: 1,
                value: crate::payload::pattern(1, 64),
                ttl: 7
            }
            .wire_size(),
            5 + 8 + 8 + 4 + 8 + 64
        );
        assert_eq!(Message::PutResp { id: RequestId(8), key: 1, version: 9 }.wire_size(), 29);
    }

    #[test]
    fn freshness_loop_wire_sizes() {
        assert_eq!(Message::FetchReq { key: 1 }.wire_size(), 13);
        let resp = Message::FetchResp {
            key: 1,
            version: 3,
            value: crate::payload::pattern(1, 100),
        };
        assert_eq!(resp.wire_size(), 5 + 8 + 8 + 4 + 100);
        let stats = Message::ReadStats {
            entries: vec![ReadStat { key: 1, reads: 4 }, ReadStat { key: 2, reads: 1 }],
        };
        assert_eq!(stats.wire_size(), 5 + 4 + 2 * 12);
        assert_eq!(Message::StatsReq.wire_size(), 5);
        assert_eq!(
            Message::StatsResp {
                refetches: 1,
                refetch_coalesced: 2,
                origin_errors: 3,
                cross_core_forwards: 4,
                slab_entries: 5,
                slab_capacity: 6,
                epoch: 7,
                handoff_in: 8,
                handoff_out: 9,
            }
            .wire_size(),
            77
        );
        // A fetch response is cheaper than an update batch for the same
        // value: no seq, no per-item framing — it answers exactly one key.
        let upd = Message::Update {
            seq: 1,
            items: vec![UpdateItem { key: 1, version: 3, value: crate::payload::pattern(1, 100) }],
        };
        assert!(resp.wire_size() < upd.wire_size());
    }

    #[test]
    fn membership_wire_sizes() {
        let members = vec!["127.0.0.1:7001".to_string(), "127.0.0.1:7002".to_string()];
        let update = Message::RingUpdate { epoch: 3, members: members.clone() };
        // header + epoch + count + per-member (u16 len + bytes).
        assert_eq!(update.wire_size(), 5 + 8 + 4 + 2 * (2 + 14));
        assert_eq!(Message::RingAck { epoch: 3 }.wire_size(), 13);
        assert_eq!(Message::RingReq.wire_size(), 5);
        assert_eq!(
            Message::JoinReq { node: "127.0.0.1:7003".into() }.wire_size(),
            5 + 2 + 14
        );
        assert_eq!(
            Message::LeaveReq { node: "127.0.0.1:7003".into() }.wire_size(),
            5 + 2 + 14
        );
    }

    #[test]
    fn get_status_byte_roundtrip() {
        for s in [
            GetStatus::Fresh,
            GetStatus::ServedStale,
            GetStatus::RefusedStale,
            GetStatus::Miss,
        ] {
            assert_eq!(GetStatus::from_u8(s.as_u8()), Some(s));
        }
        assert_eq!(GetStatus::from_u8(4), None);
        assert!(GetStatus::Fresh.is_served());
        assert!(GetStatus::ServedStale.is_served());
        assert!(!GetStatus::RefusedStale.is_served());
        assert!(!GetStatus::Miss.is_served());
    }
}
