//! # fresca-net — wire protocol and simulated network
//!
//! The paper's open question #1 (§5) is what lost or re-ordered
//! invalidates/updates do to freshness: unlike TTLs, a dropped invalidate
//! can leave a cached object stale *forever*. This crate provides the
//! machinery to study that:
//!
//! * [`msg`] — the protocol messages with exact wire sizes, which also
//!   ground the byte-scaled cost model of Table 1: store-path batched
//!   invalidates/updates and their acks, the serving-path
//!   client⇄server messages (`GetReq`/`PutReq`/…) that carry the
//!   paper's freshness semantics — a per-request staleness bound, a
//!   per-key TTL, and a served/refused-stale response status — plus the
//!   origin-path and membership messages.
//! * [`codec`] — a length-prefixed binary framing codec on [`bytes`]
//!   (`u32` length + type byte + fields), one encoding per message,
//!   with a streaming decoder that tolerates partial frames and rejects
//!   oversized or malformed ones. Value payloads are real bytes: a
//!   large `PutReq`/`FetchResp` value is routed from the read chunk
//!   into its own exact allocation, everything else is decoded as a
//!   refcounted zero-copy slice of the receive buffer.
//! * [`frame_io`] — framed transports that run the codec over any
//!   `Read + Write` stream: the blocking [`FramedStream`] and the
//!   non-blocking [`NonBlockingFramedStream`], which accumulates partial
//!   reads and writes so a poll-driven event loop can multiplex thousands
//!   of connections, and drains its outbound segment queue with vectored
//!   writes so large payloads are never copied into a send buffer. These
//!   are what the `fresca-serve` server and load generator speak over
//!   real TCP.
//! * [`payload`] — deterministic, checksummable value payloads: every
//!   writer fills values with the same seeded pattern, so any reader can
//!   verify integrity end-to-end from the key and bytes alone.
//! * [`pin`] — the rule that a *cached* value owns exactly its bytes:
//!   short values sliced out of a read chunk are copied into an exact
//!   allocation at install, so a long-lived 100 B value cannot pin a
//!   64 KiB receive buffer (longer ones arrive exact from the codec).
//! * [`simnet`] — a deterministic simulated network: configurable delay
//!   distribution plus smoltcp-style fault injection (drop, duplicate,
//!   reorder), driven entirely by the caller's scheduler.
//! * [`reliable`] — an ack + retransmission layer and a de-duplicating
//!   receiver, the fix the lossy-delivery experiment evaluates.

#![forbid(unsafe_code)]

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod frame_io;
pub mod msg;
pub mod payload;
pub mod pin;
pub mod reliable;
pub mod simnet;

pub use codec::{CodecError, FrameCodec, MAX_FRAME, MAX_VALUE};
pub use frame_io::{FramedStream, NonBlockingFramedStream, PollRecv};
pub use msg::{GetStatus, Message, ReadStat, RequestId, UpdateItem};
pub use reliable::{DedupReceiver, ReliableSender};
pub use simnet::{FaultConfig, NetStats, SimNetwork};
