//! Length-prefixed binary framing.
//!
//! Frame layout: `u32` total-length (including the 5-byte header), `u8`
//! message type, then type-specific fields in big-endian. Values
//! (`GetResp`/`PutReq`/`FetchResp`/`Update` items) are carried as **real
//! bytes**, length-prefixed by a `u32`. Every message has exactly one
//! encoding and a frame's length equals its message's
//! [`crate::Message::wire_size`]: the decoder rejects a frame with bytes
//! left over after its fields.
//!
//! The decoder is *streaming*: feed it arbitrary byte chunks, it yields
//! complete messages and buffers partial frames (the Tokio-tutorial
//! framing pattern, without the async machinery the simulation doesn't
//! need). [`FrameCodec::feed`] copies each chunk once, and where the
//! bytes land depends on what they are, so that a value the node caches
//! owns exactly its allocation:
//!
//! * A `PutReq` or `FetchResp` value of [`DEFAULT_PIN_THRESHOLD`] bytes
//!   or more is always its frame's tail. `feed` routes those bytes from
//!   the chunk straight into an allocation of exactly the value's size,
//!   and [`FrameCodec::next`] hands that allocation out as the value.
//!   When the whole payload lies in the chunk being fed, the value is a
//!   single-block [`Bytes`] (`Bytes::copy_from_slice`: the refcount and
//!   the bytes in one allocation). A payload that spans reads lands in
//!   a `Vec` that grows with the bytes that arrive, so a declared size
//!   reserves nothing the peer has not sent.
//! * Everything else — headers, `GetResp` payloads (which clients decode
//!   and drop), shorter values — goes to the accumulation buffer, and
//!   values are sliced out of it as refcounted [`Bytes`] views
//!   (`split_to().freeze()`) without another copy. A short value that
//!   is cached is copied by [`crate::pin::repin_small`] at install.
//! * `Update` item values of the threshold or more (store pushes and
//!   handoff streams, the cold path) are copied out of the frame into
//!   single blocks at decode.
//!
//! Encoding has two shapes: [`FrameCodec::encode`] renders a frame
//! contiguously into one buffer (payload copied — right for the blocking
//! transport), and [`FrameCodec::encode_into`] hands every payload to a
//! caller-supplied sink instead of copying it, which is how
//! [`crate::NonBlockingFramedStream`] builds its zero-copy segment queue.

use crate::msg::{GetStatus, Message, ReadStat, RequestId, UpdateItem};
use crate::pin::DEFAULT_PIN_THRESHOLD;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::VecDeque;
use std::fmt;

/// Maximum accepted frame size; larger frames are a protocol error (guards
/// against a corrupted length prefix swallowing the stream).
pub const MAX_FRAME: usize = 64 << 20;

/// Maximum accepted size of one value payload (16 MiB). A declared
/// `value_size` beyond this is rejected with
/// [`CodecError::ValueTooLarge`]; for single-value messages the check
/// runs as soon as the field's fixed-offset bytes are buffered — a
/// corrupted or hostile length field is refused after a few dozen
/// bytes, not after payload-sized accumulation. (`Update` batches hold
/// values at variable offsets; their buffering, like any frame's, is
/// bounded by [`MAX_FRAME`].) Encoding a message that violates the
/// limit is a programming error (debug-asserted).
pub const MAX_VALUE: usize = 16 << 20;

// Tag numbers are never reused: 1–4, 8–11 and 26 are retired (see
// PROTOCOL.md) and decode to `CodecError::UnknownTag` like any number
// that was never assigned.
//
// Store-path tags: batched pushes and their ack.
const TAG_INVALIDATE: u8 = 5;
const TAG_UPDATE: u8 = 6;
const TAG_ACK: u8 = 7;
// Serving-path tags: every body starts with the u64 request id.
const TAG_GET_REQ: u8 = 12;
const TAG_GET_RESP: u8 = 13;
const TAG_PUT_REQ: u8 = 14;
const TAG_PUT_RESP: u8 = 15;
// Freshness-control-loop tags: cache-node→origin refetch (§3.1's
// backchannel), the read-frequency stats feed for the adaptive policy
// (§3.3), and the counters clients query to observe the loop.
const TAG_FETCH_REQ: u8 = 16;
const TAG_FETCH_RESP: u8 = 17;
const TAG_READ_STATS: u8 = 18;
const TAG_STATS_REQ: u8 = 19;
const TAG_STATS_RESP: u8 = 20;
// Membership tags: versioned ring epochs and join/leave requests. Node
// addresses travel as u16-length-prefixed UTF-8; the member list as a
// u32 count of such entries.
const TAG_RING_UPDATE: u8 = 21;
const TAG_RING_ACK: u8 = 22;
const TAG_RING_REQ: u8 = 23;
const TAG_JOIN_REQ: u8 = 24;
const TAG_LEAVE_REQ: u8 = 25;

/// Maximum accepted length of one member address string. Addresses are
/// host:port text; anything beyond this is a corrupted or hostile frame.
pub const MAX_MEMBER_LEN: usize = 256;

/// Maximum accepted member count in one `RingUpdate`. Far above any
/// deployable cluster size, low enough that a corrupted count cannot
/// drive a large allocation.
pub const MAX_MEMBERS: usize = 4096;

/// Decode errors. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Unknown message type byte (or an unknown enum byte inside a
    /// frame, e.g. a [`GetStatus`] the decoder does not recognise).
    UnknownTag(u8),
    /// Declared frame length exceeds [`MAX_FRAME`] or is shorter than a
    /// header.
    BadLength(u32),
    /// Declared value size exceeds [`MAX_VALUE`].
    ValueTooLarge(u32),
    /// Frame contents shorter than its fields require, or longer.
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            CodecError::BadLength(l) => write!(f, "bad frame length {l}"),
            CodecError::ValueTooLarge(n) => {
                write!(f, "declared value size {n} exceeds the {MAX_VALUE}-byte limit")
            }
            CodecError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bytes of a message that travel as value payloads a zero-copy sink
/// may divert (everything else is headers/fields that always land in
/// the staging buffer).
fn payload_bytes(msg: &Message) -> usize {
    match msg {
        Message::GetResp { value, .. }
        | Message::PutReq { value, .. }
        | Message::FetchResp { value, .. } => value.len(),
        Message::Update { items, .. } => items.iter().map(|it| it.value.len()).sum(),
        _ => 0,
    }
}

/// Streaming frame codec.
///
/// ```
/// use bytes::BytesMut;
/// use fresca_net::{FrameCodec, Message, RequestId};
///
/// // Encode two messages back-to-back...
/// let get = Message::GetReq { id: RequestId(1), key: 1, max_staleness: u64::MAX };
/// let mut wire = BytesMut::new();
/// FrameCodec::encode(&get, &mut wire);
/// FrameCodec::encode(&Message::Ack { seq: 2 }, &mut wire);
///
/// // ...and decode them from arbitrary chunks on the other side.
/// let mut codec = FrameCodec::new();
/// codec.feed(&wire);
/// assert_eq!(codec.next().unwrap(), Some(get));
/// assert_eq!(codec.next().unwrap(), Some(Message::Ack { seq: 2 }));
/// assert_eq!(codec.next().unwrap(), None); // need more bytes
/// ```
#[derive(Debug, Default)]
pub struct FrameCodec {
    /// Every fed byte not yet decoded, except diverted payloads: a
    /// frame whose value was diverted is represented here by its fixed
    /// header alone.
    buf: BytesMut,
    /// Offset in `buf` of the first frame `feed` has not classified
    /// (divert or not). It lies past `buf`'s end while the rest of a
    /// non-diverted frame is still to come.
    scan: usize,
    /// The diverted payload still arriving, if any.
    diverting: Option<Diverting>,
    /// Complete diverted payloads, in frame order: the front one
    /// belongs to the first diverted frame in `buf`.
    ready: VecDeque<Bytes>,
}

/// A payload being routed into its own allocation.
#[derive(Debug)]
struct Diverting {
    value: Vec<u8>,
    declared: usize,
}

/// Offset of the `u32` value_size field in `PutReq` and `FetchResp`
/// frames, length prefix included.
const VALUE_SIZE_AT: usize = 21;

/// Fixed header length (length prefix and tag included) of a frame
/// whose payload `feed` may divert: a `PutReq` or `FetchResp` long
/// enough to carry a [`DEFAULT_PIN_THRESHOLD`]-byte value after its
/// fields. The payload starts right after these bytes.
fn divert_header(tag: u8, len: usize) -> Option<usize> {
    let fixed = match tag {
        TAG_PUT_REQ => 33,
        TAG_FETCH_RESP => 25,
        _ => return None,
    };
    (len >= fixed + DEFAULT_PIN_THRESHOLD).then_some(fixed)
}

/// The size of the payload `feed` diverts out of the frame that starts
/// with `head` and whose length prefix reads `len`: a `PutReq` or
/// `FetchResp` value of at least [`DEFAULT_PIN_THRESHOLD`] bytes, within
/// [`MAX_VALUE`], that is exactly the frame's tail. `None` for every
/// other frame, and while `head` is shorter than the fixed header. The
/// one predicate both `feed` and `next` decide by.
fn diverted_size(head: &[u8], len: usize) -> Option<usize> {
    let fixed = divert_header(*head.get(4)?, len)?;
    if head.len() < fixed {
        return None;
    }
    let field = head.get(VALUE_SIZE_AT..VALUE_SIZE_AT + 4)?;
    let size = u32::from_be_bytes([field[0], field[1], field[2], field[3]]) as usize;
    (size <= MAX_VALUE && fixed + size == len).then_some(size)
}

impl FrameCodec {
    /// New codec with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no partial frame is buffered — i.e. the byte stream, if
    /// it ended here, would end on a clean frame boundary. Used by
    /// [`crate::FramedStream`] to tell a clean EOF from a truncated one.
    /// (A diverted payload, partial or complete, always has its frame's
    /// header waiting in `buf`.)
    pub fn is_idle(&self) -> bool {
        self.buf.is_empty()
    }

    /// True when [`next`](FrameCodec::next) would make progress without
    /// further input: a complete frame is buffered, or the buffered
    /// length prefix is already detectably invalid. Event loops use this
    /// to tell "frames pending in the decoder" apart from "waiting on
    /// the socket" — a connection with buffered frames must be serviced
    /// even if its descriptor never polls readable again.
    pub fn has_frame(&self) -> bool {
        match self.peek_len() {
            None => false,
            Some(Err(_)) => true,
            Some(Ok(len)) => match diverted_size(&self.buf, len) {
                Some(_) => !self.ready.is_empty(),
                None => self.buf.len() >= len || self.early_value_check().is_err(),
            },
        }
    }

    /// Parse the buffered length prefix, the one piece of header
    /// validation shared by [`next`](FrameCodec::next) and
    /// [`has_frame`](FrameCodec::has_frame) (so the two can never
    /// diverge): `None` until 4 bytes are buffered, `Some(Err)` for a
    /// length outside `5..=MAX_FRAME`.
    fn peek_len(&self) -> Option<Result<usize, CodecError>> {
        let buf: &[u8] = &self.buf;
        if buf.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
        if !(5..=MAX_FRAME as u32).contains(&len) {
            return Some(Err(CodecError::BadLength(len)));
        }
        Some(Ok(len as usize))
    }

    /// Encode one message contiguously into `out` (payload bytes are
    /// copied). This is the right shape for the blocking transport and
    /// tests; the event-loop write path uses
    /// [`encode_into`](FrameCodec::encode_into) to keep large payloads
    /// out of its staging buffer entirely.
    pub fn encode(msg: &Message, out: &mut BytesMut) {
        // The sink below copies payloads into `out`, so the full frame
        // lands here — reserve for all of it up front.
        out.reserve(msg.wire_size().min(MAX_FRAME));
        Self::encode_into(msg, out, |out, payload| out.extend_from_slice(payload));
    }

    /// Encode one message, routing every non-empty value payload through
    /// `emit_payload` instead of unconditionally copying it. The sink is
    /// called exactly where the payload's bytes belong in the frame; it
    /// may copy them into `out` (then the result is byte-identical to
    /// [`encode`](FrameCodec::encode)) or divert the refcounted
    /// [`Bytes`] handle into a scatter-gather segment queue, leaving
    /// `out` holding only the bytes *around* it. Empty payloads occupy
    /// no frame bytes, so the sink never sees them.
    pub fn encode_into(
        msg: &Message,
        out: &mut BytesMut,
        mut emit_payload: impl FnMut(&mut BytesMut, &Bytes),
    ) {
        let mut emit_payload = move |out: &mut BytesMut, payload: &Bytes| {
            if !payload.is_empty() {
                emit_payload(out, payload);
            }
        };
        let total = msg.wire_size();
        debug_assert!(total <= MAX_FRAME, "frame exceeds MAX_FRAME");
        // Reserve only the bytes guaranteed to land in `out`: the sink
        // may divert every payload to a segment queue, and a 16 MiB
        // value must not force a 16 MiB staging allocation for ~34
        // header bytes. (A sink that copies payloads inline just grows
        // `out` as it goes; `encode` pre-reserves the full frame.)
        out.reserve((total - payload_bytes(msg)).min(MAX_FRAME));
        out.put_u32(total as u32);
        match msg {
            Message::Invalidate { seq, keys } => {
                out.put_u8(TAG_INVALIDATE);
                out.put_u64(*seq);
                out.put_u32(keys.len() as u32);
                for k in keys {
                    out.put_u64(*k);
                }
            }
            Message::Update { seq, items } => {
                out.put_u8(TAG_UPDATE);
                out.put_u64(*seq);
                out.put_u32(items.len() as u32);
                for it in items {
                    debug_assert!(it.value.len() <= MAX_VALUE, "value exceeds MAX_VALUE");
                    out.put_u64(it.key);
                    out.put_u64(it.version);
                    out.put_u32(it.value.len() as u32);
                    emit_payload(out, &it.value);
                }
            }
            Message::Ack { seq } => {
                out.put_u8(TAG_ACK);
                out.put_u64(*seq);
            }
            Message::GetReq { id, key, max_staleness } => {
                out.put_u8(TAG_GET_REQ);
                out.put_u64(id.0);
                out.put_u64(*key);
                out.put_u64(*max_staleness);
            }
            Message::GetResp { id, key, version, value, age, status } => {
                debug_assert!(value.len() <= MAX_VALUE, "value exceeds MAX_VALUE");
                out.put_u8(TAG_GET_RESP);
                out.put_u64(id.0);
                out.put_u64(*key);
                out.put_u64(*version);
                out.put_u32(value.len() as u32);
                out.put_u64(*age);
                out.put_u8(status.as_u8());
                emit_payload(out, value);
            }
            Message::PutReq { id, key, value, ttl } => {
                debug_assert!(value.len() <= MAX_VALUE, "value exceeds MAX_VALUE");
                out.put_u8(TAG_PUT_REQ);
                out.put_u64(id.0);
                out.put_u64(*key);
                out.put_u32(value.len() as u32);
                out.put_u64(*ttl);
                emit_payload(out, value);
            }
            Message::PutResp { id, key, version } => {
                out.put_u8(TAG_PUT_RESP);
                out.put_u64(id.0);
                out.put_u64(*key);
                out.put_u64(*version);
            }
            Message::FetchReq { key } => {
                out.put_u8(TAG_FETCH_REQ);
                out.put_u64(*key);
            }
            Message::FetchResp { key, version, value } => {
                debug_assert!(value.len() <= MAX_VALUE, "value exceeds MAX_VALUE");
                out.put_u8(TAG_FETCH_RESP);
                out.put_u64(*key);
                out.put_u64(*version);
                out.put_u32(value.len() as u32);
                emit_payload(out, value);
            }
            Message::ReadStats { entries } => {
                out.put_u8(TAG_READ_STATS);
                out.put_u32(entries.len() as u32);
                for e in entries {
                    out.put_u64(e.key);
                    out.put_u32(e.reads);
                }
            }
            Message::StatsReq => {
                out.put_u8(TAG_STATS_REQ);
            }
            Message::StatsResp {
                refetches,
                refetch_coalesced,
                origin_errors,
                cross_core_forwards,
                slab_entries,
                slab_capacity,
                epoch,
                handoff_in,
                handoff_out,
            } => {
                out.put_u8(TAG_STATS_RESP);
                out.put_u64(*refetches);
                out.put_u64(*refetch_coalesced);
                out.put_u64(*origin_errors);
                out.put_u64(*cross_core_forwards);
                out.put_u64(*slab_entries);
                out.put_u64(*slab_capacity);
                out.put_u64(*epoch);
                out.put_u64(*handoff_in);
                out.put_u64(*handoff_out);
            }
            Message::RingUpdate { epoch, members } => {
                debug_assert!(members.len() <= MAX_MEMBERS, "member count exceeds limit");
                out.put_u8(TAG_RING_UPDATE);
                out.put_u64(*epoch);
                out.put_u32(members.len() as u32);
                for m in members {
                    debug_assert!(m.len() <= MAX_MEMBER_LEN, "member address too long");
                    out.put_u16(m.len() as u16);
                    out.extend_from_slice(m.as_bytes());
                }
            }
            Message::RingAck { epoch } => {
                out.put_u8(TAG_RING_ACK);
                out.put_u64(*epoch);
            }
            Message::RingReq => {
                out.put_u8(TAG_RING_REQ);
            }
            Message::JoinReq { node } => {
                debug_assert!(node.len() <= MAX_MEMBER_LEN, "member address too long");
                out.put_u8(TAG_JOIN_REQ);
                out.put_u16(node.len() as u16);
                out.extend_from_slice(node.as_bytes());
            }
            Message::LeaveReq { node } => {
                debug_assert!(node.len() <= MAX_MEMBER_LEN, "member address too long");
                out.put_u8(TAG_LEAVE_REQ);
                out.put_u16(node.len() as u16);
                out.extend_from_slice(node.as_bytes());
            }
        }
    }

    /// Feed raw bytes into the decoder. Each byte is copied once: a
    /// large `PutReq`/`FetchResp` payload into its own exact allocation
    /// (one block when it arrives whole), everything else into the
    /// accumulation buffer (see the module docs).
    pub fn feed(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            let Some(d) = self.diverting.as_mut() else {
                let (keep, divert) = self.route(data);
                self.buf.extend_from_slice(&data[..keep]);
                data = &data[keep..];
                if let Some(declared) = divert {
                    if let Some(whole) = data.get(..declared) {
                        // All of it is here: one block holding the
                        // refcount and the bytes, filled by one memcpy.
                        self.ready.push_back(Bytes::copy_from_slice(whole));
                        data = &data[declared..];
                    } else {
                        self.diverting = Some(Diverting { value: Vec::new(), declared });
                    }
                }
                continue;
            };
            let take = (d.declared - d.value.len()).min(data.len());
            let want = d.value.len() + take;
            if want > d.value.capacity() {
                // Grow with what has arrived (doubling, so a trickled
                // value costs amortised O(1) per byte), never past the
                // declared size: the finished allocation is exact.
                let target = want.max(2 * d.value.capacity()).min(d.declared);
                d.value.reserve_exact(target - d.value.len());
            }
            d.value.extend_from_slice(&data[..take]);
            data = &data[take..];
            if d.value.len() == d.declared {
                self.ready.push_back(Bytes::from(std::mem::take(&mut d.value)));
                self.diverting = None;
            }
        }
    }

    /// Walk the frames `data` continues, from the first one not yet
    /// classified. Returns how many leading bytes of `data` go to `buf`
    /// and, if the walk reached a payload to divert, its size — the
    /// payload then starts right after those bytes.
    fn route(&mut self, data: &[u8]) -> (usize, Option<usize>) {
        let base = self.buf.len();
        let mut straddle = [0u8; 33]; // the longest `divert_header`
        loop {
            let at = self.scan;
            // The frame's first bytes: a slice of `data` when the frame
            // starts there, else copied from the tail of `buf` and `data`.
            let head: &[u8] = match at.checked_sub(base) {
                Some(off) => data.get(off..).unwrap_or_default(),
                None => {
                    let buffered = &self.buf[at..];
                    let n = buffered.len().min(straddle.len());
                    straddle[..n].copy_from_slice(&buffered[..n]);
                    let m = data.len().min(straddle.len() - n);
                    straddle[n..n + m].copy_from_slice(&data[..m]);
                    &straddle[..n + m]
                }
            };
            let Some(&[a, b, c, d, tag]) = head.first_chunk::<5>() else {
                // Inside a frame already classified, or its length and
                // tag are not all here yet.
                return (data.len(), None);
            };
            let len = u32::from_be_bytes([a, b, c, d]) as usize;
            if !(5..=MAX_FRAME).contains(&len) {
                // A dead stream: `next` reports the length; nothing
                // after it is ever decoded.
                return (data.len(), None);
            }
            if let Some(fixed) = divert_header(tag, len) {
                if head.len() < fixed {
                    return (data.len(), None);
                }
                if let Some(size) = diverted_size(head, len) {
                    // The header completes inside `data` (it would have
                    // been classified by an earlier feed otherwise).
                    self.scan = at + fixed;
                    return (self.scan - base, Some(size));
                }
            }
            self.scan = at + len;
        }
    }

    /// Try to decode the next complete frame. `Ok(None)` means "need more
    /// bytes". (Named like, but distinct from, `Iterator::next` — the
    /// fallible tri-state return does not fit the trait.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Message>, CodecError> {
        let len = match self.peek_len() {
            None => return Ok(None),
            Some(Err(e)) => return Err(e),
            Some(Ok(len)) => len,
        };
        let (held, diverted) = match diverted_size(&self.buf, len) {
            Some(size) => match self.ready.pop_front() {
                Some(value) => (len - size, Some(value)),
                // The header is here, the payload is still arriving.
                None => return Ok(None),
            },
            None if self.buf.len() < len => {
                // The frame is incomplete, but for single-value messages
                // the declared value size sits at a fixed offset —
                // reject an over-limit declaration now rather than
                // buffering up to MAX_FRAME of a payload that can never
                // decode.
                self.early_value_check()?;
                return Ok(None);
            }
            None => (len, None),
        };
        let mut frame = self.buf.split_to(held);
        self.scan -= held;
        frame.advance(4); // length
        let tag = frame.get_u8();
        let msg = Self::decode_body(tag, &mut frame, diverted)?;
        if !frame.is_empty() {
            // The length prefix promised more than the message holds:
            // two byte strings must never mean the same message.
            return Err(CodecError::Malformed("trailing bytes"));
        }
        Ok(Some(msg))
    }

    /// Early rejection for partial frames: if the buffered prefix of a
    /// payload-carrying message already shows a `value_size` beyond
    /// [`MAX_VALUE`], fail now. Covers every fixed-offset value field
    /// (`GetResp`, `PutReq`, `FetchResp` and an `Update` batch's first
    /// item); later `Update` items sit at variable offsets and are
    /// caught at decode, where buffering is bounded by [`MAX_FRAME`]
    /// like any other batch.
    fn early_value_check(&self) -> Result<(), CodecError> {
        let buf: &[u8] = &self.buf;
        if buf.len() < 5 {
            return Ok(());
        }
        // Offset of the u32 value_size field from the frame start.
        let at = match buf[4] {
            TAG_PUT_REQ | TAG_FETCH_RESP => VALUE_SIZE_AT,
            TAG_GET_RESP => 29,
            TAG_UPDATE => 33, // first item's value_size
            _ => return Ok(()),
        };
        if buf.len() < at + 4 {
            return Ok(());
        }
        let declared = u32::from_be_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]);
        if declared as usize > MAX_VALUE {
            return Err(CodecError::ValueTooLarge(declared));
        }
        Ok(())
    }

    fn need(frame: &BytesMut, n: usize, what: &'static str) -> Result<(), CodecError> {
        if frame.remaining() < n {
            Err(CodecError::Malformed(what))
        } else {
            Ok(())
        }
    }

    /// Validate a declared payload size and slice that many bytes out of
    /// the frame as a refcounted view: no payload-sized buffer is
    /// allocated, the returned [`Bytes`] shares the accumulation
    /// buffer's allocation.
    fn take_value(
        frame: &mut BytesMut,
        declared: u32,
        what: &'static str,
    ) -> Result<Bytes, CodecError> {
        if declared as usize > MAX_VALUE {
            return Err(CodecError::ValueTooLarge(declared));
        }
        Self::need(frame, declared as usize, what)?;
        Ok(frame.split_to(declared as usize).freeze())
    }

    /// Decode the fields after the tag. `diverted` is the frame's value
    /// when `feed` routed it out of the buffer (then `frame` ends where
    /// the value would have begun).
    fn decode_body(
        tag: u8,
        frame: &mut BytesMut,
        diverted: Option<Bytes>,
    ) -> Result<Message, CodecError> {
        match tag {
            TAG_INVALIDATE => {
                Self::need(frame, 12, "invalidate header")?;
                let seq = frame.get_u64();
                let n = frame.get_u32() as usize;
                Self::need(frame, n * 8, "invalidate keys")?;
                let keys = (0..n).map(|_| frame.get_u64()).collect();
                Ok(Message::Invalidate { seq, keys })
            }
            TAG_UPDATE => {
                Self::need(frame, 12, "update header")?;
                let seq = frame.get_u64();
                let n = frame.get_u32() as usize;
                let mut items = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    Self::need(frame, 20, "update item header")?;
                    let key = frame.get_u64();
                    let version = frame.get_u64();
                    let value_size = frame.get_u32();
                    let mut value = Self::take_value(frame, value_size, "update item value")?;
                    if value.len() >= DEFAULT_PIN_THRESHOLD {
                        // Pushes and handoff streams are the cold path:
                        // copy a value long enough to be cached as-is
                        // out of the frame, so it cannot pin the buffer.
                        value = Bytes::copy_from_slice(&value);
                    }
                    items.push(UpdateItem { key, version, value });
                }
                Ok(Message::Update { seq, items })
            }
            TAG_ACK => {
                Self::need(frame, 8, "ack")?;
                Ok(Message::Ack { seq: frame.get_u64() })
            }
            TAG_GET_REQ => Self::decode_get_req(frame),
            TAG_GET_RESP => Self::decode_get_resp(frame),
            TAG_PUT_REQ => Self::decode_put_req(frame, diverted),
            TAG_PUT_RESP => Self::decode_put_resp(frame),
            TAG_FETCH_REQ => {
                Self::need(frame, 8, "fetch-req key")?;
                Ok(Message::FetchReq { key: frame.get_u64() })
            }
            TAG_FETCH_RESP => {
                Self::need(frame, 20, "fetch-resp header")?;
                let key = frame.get_u64();
                let version = frame.get_u64();
                let value_size = frame.get_u32();
                let value = match diverted {
                    Some(value) => value,
                    None => Self::take_value(frame, value_size, "fetch-resp value")?,
                };
                Ok(Message::FetchResp { key, version, value })
            }
            TAG_READ_STATS => {
                Self::need(frame, 4, "read-stats header")?;
                let n = frame.get_u32() as usize;
                Self::need(frame, n * 12, "read-stats entries")?;
                let entries = (0..n)
                    .map(|_| ReadStat { key: frame.get_u64(), reads: frame.get_u32() })
                    .collect();
                Ok(Message::ReadStats { entries })
            }
            TAG_STATS_REQ => Ok(Message::StatsReq),
            TAG_STATS_RESP => {
                Self::need(frame, 72, "stats-resp")?;
                Ok(Message::StatsResp {
                    refetches: frame.get_u64(),
                    refetch_coalesced: frame.get_u64(),
                    origin_errors: frame.get_u64(),
                    cross_core_forwards: frame.get_u64(),
                    slab_entries: frame.get_u64(),
                    slab_capacity: frame.get_u64(),
                    epoch: frame.get_u64(),
                    handoff_in: frame.get_u64(),
                    handoff_out: frame.get_u64(),
                })
            }
            TAG_RING_UPDATE => {
                Self::need(frame, 12, "ring-update header")?;
                let epoch = frame.get_u64();
                let n = frame.get_u32() as usize;
                if n > MAX_MEMBERS {
                    return Err(CodecError::Malformed("ring-update member count"));
                }
                let mut members = Vec::with_capacity(n);
                for _ in 0..n {
                    members.push(Self::take_member(frame, "ring-update member")?);
                }
                Ok(Message::RingUpdate { epoch, members })
            }
            TAG_RING_ACK => {
                Self::need(frame, 8, "ring-ack")?;
                Ok(Message::RingAck { epoch: frame.get_u64() })
            }
            TAG_RING_REQ => Ok(Message::RingReq),
            TAG_JOIN_REQ => {
                Ok(Message::JoinReq { node: Self::take_member(frame, "join-req node")? })
            }
            TAG_LEAVE_REQ => {
                Ok(Message::LeaveReq { node: Self::take_member(frame, "leave-req node")? })
            }
            t => Err(CodecError::UnknownTag(t)),
        }
    }

    /// Decode one u16-length-prefixed UTF-8 member address. Rejects
    /// lengths over [`MAX_MEMBER_LEN`] and non-UTF-8 bytes as
    /// [`CodecError::Malformed`].
    fn take_member(frame: &mut BytesMut, what: &'static str) -> Result<String, CodecError> {
        Self::need(frame, 2, what)?;
        let len = frame.get_u16() as usize;
        if len > MAX_MEMBER_LEN {
            return Err(CodecError::Malformed(what));
        }
        Self::need(frame, len, what)?;
        let raw = frame.split_to(len);
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::Malformed(what))
    }

    /// Read a big-endian `u64` at `at` in an already-length-checked
    /// header slice. Compiles to one load — the serving-path decoders
    /// read request id and fixed header through one bounds check and one
    /// slice borrow instead of a cursor advance per field.
    #[inline]
    fn be_u64(hdr: &[u8], at: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&hdr[at..at + 8]);
        u64::from_be_bytes(b)
    }

    #[inline]
    fn be_u32(hdr: &[u8], at: usize) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&hdr[at..at + 4]);
        u32::from_be_bytes(b)
    }

    fn decode_get_req(frame: &mut BytesMut) -> Result<Message, CodecError> {
        Self::need(frame, 24, "get-req")?;
        let hdr: &[u8] = frame;
        let id = RequestId(Self::be_u64(hdr, 0));
        let key = Self::be_u64(hdr, 8);
        let max_staleness = Self::be_u64(hdr, 16);
        frame.advance(24);
        Ok(Message::GetReq { id, key, max_staleness })
    }

    fn decode_get_resp(frame: &mut BytesMut) -> Result<Message, CodecError> {
        Self::need(frame, 37, "get-resp header")?;
        let hdr: &[u8] = frame;
        let id = RequestId(Self::be_u64(hdr, 0));
        let key = Self::be_u64(hdr, 8);
        let version = Self::be_u64(hdr, 16);
        let value_size = Self::be_u32(hdr, 24);
        let age = Self::be_u64(hdr, 28);
        let status_byte = hdr[36];
        let status =
            GetStatus::from_u8(status_byte).ok_or(CodecError::UnknownTag(status_byte))?;
        frame.advance(37);
        let value = Self::take_value(frame, value_size, "get-resp value")?;
        Ok(Message::GetResp { id, key, version, value, age, status })
    }

    fn decode_put_req(
        frame: &mut BytesMut,
        diverted: Option<Bytes>,
    ) -> Result<Message, CodecError> {
        Self::need(frame, 28, "put-req header")?;
        let hdr: &[u8] = frame;
        let id = RequestId(Self::be_u64(hdr, 0));
        let key = Self::be_u64(hdr, 8);
        let value_size = Self::be_u32(hdr, 16);
        let ttl = Self::be_u64(hdr, 20);
        frame.advance(28);
        let value = match diverted {
            Some(value) => value,
            None => Self::take_value(frame, value_size, "put-req value")?,
        };
        Ok(Message::PutReq { id, key, value, ttl })
    }

    fn decode_put_resp(frame: &mut BytesMut) -> Result<Message, CodecError> {
        Self::need(frame, 24, "put-resp")?;
        let hdr: &[u8] = frame;
        let id = RequestId(Self::be_u64(hdr, 0));
        let key = Self::be_u64(hdr, 8);
        let version = Self::be_u64(hdr, 16);
        frame.advance(24);
        Ok(Message::PutResp { id, key, version })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(msg: &Message) -> Message {
        let mut out = BytesMut::new();
        FrameCodec::encode(msg, &mut out);
        assert_eq!(out.len(), msg.wire_size(), "wire_size must match encoding");
        let mut codec = FrameCodec::new();
        codec.feed(&out);
        codec.next().unwrap().expect("complete frame")
    }

    #[test]
    fn all_variants_roundtrip() {
        let msgs = vec![
            Message::Invalidate { seq: 9, keys: vec![1, 2, 3] },
            Message::Invalidate { seq: 10, keys: vec![] },
            Message::Update {
                seq: 11,
                items: vec![
                    UpdateItem { key: 1, version: 2, value: crate::payload::pattern(1, 10) },
                    UpdateItem { key: 2, version: 9, value: Bytes::new() },
                ],
            },
            Message::Ack { seq: 12 },
            Message::GetReq { id: RequestId(1), key: 3, max_staleness: u64::MAX },
            // Id 0 is an id like any other: it travels, it comes back.
            Message::GetReq { id: RequestId(0), key: 3, max_staleness: 5 },
            Message::GetResp {
                id: RequestId(u64::MAX),
                key: 3,
                version: 8,
                value: crate::payload::pattern(3, 77),
                age: 1_000_000,
                status: GetStatus::ServedStale,
            },
            Message::GetResp {
                id: RequestId(2),
                key: 4,
                version: 0,
                value: Bytes::new(),
                age: 0,
                status: GetStatus::Miss,
            },
            Message::PutReq {
                id: RequestId(3),
                key: 5,
                value: crate::payload::pattern(5, 256),
                ttl: 2_000_000_000,
            },
            Message::PutResp { id: RequestId(3), key: 5, version: 1 },
            Message::FetchReq { key: 6 },
            Message::FetchResp { key: 6, version: 2, value: crate::payload::pattern(6, 33) },
            Message::FetchResp { key: 7, version: 0, value: Bytes::new() },
            Message::ReadStats {
                entries: vec![ReadStat { key: 1, reads: 3 }, ReadStat { key: 2, reads: 1 }],
            },
            Message::ReadStats { entries: vec![] },
            Message::StatsReq,
            Message::StatsResp {
                refetches: 5,
                refetch_coalesced: 2,
                origin_errors: 0,
                cross_core_forwards: 9,
                slab_entries: 1024,
                slab_capacity: 2048,
                epoch: 3,
                handoff_in: 17,
                handoff_out: 4,
            },
            Message::RingUpdate {
                epoch: 7,
                members: vec!["127.0.0.1:7001".into(), "127.0.0.1:7002".into()],
            },
            Message::RingUpdate { epoch: 0, members: vec![] },
            Message::RingAck { epoch: 7 },
            Message::RingReq,
            Message::JoinReq { node: "10.0.0.3:7003".into() },
            Message::LeaveReq { node: "10.0.0.3:7003".into() },
        ];
        for m in msgs {
            assert_eq!(roundtrip(&m), m);
        }
    }

    #[test]
    fn rejects_oversized_fetch_resp_before_buffering_the_payload() {
        // The fetch-resp value_size sits at a fixed offset; the early
        // check must refuse an over-limit declaration after ~25 header
        // bytes, not after 16 MiB.
        let declared = (MAX_VALUE as u32) + 1;
        let mut prefix = BytesMut::new();
        prefix.put_u32(5 + 20 + declared);
        prefix.put_u8(TAG_FETCH_RESP);
        prefix.put_u64(1); // key
        prefix.put_u64(1); // version
        prefix.put_u32(declared);
        let mut codec = FrameCodec::new();
        codec.feed(&prefix);
        assert!(codec.has_frame(), "poisoned prefix must be serviced without more input");
        assert_eq!(codec.next(), Err(CodecError::ValueTooLarge(declared)));
    }

    #[test]
    fn rejects_read_stats_count_beyond_frame() {
        // A read-stats header claiming 1<<29 entries inside a tiny frame
        // must fail on the missing entries, not allocate or spin.
        let mut frame = BytesMut::new();
        frame.put_u32(5 + 4);
        frame.put_u8(TAG_READ_STATS);
        frame.put_u32(1 << 29);
        let mut codec = FrameCodec::new();
        codec.feed(&frame);
        assert_eq!(codec.next(), Err(CodecError::Malformed("read-stats entries")));
    }

    #[test]
    fn streaming_partial_feeds() {
        let msg = Message::Update {
            seq: 5,
            items: vec![UpdateItem { key: 8, version: 1, value: crate::payload::pattern(8, 64) }],
        };
        let mut encoded = BytesMut::new();
        FrameCodec::encode(&msg, &mut encoded);
        let mut codec = FrameCodec::new();
        // Feed one byte at a time; must yield exactly once, at the end.
        let mut yielded = Vec::new();
        for (i, b) in encoded.iter().enumerate() {
            codec.feed(&[*b]);
            if let Some(m) = codec.next().unwrap() {
                yielded.push((i, m));
            }
        }
        assert_eq!(yielded.len(), 1);
        assert_eq!(yielded[0].0, encoded.len() - 1);
        assert_eq!(yielded[0].1, msg);
    }

    #[test]
    fn multiple_frames_in_one_feed() {
        let a = Message::FetchReq { key: 1 };
        let b = Message::Ack { seq: 2 };
        let mut encoded = BytesMut::new();
        FrameCodec::encode(&a, &mut encoded);
        FrameCodec::encode(&b, &mut encoded);
        let mut codec = FrameCodec::new();
        codec.feed(&encoded);
        assert_eq!(codec.next().unwrap(), Some(a));
        assert_eq!(codec.next().unwrap(), Some(b));
        assert_eq!(codec.next().unwrap(), None);
    }

    #[test]
    fn rejects_absurd_length() {
        let mut codec = FrameCodec::new();
        codec.feed(&[0xFF, 0xFF, 0xFF, 0xFF, 1]);
        assert!(matches!(codec.next(), Err(CodecError::BadLength(_))));
        let mut codec = FrameCodec::new();
        codec.feed(&[0, 0, 0, 2, 0]);
        assert!(matches!(codec.next(), Err(CodecError::BadLength(2))));
    }

    #[test]
    fn rejects_truncated_fields() {
        // Frame claims length 9 with tag fetch-req but only 4 key bytes.
        let mut codec = FrameCodec::new();
        codec.feed(&[0, 0, 0, 9, TAG_FETCH_REQ, 1, 2, 3, 4]);
        assert_eq!(codec.next(), Err(CodecError::Malformed("fetch-req key")));
        // Same for a serving-path frame that ends inside its request id:
        // the id is part of the fixed header, checked with it.
        codec.feed(&[0, 0, 0, 9, TAG_PUT_RESP, 0, 0, 0, 1]);
        assert_eq!(codec.next(), Err(CodecError::Malformed("put-resp")));
    }

    #[test]
    fn rejects_frame_just_over_max() {
        // A length one past MAX_FRAME is a protocol error before any
        // payload arrives — a corrupted prefix must not make the decoder
        // wait for 64 MiB that will never come.
        let len = (MAX_FRAME as u32) + 1;
        let mut codec = FrameCodec::new();
        codec.feed(&len.to_be_bytes());
        assert_eq!(codec.next(), Err(CodecError::BadLength(len)));
    }

    #[test]
    fn rejects_truncated_value_payload() {
        // A fetch-resp whose declared value_size exceeds the bytes actually
        // present in the frame must error, not read past the frame.
        let mut frame = BytesMut::new();
        frame.put_u32(5 + 20 + 4); // header + fields + only 4 value bytes
        frame.put_u8(TAG_FETCH_RESP);
        frame.put_u64(1); // key
        frame.put_u64(1); // version
        frame.put_u32(1000); // claims a 1000-byte value
        frame.put_bytes(0, 4);
        let mut codec = FrameCodec::new();
        codec.feed(&frame);
        assert_eq!(codec.next(), Err(CodecError::Malformed("fetch-resp value")));
    }

    #[test]
    fn rejects_update_item_count_beyond_frame() {
        // An update header claiming 1<<30 items inside a small frame must
        // fail on the first missing item, not allocate or spin.
        let mut frame = BytesMut::new();
        frame.put_u32(5 + 12);
        frame.put_u8(TAG_UPDATE);
        frame.put_u64(1); // seq
        frame.put_u32(1 << 30); // item count
        let mut codec = FrameCodec::new();
        codec.feed(&frame);
        assert_eq!(codec.next(), Err(CodecError::Malformed("update item header")));
    }

    #[test]
    fn rejects_ring_update_member_count_beyond_limit() {
        // A ring-update header claiming an absurd member count must be
        // refused before any per-member allocation happens.
        let mut frame = BytesMut::new();
        frame.put_u32(5 + 12);
        frame.put_u8(TAG_RING_UPDATE);
        frame.put_u64(1); // epoch
        frame.put_u32((MAX_MEMBERS as u32) + 1);
        let mut codec = FrameCodec::new();
        codec.feed(&frame);
        assert_eq!(codec.next(), Err(CodecError::Malformed("ring-update member count")));
    }

    #[test]
    fn rejects_truncated_and_non_utf8_members() {
        // A member entry whose declared length runs past the frame end.
        let mut frame = BytesMut::new();
        frame.put_u32(5 + 12 + 2 + 3);
        frame.put_u8(TAG_RING_UPDATE);
        frame.put_u64(1); // epoch
        frame.put_u32(1); // one member
        frame.put_u16(100); // claims 100 bytes, only 3 present
        frame.put_slice(b"abc");
        let mut codec = FrameCodec::new();
        codec.feed(&frame);
        assert_eq!(codec.next(), Err(CodecError::Malformed("ring-update member")));

        // A join-req whose address bytes are not UTF-8.
        let mut frame = BytesMut::new();
        frame.put_u32(5 + 2 + 2);
        frame.put_u8(TAG_JOIN_REQ);
        frame.put_u16(2);
        frame.put_slice(&[0xFF, 0xFE]);
        let mut codec = FrameCodec::new();
        codec.feed(&frame);
        assert_eq!(codec.next(), Err(CodecError::Malformed("join-req node")));

        // A member length field over MAX_MEMBER_LEN is refused even if
        // the frame claims to contain that many bytes.
        let mut frame = BytesMut::new();
        let too_long = (MAX_MEMBER_LEN as u16) + 1;
        frame.put_u32(5 + 2 + too_long as u32);
        frame.put_u8(TAG_LEAVE_REQ);
        frame.put_u16(too_long);
        frame.put_bytes(b'a', too_long as usize);
        let mut codec = FrameCodec::new();
        codec.feed(&frame);
        assert_eq!(codec.next(), Err(CodecError::Malformed("leave-req node")));
    }

    #[test]
    fn rejects_unknown_get_status_byte() {
        let mut frame = BytesMut::new();
        frame.put_u32(5 + 37);
        frame.put_u8(TAG_GET_RESP);
        frame.put_u64(1); // request id
        frame.put_u64(1); // key
        frame.put_u64(1); // version
        frame.put_u32(0); // value_size
        frame.put_u64(0); // age
        frame.put_u8(200); // bogus status
        let mut codec = FrameCodec::new();
        codec.feed(&frame);
        assert_eq!(codec.next(), Err(CodecError::UnknownTag(200)));
    }

    /// Hand-encode a frame: `u32` length, tag, then `body`.
    fn raw_frame(tag: u8, body: &[u8]) -> BytesMut {
        let mut frame = BytesMut::new();
        frame.put_u32(5 + body.len() as u32);
        frame.put_u8(tag);
        frame.extend_from_slice(body);
        frame
    }

    #[test]
    fn retired_tags_are_unknown() {
        // Each retired number with the body it used to carry: the old
        // store fetch/write frames (1–4), the id-less serving frames
        // (8–11) and the handoff marker (26). None may decode again,
        // any more than a number that was never assigned.
        let get_resp = [&[0u8; 28][..], &[GetStatus::Miss.as_u8()]].concat();
        let retired: [(u8, &[u8]); 10] = [
            (1, &[0; 8]),   // key
            (2, &[0; 20]),  // key, version, value_size = 0
            (3, &[0; 12]),  // key, value_size = 0
            (4, &[0; 16]),  // key, version
            (8, &[0; 16]),  // key, max_staleness
            (9, &get_resp), // key, version, value_size = 0, age, status
            (10, &[0; 20]), // key, value_size = 0, ttl
            (11, &[0; 16]), // key, version
            (26, &[0; 16]), // epoch, keys
            (99, &[0]),
        ];
        for (tag, body) in retired {
            let mut codec = FrameCodec::new();
            codec.feed(&raw_frame(tag, body));
            assert_eq!(codec.next(), Err(CodecError::UnknownTag(tag)), "tag {tag}");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        // 00 00 00 64 13 <95 × AB>: a StatsReq has no body, so the 95
        // bytes its length prefix claims belong to no field.
        let mut codec = FrameCodec::new();
        codec.feed(&raw_frame(TAG_STATS_REQ, &[0xAB; 95]));
        assert_eq!(codec.next(), Err(CodecError::Malformed("trailing bytes")));

        // A GetReq with 8 bytes too many — what mixing up the framing
        // of the request id would look like.
        let mut wire = BytesMut::new();
        FrameCodec::encode(
            &Message::GetReq { id: RequestId(1), key: 2, max_staleness: 3 },
            &mut wire,
        );
        let mut codec = FrameCodec::new();
        codec.feed(&raw_frame(TAG_GET_REQ, &[&wire[5..], &[0u8; 8][..]].concat()));
        assert_eq!(codec.next(), Err(CodecError::Malformed("trailing bytes")));
        // The frame is consumed whole, so the stream stays aligned.
        codec.feed(&wire);
        assert!(matches!(codec.next(), Ok(Some(Message::GetReq { .. }))));
    }

    #[test]
    fn encoder_emits_id_carrying_tags() {
        let mut wire = BytesMut::new();
        FrameCodec::encode(
            &Message::GetReq { id: RequestId(5), key: 1, max_staleness: 0 },
            &mut wire,
        );
        assert_eq!(wire[4], TAG_GET_REQ, "byte after the length prefix is the tag");
        // The id travels big-endian immediately after the tag.
        assert_eq!(&wire[5..13], &5u64.to_be_bytes());
    }

    #[test]
    fn recovers_after_skipping_bad_frame() {
        // The frame is length-delimited, so after an in-frame decode error
        // the stream stays aligned: the next frame still parses.
        let mut wire = BytesMut::new();
        wire.put_u32(6);
        wire.put_u8(99); // unknown tag
        wire.put_u8(0);
        FrameCodec::encode(&Message::Ack { seq: 5 }, &mut wire);
        let mut codec = FrameCodec::new();
        codec.feed(&wire);
        assert_eq!(codec.next(), Err(CodecError::UnknownTag(99)));
        assert_eq!(codec.next().unwrap(), Some(Message::Ack { seq: 5 }));
    }

    #[test]
    fn decoded_payloads_share_the_accumulation_buffer() {
        // Two GetResp frames fed in ONE chunk: both decoded values must
        // be views of the same backing allocation (the codec's
        // accumulation buffer) — the zero-copy contract for payloads
        // clients decode and drop. A copying decoder would hand each
        // payload its own allocation.
        let resp = |id, key| Message::GetResp {
            id: RequestId(id),
            key,
            version: 1,
            value: crate::payload::pattern(key, 4096),
            age: 0,
            status: GetStatus::Fresh,
        };
        let mut wire = BytesMut::new();
        FrameCodec::encode(&resp(1, 7), &mut wire);
        FrameCodec::encode(&resp(2, 8), &mut wire);
        let mut codec = FrameCodec::new();
        codec.feed(&wire);
        let (Some(Message::GetResp { value: va, .. }), Some(Message::GetResp { value: vb, .. })) =
            (codec.next().unwrap(), codec.next().unwrap())
        else {
            panic!("expected the two payload frames back");
        };
        assert!(va.shares_allocation_with(&vb), "payloads were copied, not sliced");
        assert_eq!(va, crate::payload::pattern(7, 4096), "contents survive the slice");
        assert_eq!(vb, crate::payload::pattern(8, 4096));
    }

    #[test]
    fn large_put_and_fetch_values_arrive_in_exact_allocations() {
        // One chunk, three frames: the PutReq and FetchResp values from
        // the threshold up own exactly their bytes and share nothing;
        // the short PutReq value is a view of the buffer (the install
        // site re-pins it).
        let put = |id, len| Message::PutReq {
            id: RequestId(id),
            key: id,
            value: crate::payload::pattern(id, len),
            ttl: 0,
        };
        let fetch =
            Message::FetchResp { key: 9, version: 2, value: crate::payload::pattern(9, 700) };
        let mut wire = BytesMut::new();
        for m in [put(1, DEFAULT_PIN_THRESHOLD), put(2, 100), fetch.clone()] {
            FrameCodec::encode(&m, &mut wire);
        }
        let mut codec = FrameCodec::new();
        codec.feed(&wire);
        let mut values = Vec::new();
        while let Some(msg) = codec.next().unwrap() {
            match msg {
                Message::PutReq { ref value, .. } | Message::FetchResp { ref value, .. } => {
                    values.push(value.clone());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(codec.is_idle());
        assert_eq!(values.len(), 3);
        let (large, small, fetched) = (&values[0], &values[1], &values[2]);
        assert_eq!(large, &crate::payload::pattern(1, DEFAULT_PIN_THRESHOLD));
        assert_eq!(fetched, &crate::payload::pattern(9, 700));
        for v in [large, fetched] {
            assert_eq!(v.allocation_size(), v.len(), "diverted value is exact");
        }
        assert!(!large.shares_allocation_with(fetched));
        assert!(!large.shares_allocation_with(small) && !fetched.shares_allocation_with(small));
        assert!(small.allocation_size() > small.len(), "short value is a view of the buffer");
    }

    #[test]
    fn update_values_from_the_threshold_up_are_copied_out_of_the_frame() {
        let item =
            |key, len| UpdateItem { key, version: 1, value: crate::payload::pattern(key, len) };
        let msg =
            Message::Update { seq: 1, items: vec![item(1, 100), item(2, DEFAULT_PIN_THRESHOLD)] };
        let Message::Update { items, .. } = roundtrip(&msg) else { panic!("wrong variant") };
        assert_eq!(items[1].value.allocation_size(), DEFAULT_PIN_THRESHOLD);
        assert!(items[0].value.allocation_size() > 100, "short items stay views");
        assert!(!items[0].value.shares_allocation_with(&items[1].value));
    }

    /// Bytes of memory the codec holds: its buffer's allocation plus
    /// every diverted payload's, partial or complete.
    fn held(codec: &FrameCodec) -> usize {
        let diverting = codec.diverting.as_ref().map_or(0, |d| d.value.capacity());
        let ready: usize = codec.ready.iter().map(Bytes::allocation_size).sum();
        codec.buf.capacity() + diverting + ready
    }

    #[test]
    fn a_hostile_value_size_reserves_only_what_arrived() {
        // A PutReq declaring a full MAX_VALUE payload, followed by one
        // payload byte: legal so far, so the codec waits — holding
        // memory for the bytes it got, not the 16 MiB it was promised.
        let mut prefix = BytesMut::new();
        prefix.put_u32((33 + MAX_VALUE) as u32);
        prefix.put_u8(TAG_PUT_REQ);
        prefix.put_u64(1); // request id
        prefix.put_u64(1); // key
        prefix.put_u32(MAX_VALUE as u32); // value_size
        prefix.put_u64(0); // ttl
        prefix.put_u8(0xAB); // the one payload byte
        let mut codec = FrameCodec::new();
        codec.feed(&prefix);
        assert_eq!(codec.next(), Ok(None));
        assert!(!codec.has_frame() && !codec.is_idle());
        assert!(
            held(&codec) <= prefix.len() + 64 * 1024,
            "codec holds {} bytes after being fed {}",
            held(&codec),
            prefix.len()
        );
        // A trickle keeps the allocation in proportion to the bytes.
        for _ in 0..100 {
            codec.feed(&[0xCD; 1000]);
        }
        assert!(held(&codec) <= 2 * (prefix.len() + 100_000) + 64 * 1024);
    }

    #[test]
    fn roundtrips_zero_byte_and_max_size_values() {
        let empty = Message::PutReq { id: RequestId(1), key: 1, value: Bytes::new(), ttl: 0 };
        assert_eq!(roundtrip(&empty), empty);
        // Exactly MAX_VALUE is legal; the frame stays under MAX_FRAME.
        let max = Message::PutReq {
            id: RequestId(2),
            key: 2,
            value: Bytes::from(vec![0x5A; MAX_VALUE]),
            ttl: 0,
        };
        assert!(max.wire_size() <= MAX_FRAME);
        let back = roundtrip(&max);
        let Message::PutReq { value, .. } = &back else { panic!("wrong variant") };
        assert_eq!(value.len(), MAX_VALUE);
        assert_eq!(back, max);
    }

    #[test]
    fn rejects_value_size_beyond_limit() {
        // A frame whose declared value_size exceeds MAX_VALUE is a
        // protocol error even when the frame length itself looks small —
        // the length prefix must not be trusted on the decoder's behalf.
        let declared = (MAX_VALUE as u32) + 1;
        let mut frame = BytesMut::new();
        frame.put_u32(5 + 28 + 4);
        frame.put_u8(TAG_PUT_REQ);
        frame.put_u64(1); // request id
        frame.put_u64(1); // key
        frame.put_u32(declared); // value_size over the limit
        frame.put_u64(0); // ttl
        frame.put_bytes(0, 4);
        let mut codec = FrameCodec::new();
        codec.feed(&frame);
        assert_eq!(codec.next(), Err(CodecError::ValueTooLarge(declared)));

        // The error formats with the limit for operator logs.
        assert!(CodecError::ValueTooLarge(declared).to_string().contains("exceeds"));
    }

    #[test]
    fn rejects_oversized_value_before_buffering_the_payload() {
        // A PutReq declaring a >MAX_VALUE value is refused as soon as
        // the value_size field is readable — after ~25 header bytes,
        // not after accumulating the declared payload.
        let declared = (MAX_VALUE as u32) + 1;
        let mut prefix = BytesMut::new();
        prefix.put_u32(5 + 28 + declared); // a "legal"-looking length
        prefix.put_u8(TAG_PUT_REQ);
        prefix.put_u64(9); // request id
        prefix.put_u64(1); // key
        prefix.put_u32(declared); // value_size, over the limit
        let mut codec = FrameCodec::new();
        codec.feed(&prefix);
        assert!(codec.has_frame(), "poisoned prefix must be serviced without more input");
        assert_eq!(codec.next(), Err(CodecError::ValueTooLarge(declared)));

        // Same for the GetResp offset.
        let mut prefix = BytesMut::new();
        prefix.put_u32(5 + 37 + declared);
        prefix.put_u8(TAG_GET_RESP);
        prefix.put_u64(9); // request id
        prefix.put_u64(1); // key
        prefix.put_u64(1); // version
        prefix.put_u32(declared);
        let mut codec = FrameCodec::new();
        codec.feed(&prefix);
        assert_eq!(codec.next(), Err(CodecError::ValueTooLarge(declared)));
    }

    #[test]
    fn encode_into_reserves_headers_not_payloads() {
        // Queuing a large response must not allocate payload-scale
        // staging: the staging buffer ends up holding only the ~34
        // header bytes, with capacity in the same ballpark.
        let value = crate::payload::pattern(1, 1 << 20);
        let msg = Message::GetResp {
            id: RequestId(1),
            key: 1,
            version: 1,
            value,
            age: 0,
            status: GetStatus::Fresh,
        };
        let mut staging = BytesMut::new();
        let mut diverted = 0usize;
        FrameCodec::encode_into(&msg, &mut staging, |_, p| diverted += p.len());
        assert_eq!(diverted, 1 << 20);
        assert_eq!(staging.len(), msg.wire_size() - (1 << 20));
        assert!(
            staging.capacity() < 4096,
            "staging reserved payload-scale capacity: {}",
            staging.capacity()
        );
    }

    #[test]
    fn encode_into_diverts_payloads_without_copying() {
        // The segmented encoder hands payloads to the sink and keeps
        // only the surrounding header bytes in the staging buffer;
        // re-assembling staging + segments reproduces the contiguous
        // encoding byte-for-byte.
        let value = crate::payload::pattern(3, 2048);
        let msg = Message::GetResp {
            id: RequestId(9),
            key: 3,
            version: 2,
            value: value.clone(),
            age: 11,
            status: GetStatus::Fresh,
        };
        let mut staging = BytesMut::new();
        let mut segments: Vec<(usize, Bytes)> = Vec::new();
        FrameCodec::encode_into(&msg, &mut staging, |staging, payload| {
            segments.push((staging.len(), payload.clone()));
        });
        assert_eq!(segments.len(), 1);
        let (at, payload) = &segments[0];
        assert!(
            payload.shares_allocation_with(&value),
            "sink received the refcounted handle, not a copy"
        );
        assert_eq!(staging.len() + payload.len(), msg.wire_size());
        // Reassemble and decode.
        let mut wire = BytesMut::new();
        wire.extend_from_slice(&staging[..*at]);
        wire.extend_from_slice(payload);
        wire.extend_from_slice(&staging[*at..]);
        let mut contiguous = BytesMut::new();
        FrameCodec::encode(&msg, &mut contiguous);
        assert_eq!(&wire[..], &contiguous[..]);
    }

    #[test]
    fn is_idle_tracks_frame_boundaries() {
        let mut codec = FrameCodec::new();
        assert!(codec.is_idle());
        let mut wire = BytesMut::new();
        FrameCodec::encode(&Message::FetchReq { key: 1 }, &mut wire);
        codec.feed(&wire[..3]);
        assert!(!codec.is_idle(), "partial frame buffered");
        codec.feed(&wire[3..]);
        codec.next().unwrap().expect("complete frame");
        assert!(codec.is_idle(), "back on a frame boundary");
    }

    /// Value lengths around the divert threshold, plus empty and short.
    fn value_len() -> impl Strategy<Value = usize> {
        prop_oneof![Just(0usize), 1usize..64, 500usize..530, 530usize..1100]
    }

    /// One message of every tag, values straddling the threshold.
    fn any_message() -> impl Strategy<Value = Message> {
        use crate::payload::pattern;
        prop_oneof![
            (any::<u64>(), proptest::collection::vec(any::<u64>(), 0..4))
                .prop_map(|(seq, keys)| Message::Invalidate { seq, keys }),
            (any::<u64>(), proptest::collection::vec((any::<u64>(), value_len()), 0..3)).prop_map(
                |(seq, items)| Message::Update {
                    seq,
                    items: items
                        .into_iter()
                        .map(|(key, len)| UpdateItem { key, version: 1, value: pattern(key, len) })
                        .collect(),
                }
            ),
            any::<u64>().prop_map(|seq| Message::Ack { seq }),
            any::<u64>().prop_map(|key| Message::GetReq {
                id: RequestId(key),
                key,
                max_staleness: 9
            }),
            (any::<u64>(), value_len()).prop_map(|(key, len)| Message::GetResp {
                id: RequestId(key),
                key,
                version: 2,
                value: pattern(key, len),
                age: 3,
                status: GetStatus::ServedStale,
            }),
            (any::<u64>(), value_len()).prop_map(|(key, len)| Message::PutReq {
                id: RequestId(key),
                key,
                value: pattern(key, len),
                ttl: 5,
            }),
            any::<u64>().prop_map(|key| Message::PutResp { id: RequestId(key), key, version: 4 }),
            any::<u64>().prop_map(|key| Message::FetchReq { key }),
            (any::<u64>(), value_len()).prop_map(|(key, len)| Message::FetchResp {
                key,
                version: 6,
                value: pattern(key, len),
            }),
            (any::<u64>(), any::<u32>()).prop_map(|(key, reads)| Message::ReadStats {
                entries: vec![ReadStat { key, reads }],
            }),
            Just(Message::StatsReq),
            any::<u64>().prop_map(|n| Message::StatsResp {
                refetches: n,
                refetch_coalesced: 1,
                origin_errors: 2,
                cross_core_forwards: 3,
                slab_entries: 4,
                slab_capacity: 5,
                epoch: 6,
                handoff_in: 7,
                handoff_out: 8,
            }),
            any::<u64>().prop_map(|epoch| Message::RingUpdate {
                epoch,
                members: vec!["10.0.0.1:7001".into()],
            }),
            any::<u64>().prop_map(|epoch| Message::RingAck { epoch }),
            Just(Message::RingReq),
            Just(Message::JoinReq { node: "10.0.0.3:7003".into() }),
            Just(Message::LeaveReq { node: "10.0.0.3:7003".into() }),
        ]
    }

    /// Encode `msg`, then break it by `(kind, param)`: 4 moves a single-value frame's `value_size` off the
    /// frame's length; 5 declares a value over [`MAX_VALUE`]; 6 writes an
    /// invalid length prefix; 7 appends bytes the prefix then covers;
    /// any other kind leaves it valid.
    fn mangled_frame(msg: &Message, kind: u8, param: u32) -> Vec<u8> {
        let mut wire = BytesMut::new();
        FrameCodec::encode(msg, &mut wire);
        let mut frame = wire.to_vec();
        let value_size_at = match frame[4] {
            TAG_PUT_REQ | TAG_FETCH_RESP => Some(VALUE_SIZE_AT),
            TAG_GET_RESP => Some(29),
            _ => None,
        };
        let set_u32 = |frame: &mut Vec<u8>, at: usize, v: u32| {
            frame[at..at + 4].copy_from_slice(&v.to_be_bytes());
        };
        let read_u32 = |frame: &[u8], at: usize| {
            u32::from_be_bytes([frame[at], frame[at + 1], frame[at + 2], frame[at + 3]])
        };
        match (kind, value_size_at) {
            (4, Some(at)) => {
                let delta = param % 5 + 1;
                let old = read_u32(&frame, at);
                let new = if param.is_multiple_of(2) {
                    old.wrapping_add(delta)
                } else {
                    old.wrapping_sub(delta)
                };
                set_u32(&mut frame, at, new);
            }
            (5, Some(at)) => set_u32(&mut frame, at, MAX_VALUE as u32 + 1 + param % 3),
            (6, _) => {
                let bad = [0, 4, MAX_FRAME as u32 + 1, u32::MAX][param as usize % 4];
                set_u32(&mut frame, 0, bad);
            }
            (7, _) => {
                frame.extend(std::iter::repeat_n(0xEE, param as usize % 7 + 1));
                let len = frame.len() as u32;
                set_u32(&mut frame, 0, len);
            }
            _ => {}
        }
        frame
    }

    /// A codec fed `bytes` in one chunk, with its first `taken`
    /// messages already taken.
    fn one_chunk(bytes: &[u8], taken: usize) -> FrameCodec {
        let mut codec = FrameCodec::new();
        codec.feed(bytes);
        for _ in 0..taken {
            assert!(matches!(codec.next(), Ok(Some(_))), "the reference yields what was taken");
        }
        codec
    }

    /// Decode `stream` fed in chunks of the cycled `sizes`, checking
    /// after every feed that `has_frame`/`is_idle` and every `next`
    /// agree with a codec fed the same prefix in one chunk. Returns the
    /// messages and the first error.
    fn decode_chunked(
        stream: &[u8],
        sizes: &[usize],
    ) -> Result<(Vec<Message>, Option<CodecError>), TestCaseError> {
        let mut codec = FrameCodec::new();
        let mut got = Vec::new();
        let mut fed = 0;
        for &size in sizes.iter().cycle() {
            if fed == stream.len() {
                break;
            }
            let end = (fed + size).min(stream.len());
            codec.feed(&stream[fed..end]);
            fed = end;
            let mut reference = one_chunk(&stream[..fed], got.len());
            prop_assert_eq!(
                (codec.has_frame(), codec.is_idle()),
                (reference.has_frame(), reference.is_idle()),
                "after feeding {} bytes",
                fed
            );
            loop {
                let next = codec.next();
                prop_assert_eq!(&next, &reference.next(), "after feeding {} bytes", fed);
                match next {
                    Ok(Some(msg)) => {
                        if let Message::PutReq { value, .. } | Message::FetchResp { value, .. } =
                            &msg
                        {
                            if value.len() >= DEFAULT_PIN_THRESHOLD {
                                prop_assert_eq!(value.allocation_size(), value.len());
                            }
                        }
                        got.push(msg);
                    }
                    Ok(None) => break,
                    Err(e) => return Ok((got, Some(e))),
                }
            }
            prop_assert!(!codec.has_frame(), "has_frame promised progress `next` did not make");
            prop_assert_eq!(
                (codec.has_frame(), codec.is_idle()),
                (reference.has_frame(), reference.is_idle())
            );
        }
        Ok((got, None))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn decoding_does_not_depend_on_how_bytes_arrive(
            frames in proptest::collection::vec((any_message(), 0u8..24, any::<u32>()), 2..8),
            sizes in proptest::collection::vec(
                prop_oneof![1usize..8, 8usize..600, 600usize..3000],
                1..12,
            ),
        ) {
            let stream: Vec<u8> =
                frames.iter().flat_map(|(msg, kind, param)| mangled_frame(msg, *kind, *param)).collect();
            let whole = decode_chunked(&stream, &[stream.len()])?;
            prop_assert_eq!(&decode_chunked(&stream, &[1])?, &whole, "single bytes");
            prop_assert_eq!(&decode_chunked(&stream, &sizes)?, &whole, "chunks {:?}", sizes);
        }
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_invalidate(
            seq in any::<u64>(),
            keys in proptest::collection::vec(any::<u64>(), 0..100),
        ) {
            let m = Message::Invalidate { seq, keys };
            prop_assert_eq!(roundtrip(&m), m);
        }

        #[test]
        fn roundtrip_arbitrary_update(
            seq in any::<u64>(),
            items in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), 0usize..2048),
                0..50,
            ),
        ) {
            let m = Message::Update {
                seq,
                items: items
                    .into_iter()
                    .map(|(key, version, len)| UpdateItem {
                        key,
                        version,
                        value: crate::payload::pattern(key, len),
                    })
                    .collect(),
            };
            prop_assert_eq!(roundtrip(&m), m);
        }

        #[test]
        fn roundtrip_arbitrary_payload_bytes(
            key in any::<u64>(),
            ttl in any::<u64>(),
            value in proptest::collection::vec(any::<u8>(), 0..4096),
        ) {
            // Arbitrary payload contents — including 0-byte values — must
            // survive the frame boundary bit-exact in both directions.
            let put = Message::PutReq {
                id: RequestId(1),
                key,
                value: Bytes::from(value.clone()),
                ttl,
            };
            prop_assert_eq!(roundtrip(&put), put);
            let resp = Message::GetResp {
                id: RequestId(2),
                key,
                version: 3,
                value: Bytes::from(value),
                age: 9,
                status: GetStatus::Fresh,
            };
            prop_assert_eq!(roundtrip(&resp), resp);
        }

        #[test]
        fn accepted_frames_reencode_to_the_same_bytes(
            msg in prop_oneof![
                any::<u64>().prop_map(|seq| Message::Ack { seq }),
                (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(id, key, max_staleness)| {
                    Message::GetReq { id: RequestId(id), key, max_staleness }
                }),
                (any::<u64>(), any::<u64>(), 0usize..64).prop_map(|(id, key, len)| {
                    Message::PutReq {
                        id: RequestId(id),
                        key,
                        value: crate::payload::pattern(key, len),
                        ttl: 0,
                    }
                }),
                (any::<u64>(), proptest::collection::vec(any::<u64>(), 0..4))
                    .prop_map(|(seq, keys)| Message::Invalidate { seq, keys }),
                (any::<u64>(), 0usize..64).prop_map(|(key, len)| Message::FetchResp {
                    key,
                    version: 1,
                    value: crate::payload::pattern(key, len),
                }),
                Just(Message::StatsReq),
                Just(Message::JoinReq { node: "10.0.0.3:7003".into() }),
            ],
            retag in prop_oneof![Just(None), (0u8..32).prop_map(Some)],
            extra in proptest::collection::vec(any::<u8>(), 0..12),
        ) {
            // The codec is canonical: a byte string the decoder accepts
            // is the one encoding of the message it decodes to. Start
            // from a valid frame, optionally give it another tag and
            // extra bytes (length prefix kept consistent), and hold any
            // frame that still decodes to that.
            let mut wire = BytesMut::new();
            FrameCodec::encode(&msg, &mut wire);
            let mut bytes = wire.to_vec();
            if let Some(tag) = retag {
                bytes[4] = tag;
            }
            bytes.extend_from_slice(&extra);
            let len = bytes.len() as u32;
            bytes[..4].copy_from_slice(&len.to_be_bytes());
            let mut codec = FrameCodec::new();
            codec.feed(&bytes);
            if let Ok(Some(decoded)) = codec.next() {
                let mut again = BytesMut::new();
                FrameCodec::encode(&decoded, &mut again);
                prop_assert_eq!(&again[..], &bytes[..]);
            }
        }

        #[test]
        fn decoder_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut codec = FrameCodec::new();
            codec.feed(&data);
            // Drain until error, need-more, or exhaustion; must not panic.
            for _ in 0..64 {
                match codec.next() {
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => break,
                }
            }
        }
    }
}
