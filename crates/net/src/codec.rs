//! Length-prefixed binary framing.
//!
//! Frame layout: `u32` total-length (including the 5-byte header), `u8`
//! message type, then type-specific fields in big-endian. Values
//! (`GetResp`/`PutReq`/`FetchResp`/`Update` items) are carried as **real
//! bytes**, length-prefixed by a `u32`; the decoder slices them straight
//! out of its accumulation buffer as refcounted [`Bytes`] views
//! (`split_to().freeze()`), so decoding a value allocates no
//! payload-sized buffer. Every message has exactly one encoding and a
//! frame's length equals its message's [`crate::Message::wire_size`]:
//! the decoder rejects a frame with bytes left over after its fields.
//!
//! The decoder is *streaming*: feed it arbitrary byte chunks, it yields
//! complete messages and buffers partial frames (the Tokio-tutorial
//! framing pattern, without the async machinery the simulation doesn't
//! need).
//!
//! Encoding has two shapes: [`FrameCodec::encode`] renders a frame
//! contiguously into one buffer (payload copied — right for the blocking
//! transport), and [`FrameCodec::encode_into`] hands every payload to a
//! caller-supplied sink instead of copying it, which is how
//! [`crate::NonBlockingFramedStream`] builds its zero-copy segment queue.

use crate::msg::{GetStatus, Message, ReadStat, RequestId, UpdateItem};
use bytes::{Buf, BufMut, Bytes, BytesMut};
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
    buf: BytesMut,
}

impl FrameCodec {
    /// New codec with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no partial frame is buffered — i.e. the byte stream, if
    /// it ended here, would end on a clean frame boundary. Used by
    /// [`crate::FramedStream`] to tell a clean EOF from a truncated one.
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
            Some(Ok(len)) => self.buf.len() >= len || self.early_value_check().is_err(),
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

    /// Feed raw bytes into the decoder.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
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
        if self.buf.len() < len {
            // The frame is incomplete, but for single-value messages the
            // declared value size sits at a fixed offset — reject an
            // over-limit declaration now rather than buffering up to
            // MAX_FRAME of a payload that can never decode.
            self.early_value_check()?;
            return Ok(None);
        }
        let mut frame = self.buf.split_to(len);
        frame.advance(4); // length
        let tag = frame.get_u8();
        let msg = Self::decode_body(tag, &mut frame)?;
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
            TAG_PUT_REQ | TAG_FETCH_RESP => 21,
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
    /// the frame as a refcounted view — the zero-copy heart of the
    /// decoder: no payload-sized buffer is allocated, the returned
    /// [`Bytes`] shares the accumulation buffer's allocation.
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

    fn decode_body(tag: u8, frame: &mut BytesMut) -> Result<Message, CodecError> {
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
                    let value = Self::take_value(frame, value_size, "update item value")?;
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
            TAG_PUT_REQ => Self::decode_put_req(frame),
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
                let value = Self::take_value(frame, value_size, "fetch-resp value")?;
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

    fn decode_put_req(frame: &mut BytesMut) -> Result<Message, CodecError> {
        Self::need(frame, 28, "put-req header")?;
        let hdr: &[u8] = frame;
        let id = RequestId(Self::be_u64(hdr, 0));
        let key = Self::be_u64(hdr, 8);
        let value_size = Self::be_u32(hdr, 16);
        let ttl = Self::be_u64(hdr, 20);
        frame.advance(28);
        let value = Self::take_value(frame, value_size, "put-req value")?;
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
        // Two payload-carrying frames fed in ONE chunk: both decoded
        // values must be views of the same backing allocation (the
        // codec's accumulation buffer) — the zero-copy contract. A
        // copying decoder would hand each payload its own allocation.
        let a = Message::GetResp {
            id: RequestId(1),
            key: 7,
            version: 1,
            value: crate::payload::pattern(7, 4096),
            age: 0,
            status: GetStatus::Fresh,
        };
        let b = Message::PutReq {
            id: RequestId(2),
            key: 8,
            value: crate::payload::pattern(8, 1024),
            ttl: 0,
        };
        let mut wire = BytesMut::new();
        FrameCodec::encode(&a, &mut wire);
        FrameCodec::encode(&b, &mut wire);
        let mut codec = FrameCodec::new();
        codec.feed(&wire);
        let (Some(Message::GetResp { value: va, .. }), Some(Message::PutReq { value: vb, .. })) =
            (codec.next().unwrap(), codec.next().unwrap())
        else {
            panic!("expected the two payload frames back");
        };
        assert!(va.shares_allocation_with(&vb), "payloads were copied, not sliced");
        assert_eq!(va, crate::payload::pattern(7, 4096), "contents survive the slice");
        assert_eq!(vb, crate::payload::pattern(8, 1024));
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
