//! Framed transports over any `Read + Write` byte stream.
//!
//! Two flavours share the streaming [`FrameCodec`]:
//!
//! * [`FramedStream`] — synchronous: `send` writes one complete frame,
//!   `recv` blocks until one complete frame decodes. One request in
//!   flight; the shape of the original thread-per-connection server.
//! * [`NonBlockingFramedStream`] — for poll-driven event loops over
//!   non-blocking sockets: `queue` buffers encoded frames, `flush`
//!   writes as much as the socket accepts (keeping the rest for later),
//!   and `poll_recv` accumulates partial reads until a frame completes,
//!   returning [`PollRecv::WouldBlock`] instead of blocking. This is the
//!   transport under the `fresca-serve` reactor and pipelined client.
//!
//! ## The zero-copy write path
//!
//! `queue` does **not** render frames into one contiguous buffer.
//! Headers and small payloads append to one *staging* buffer and are
//! queued as a *staged run* — a count of its bytes; a value payload of
//! [`INLINE_PAYLOAD_MAX`] bytes or more ends the run and is queued as its
//! own refcounted [`Bytes`] segment — the payload handed to `queue` is
//! never memcpy'd. `flush` then drains the queue with
//! [`Write::write_vectored`], so one syscall gathers many small frames
//! *and* large payloads straight from the cache's allocations. Written
//! bytes are consumed from the front of the staging buffer, which is
//! never frozen or split and is cleared whenever the queue drains: once
//! a connection has warmed up, queueing and flushing replies allocates
//! nothing. Streams without real scatter-gather support fall back
//! transparently: the default `write_vectored` writes the first
//! non-empty slice, and the flush loop simply comes around again.
//!
//! ## The read path
//!
//! `read(2)` fills a scratch chunk — the stream's own, or one an event
//! loop shares across all its streams via
//! [`NonBlockingFramedStream::poll_recv_with`] — and the codec copies
//! each chunk out once, since the scratch is reused. A large `PutReq`
//! or `FetchResp` value is copied into an allocation of its own exact
//! size — one block with its refcount when the whole value is in the
//! chunk — so a node that caches it pins nothing else; every other byte
//! goes to the codec's accumulation buffer, and `GetResp` payloads are
//! handed out as zero-copy views of it (see [`crate::codec`]).
//!
//! Both transports are generic over the stream so the protocol logic is
//! testable against in-memory buffers; in production `S` is a
//! [`std::net::TcpStream`].

use crate::codec::{CodecError, FrameCodec};
use crate::msg::Message;
use bytes::{Buf, Bytes, BytesMut};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};

/// Read-chunk size. One syscall usually drains several small frames; a
/// value frame larger than this simply takes multiple reads.
const READ_CHUNK: usize = 64 * 1024;

/// Payloads smaller than this are copied into the staging buffer — below
/// it, the memcpy is cheaper than spending an iovec slot and a refcount
/// on the scatter-gather path. At or above it, payloads travel as their
/// own zero-copy segments.
pub const INLINE_PAYLOAD_MAX: usize = 512;

/// Most slices handed to one `write_vectored` call. 64 covers dozens of
/// small frames plus their interleaved payload segments per syscall
/// while keeping the stack array small (kernels cap at `IOV_MAX`, 1024).
const MAX_IOV: usize = 64;

/// A synchronous, framed [`Message`] pipe over a byte stream.
///
/// ```
/// use fresca_net::{payload, FramedStream, Message};
/// use std::io::{Cursor, Seek, SeekFrom};
///
/// // In-memory stand-in for a socket: write frames, rewind, read back.
/// use fresca_net::RequestId;
/// let put = Message::PutReq { id: RequestId(1), key: 9, value: payload::pattern(9, 16), ttl: 0 };
/// let mut pipe = FramedStream::new(Cursor::new(Vec::new()));
/// pipe.send(&put).unwrap();
/// pipe.get_mut().seek(SeekFrom::Start(0)).unwrap();
/// assert_eq!(pipe.recv().unwrap(), Some(put));
/// assert_eq!(pipe.recv().unwrap(), None); // clean EOF
/// ```
#[derive(Debug)]
pub struct FramedStream<S> {
    stream: S,
    codec: FrameCodec,
    chunk: Vec<u8>,
}

impl<S: Read + Write> FramedStream<S> {
    /// Wrap a byte stream.
    pub fn new(stream: S) -> Self {
        FramedStream { stream, codec: FrameCodec::new(), chunk: vec![0; READ_CHUNK] }
    }

    /// Shared access to the underlying stream (e.g. to read the peer
    /// address of a `TcpStream`).
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Exclusive access to the underlying stream (e.g. to set socket
    /// timeouts).
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Encode `msg` and write the complete frame, flushing the stream.
    pub fn send(&mut self, msg: &Message) -> io::Result<()> {
        let mut out = BytesMut::with_capacity(msg.wire_size());
        FrameCodec::encode(msg, &mut out);
        self.stream.write_all(&out)?;
        self.stream.flush()
    }

    /// Block until one complete message arrives. Returns `Ok(None)` on a
    /// clean EOF (the peer closed on a frame boundary); an EOF mid-frame
    /// is an [`io::ErrorKind::UnexpectedEof`] error, and a protocol
    /// violation (bad length, unknown tag, malformed fields) is an
    /// [`io::ErrorKind::InvalidData`] error.
    pub fn recv(&mut self) -> io::Result<Option<Message>> {
        loop {
            match self.codec.next() {
                Ok(Some(msg)) => return Ok(Some(msg)),
                Ok(None) => {}
                Err(e) => return Err(codec_err(e)),
            }
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                return if self.codec.is_idle() {
                    Ok(None)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream closed mid-frame",
                    ))
                };
            }
            self.codec.feed(&self.chunk[..n]);
        }
    }
}

fn codec_err(e: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Outcome of a [`NonBlockingFramedStream::poll_recv`] attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PollRecv {
    /// One complete message decoded.
    Msg(Message),
    /// No complete frame buffered and the stream has no bytes right now;
    /// try again when the descriptor polls readable.
    WouldBlock,
    /// The peer closed cleanly on a frame boundary. (An EOF *mid-frame*
    /// is an [`io::ErrorKind::UnexpectedEof`] error instead.)
    Closed,
}

/// The outbound side of a [`NonBlockingFramedStream`]: one staging
/// buffer holding the headers and small payloads of every queued frame,
/// and the unsent bytes as segments in wire order. Large payloads enter
/// as refcounted [`Bytes`] handles — never copied — and leave through
/// `write_vectored`.
#[derive(Debug, Default)]
struct SegmentQueue {
    /// Frame headers and sub-[`INLINE_PAYLOAD_MAX`] payloads, unsent
    /// bytes only: written bytes are consumed from the front. Never
    /// frozen or split, so it stays one allocation that `consume` clears
    /// when the queue drains.
    staging: BytesMut,
    /// Unsent bytes, in wire order.
    segs: VecDeque<Segment>,
    /// Total unsent bytes across `segs`.
    len: usize,
}

/// A run of unsent bytes.
#[derive(Debug)]
enum Segment {
    /// The next this-many bytes of `staging`, after those of every
    /// `Staged` segment ahead of it.
    Staged(usize),
    /// A large payload, sent from the allocation the caller queued.
    Payload(Bytes),
}

impl Segment {
    fn len(&self) -> usize {
        match self {
            Segment::Staged(len) => *len,
            Segment::Payload(payload) => payload.len(),
        }
    }
}

impl SegmentQueue {
    fn queue(&mut self, msg: &Message) {
        let segs = &mut self.segs;
        let mut staged = self.staging.len();
        FrameCodec::encode_into(msg, &mut self.staging, |staging, payload| {
            if payload.len() < INLINE_PAYLOAD_MAX {
                staging.extend_from_slice(payload);
            } else {
                // Wire order: everything staged so far precedes this
                // payload. The payload itself enters as a refcount bump.
                Self::stage(segs, staging.len() - staged);
                staged = staging.len();
                segs.push_back(Segment::Payload(payload.clone()));
            }
        });
        Self::stage(segs, self.staging.len() - staged);
        self.len += msg.wire_size();
    }

    /// Account the `n` bytes just appended to `staging` as the queue's
    /// tail, joining the staged run already there.
    fn stage(segs: &mut VecDeque<Segment>, n: usize) {
        if let Some(Segment::Staged(run)) = segs.back_mut() {
            *run += n;
        } else if n > 0 {
            segs.push_back(Segment::Staged(n));
        }
    }

    /// Borrow up to [`MAX_IOV`] unsent slices for one gather write.
    fn fill_iov<'a>(&'a self, iov: &mut [IoSlice<'a>; MAX_IOV]) -> usize {
        let mut staged: &[u8] = &self.staging;
        let mut n = 0;
        for (slot, seg) in iov.iter_mut().zip(&self.segs) {
            let slice = match seg {
                Segment::Staged(len) => {
                    let Some((run, rest)) = staged.split_at_checked(*len) else { break };
                    staged = rest;
                    run
                }
                Segment::Payload(payload) => payload,
            };
            *slot = IoSlice::new(slice);
            n += 1;
        }
        n
    }

    /// Account `written` bytes as gone, popping drained segments.
    fn consume(&mut self, mut written: usize) {
        while written > 0 {
            let Some(front) = self.segs.front_mut() else { break };
            let n = written.min(front.len());
            match front {
                Segment::Staged(len) => {
                    *len -= n;
                    self.staging.advance(n);
                }
                Segment::Payload(payload) => payload.advance(n),
            }
            if front.len() == 0 {
                self.segs.pop_front();
            }
            written -= n;
            self.len -= n;
        }
        if self.segs.is_empty() {
            self.staging.clear();
        }
    }
}

/// A non-blocking, framed [`Message`] pipe that accumulates partial reads
/// and writes — the event-loop sibling of [`FramedStream`].
///
/// Reads: `poll_recv` drains the socket into the streaming codec and
/// yields at most one message per call; a frame split across any number
/// of reads reassembles transparently. Writes: `queue` encodes into an
/// outbound segment queue (large payloads as zero-copy [`Bytes`]
/// segments — see the module docs) and `flush` gathers as much as the
/// socket accepts with `write_vectored`, so a response to a slow reader
/// never blocks the event loop — the unsent tail stays buffered and the
/// caller keeps write interest until
/// [`wants_write`](NonBlockingFramedStream::wants_write) clears.
///
/// ```
/// use fresca_net::{Message, NonBlockingFramedStream, PollRecv, RequestId};
/// use std::io::{Cursor, Seek, SeekFrom};
///
/// // In-memory stand-in for a socket: queue + flush, rewind, read back.
/// let mut pipe = NonBlockingFramedStream::new(Cursor::new(Vec::new()));
/// let msg = Message::PutResp { id: RequestId(1), key: 9, version: 1 };
/// pipe.queue(&msg);
/// assert!(pipe.wants_write());
/// assert!(pipe.flush().unwrap(), "in-memory writes always drain");
/// assert!(!pipe.wants_write());
///
/// pipe.get_mut().seek(SeekFrom::Start(0)).unwrap();
/// assert_eq!(pipe.poll_recv().unwrap(), PollRecv::Msg(msg));
/// assert_eq!(pipe.poll_recv().unwrap(), PollRecv::Closed);
/// ```
#[derive(Debug)]
pub struct NonBlockingFramedStream<S> {
    stream: S,
    codec: FrameCodec,
    chunk: Vec<u8>,
    out: SegmentQueue,
}

impl<S: Read + Write> NonBlockingFramedStream<S> {
    /// Wrap a byte stream. The caller is responsible for having put the
    /// underlying descriptor into non-blocking mode (e.g.
    /// `TcpStream::set_nonblocking(true)`).
    pub fn new(stream: S) -> Self {
        NonBlockingFramedStream {
            stream,
            codec: FrameCodec::new(),
            // Allocated on the first standalone poll_recv and reused for
            // the life of the stream; event loops that serve thousands
            // of streams pass a shared scratch buffer to poll_recv_with
            // instead, so idle server connections cost no read-buffer
            // memory at all.
            chunk: Vec::new(),
            out: SegmentQueue::default(),
        }
    }

    /// Shared access to the underlying stream (e.g. to read the raw fd
    /// for poll registration).
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Exclusive access to the underlying stream.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Encode `msg` into the outbound queue. Large value payloads are
    /// queued as refcounted segments, not copied (see the module docs).
    /// Nothing touches the socket until
    /// [`flush`](NonBlockingFramedStream::flush).
    pub fn queue(&mut self, msg: &Message) {
        self.out.queue(msg);
    }

    /// True while unsent bytes are buffered — the caller should keep
    /// write interest registered and call
    /// [`flush`](NonBlockingFramedStream::flush) when writable.
    pub fn wants_write(&self) -> bool {
        self.out.len > 0
    }

    /// Unsent outbound bytes currently buffered.
    pub fn pending_out(&self) -> usize {
        self.out.len
    }

    /// True when at least one complete inbound frame (or a detectable
    /// protocol error) is buffered, so the next
    /// [`poll_recv`](NonBlockingFramedStream::poll_recv) will make
    /// progress without touching the socket. Event loops that bound work
    /// per tick must re-service such streams without waiting for
    /// readiness.
    pub fn has_buffered_frame(&self) -> bool {
        self.codec.has_frame()
    }

    /// Write as much buffered output as the stream accepts, gathering
    /// segments with `write_vectored`. Returns `Ok(true)` when the
    /// buffer fully drained, `Ok(false)` when the stream would block
    /// with bytes still pending.
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.out.len > 0 {
            let mut iov: [IoSlice<'_>; MAX_IOV] = std::array::from_fn(|_| IoSlice::new(&[]));
            let n = self.out.fill_iov(&mut iov);
            match self.stream.write_vectored(&iov[..n]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "stream accepted zero bytes",
                    ))
                }
                Ok(written) => self.out.consume(written),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Try to receive one message without blocking. Buffered frames are
    /// served before the socket is read again, so call in a loop until
    /// [`PollRecv::WouldBlock`]. Protocol violations surface as
    /// [`io::ErrorKind::InvalidData`], an EOF mid-frame as
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn poll_recv(&mut self) -> io::Result<PollRecv> {
        if self.chunk.is_empty() {
            // One allocation for the life of the stream; every later
            // call reads through the same buffer (see the
            // scratch-stability test below).
            self.chunk = vec![0; READ_CHUNK];
        }
        poll_recv_impl(&mut self.stream, &mut self.codec, &mut self.chunk)
    }

    /// [`poll_recv`](NonBlockingFramedStream::poll_recv), reading
    /// through a caller-provided scratch buffer instead of a private
    /// one. An event loop multiplexing thousands of streams shares one
    /// scratch across all of them — the buffer holds no state between
    /// calls, it is only the landing zone for `read(2)`.
    pub fn poll_recv_with(&mut self, scratch: &mut [u8]) -> io::Result<PollRecv> {
        poll_recv_impl(&mut self.stream, &mut self.codec, scratch)
    }
}

/// The shared receive loop: decode buffered frames first, then read the
/// stream through `scratch` until a frame completes or it would block.
/// Free-standing so `poll_recv` can lend the stream's own reusable
/// buffer without any take-and-put-back dance.
fn poll_recv_impl<S: Read>(
    stream: &mut S,
    codec: &mut FrameCodec,
    scratch: &mut [u8],
) -> io::Result<PollRecv> {
    assert!(!scratch.is_empty(), "scratch buffer must be non-empty");
    loop {
        match codec.next() {
            Ok(Some(msg)) => return Ok(PollRecv::Msg(msg)),
            Ok(None) => {}
            Err(e) => return Err(codec_err(e)),
        }
        match stream.read(scratch) {
            Ok(0) => {
                return if codec.is_idle() {
                    Ok(PollRecv::Closed)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream closed mid-frame",
                    ))
                };
            }
            Ok(n) => codec.feed(&scratch[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(PollRecv::WouldBlock),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{GetStatus, RequestId};
    use crate::payload;
    use proptest::prelude::*;
    use std::io::{Cursor, Seek, SeekFrom};

    /// Write messages into an in-memory cursor, rewind, and hand back a
    /// stream positioned for reading.
    fn loopback(msgs: &[Message]) -> FramedStream<Cursor<Vec<u8>>> {
        let mut s = FramedStream::new(Cursor::new(Vec::new()));
        for m in msgs {
            s.send(m).unwrap();
        }
        s.get_mut().seek(SeekFrom::Start(0)).unwrap();
        s
    }

    #[test]
    fn send_recv_roundtrip() {
        let msgs = vec![
            Message::GetReq { id: RequestId(1), key: 1, max_staleness: 500 },
            Message::PutReq {
                id: RequestId(2),
                key: 2,
                value: payload::pattern(2, 1000),
                ttl: 1_000_000,
            },
            Message::Ack { seq: 3 },
        ];
        let mut s = loopback(&msgs);
        for m in &msgs {
            assert_eq!(s.recv().unwrap().as_ref(), Some(m));
        }
        assert_eq!(s.recv().unwrap(), None, "clean EOF after the last frame");
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut s =
            loopback(&[Message::GetReq { id: RequestId(1), key: 1, max_staleness: 0 }]);
        // Truncate the underlying buffer mid-frame.
        let buf = s.get_mut().get_mut();
        buf.truncate(buf.len() - 3);
        let err = s.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn garbage_is_invalid_data() {
        let mut s = FramedStream::new(Cursor::new(vec![0xFF; 32]));
        let err = s.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A stream that yields one byte per read and accepts one byte per
    /// write, interleaving `WouldBlock` between every byte — the worst
    /// case a non-blocking socket can legally present.
    struct Trickle {
        input: Vec<u8>,
        read_pos: usize,
        read_ready: bool,
        output: Vec<u8>,
        write_ready: bool,
    }

    impl Trickle {
        fn new(input: Vec<u8>) -> Self {
            Trickle { input, read_pos: 0, read_ready: false, output: Vec::new(), write_ready: false }
        }
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.read_ready = !self.read_ready;
            if !self.read_ready {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            if self.read_pos >= self.input.len() {
                return Ok(0); // EOF
            }
            buf[0] = self.input[self.read_pos];
            self.read_pos += 1;
            Ok(1)
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_ready = !self.write_ready;
            if !self.write_ready {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.output.push(buf[0]);
            Ok(1)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn nonblocking_reassembles_frames_fed_one_byte_at_a_time() {
        let msgs = [
            Message::GetReq { id: RequestId(1), key: 7, max_staleness: u64::MAX },
            Message::GetResp {
                id: RequestId(1),
                key: 7,
                version: 3,
                value: payload::pattern(7, 50),
                age: 12,
                status: GetStatus::Fresh,
            },
            Message::PutResp { id: RequestId(2), key: 8, version: 4 },
        ];
        let mut wire = BytesMut::new();
        for m in &msgs {
            FrameCodec::encode(m, &mut wire);
        }
        let mut s = NonBlockingFramedStream::new(Trickle::new(wire.to_vec()));
        // Drive poll_recv the way an event loop would: each WouldBlock is
        // a poll wakeup away from more bytes. Every frame must reassemble
        // exactly once, in order, despite arriving one byte per read.
        let mut got = Vec::new();
        loop {
            match s.poll_recv().unwrap() {
                PollRecv::Msg(m) => got.push(m),
                PollRecv::WouldBlock => continue,
                PollRecv::Closed => break,
            }
        }
        assert_eq!(got, msgs);
    }

    #[test]
    fn read_scratch_buffer_is_stable_across_ticks() {
        // The standalone read path must allocate its 64 KiB scratch once
        // and reuse it every tick — re-creating it per poll_recv would
        // put a 64 KiB allocation on every reactor iteration.
        let msg = Message::Ack { seq: 1 };
        let mut wire = BytesMut::new();
        for _ in 0..4 {
            FrameCodec::encode(&msg, &mut wire);
        }
        let mut s = NonBlockingFramedStream::new(Trickle::new(wire.to_vec()));
        assert!(s.chunk.is_empty(), "scratch is lazy until the first read");
        let _first = s.poll_recv().unwrap();
        let ptr = s.chunk.as_ptr();
        assert_eq!(s.chunk.len(), READ_CHUNK);
        let mut msgs = 0;
        loop {
            match s.poll_recv().unwrap() {
                PollRecv::Msg(_) => msgs += 1,
                PollRecv::WouldBlock => continue,
                PollRecv::Closed => break,
            }
            assert_eq!(s.chunk.as_ptr(), ptr, "scratch reallocated between ticks");
        }
        assert!(msgs >= 3);
        assert_eq!(s.chunk.as_ptr(), ptr);
    }

    #[test]
    fn nonblocking_flush_retains_unsent_tail() {
        let msg = Message::PutReq {
            id: RequestId(9),
            key: 1,
            value: payload::pattern(1, 32),
            ttl: 0,
        };
        let mut s = NonBlockingFramedStream::new(Trickle::new(Vec::new()));
        s.queue(&msg);
        let total = msg.wire_size();
        assert_eq!(s.pending_out(), total);
        // One byte leaves per flush call (the trickle accepts 1 then
        // blocks); the buffer must shrink monotonically to zero.
        let mut flushes = 0;
        while s.wants_write() {
            s.flush().unwrap();
            flushes += 1;
            assert!(flushes <= 2 * total + 2, "flush failed to make progress");
        }
        assert!(s.flush().unwrap(), "drained stream reports complete");
        // The bytes that arrived are exactly the encoded frame.
        let mut codec = FrameCodec::new();
        codec.feed(&s.get_ref().output);
        assert_eq!(codec.next().unwrap(), Some(msg));
    }

    #[test]
    fn segment_queue_preserves_wire_order_across_mixed_frames() {
        // Interleave small frames (staged) with large-payload frames
        // (zero-copy segments): the byte stream leaving the socket must
        // decode to exactly the queued sequence.
        let msgs = [
            Message::Ack { seq: 1 },
            Message::GetResp {
                id: RequestId(1),
                key: 5,
                version: 2,
                value: payload::pattern(5, 4096),
                age: 3,
                status: GetStatus::Fresh,
            },
            Message::Ack { seq: 2 },
            Message::PutReq {
                id: RequestId(2),
                key: 6,
                value: payload::pattern(6, INLINE_PAYLOAD_MAX), // exactly at the threshold
                ttl: 9,
            },
            Message::PutReq {
                id: RequestId(3),
                key: 7,
                value: payload::pattern(7, INLINE_PAYLOAD_MAX - 1), // just below: inlined
                ttl: 9,
            },
            Message::Ack { seq: 3 },
        ];
        let mut s = NonBlockingFramedStream::new(Trickle::new(Vec::new()));
        let mut expected_pending = 0;
        for m in &msgs {
            s.queue(m);
            expected_pending += m.wire_size();
        }
        assert_eq!(s.pending_out(), expected_pending);
        while s.wants_write() {
            s.flush().unwrap();
        }
        let mut codec = FrameCodec::new();
        codec.feed(&s.get_ref().output);
        for m in &msgs {
            assert_eq!(codec.next().unwrap().as_ref(), Some(m));
        }
        assert_eq!(codec.next().unwrap(), None);
    }

    #[test]
    fn queued_large_payload_is_not_copied() {
        let value = payload::pattern(1, 8192);
        let msg = Message::PutReq { id: RequestId(1), key: 1, value: value.clone(), ttl: 0 };
        let mut s = NonBlockingFramedStream::new(Trickle::new(Vec::new()));
        s.queue(&msg);
        // The queue holds the refcounted handle itself, not a copy.
        assert!(
            s.out
                .segs
                .iter()
                .any(|seg| matches!(seg, Segment::Payload(p) if p.shares_allocation_with(&value))),
            "large payload should sit in the queue as a shared segment"
        );
    }

    /// A stream that records how many slices each `write_vectored` call
    /// received, to pin that flushing actually gathers.
    struct VectoredRecorder {
        output: Vec<u8>,
        slices_per_call: Vec<usize>,
    }

    impl Read for VectoredRecorder {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }
    }

    impl Write for VectoredRecorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.slices_per_call.push(bufs.len());
            let mut n = 0;
            for b in bufs {
                self.output.extend_from_slice(b);
                n += b.len();
            }
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn flush_gathers_many_segments_per_syscall() {
        let rec = VectoredRecorder { output: Vec::new(), slices_per_call: Vec::new() };
        let mut s = NonBlockingFramedStream::new(rec);
        // header / payload / header / payload / header: 5 segments.
        s.queue(&Message::GetResp {
            id: RequestId(1),
            key: 1,
            version: 1,
            value: payload::pattern(1, 2048),
            age: 0,
            status: GetStatus::Fresh,
        });
        s.queue(&Message::GetResp {
            id: RequestId(2),
            key: 2,
            version: 1,
            value: payload::pattern(2, 2048),
            age: 0,
            status: GetStatus::Fresh,
        });
        s.queue(&Message::Ack { seq: 1 });
        assert!(s.flush().unwrap());
        let rec = s.get_ref();
        assert_eq!(rec.slices_per_call, vec![5], "one gather write drained all segments");
        // And the gathered bytes decode to the queued frames, in order.
        let mut codec = FrameCodec::new();
        codec.feed(&rec.output);
        assert!(matches!(codec.next().unwrap(), Some(Message::GetResp { key: 1, .. })));
        assert!(matches!(codec.next().unwrap(), Some(Message::GetResp { key: 2, .. })));
        assert_eq!(codec.next().unwrap(), Some(Message::Ack { seq: 1 }));
    }

    #[test]
    fn nonblocking_eof_mid_frame_is_an_error() {
        let msg = Message::Ack { seq: 1 };
        let mut wire = BytesMut::new();
        FrameCodec::encode(&msg, &mut wire);
        let truncated = wire[..wire.len() - 2].to_vec();
        let mut s = NonBlockingFramedStream::new(Trickle::new(truncated));
        let err = loop {
            match s.poll_recv() {
                Ok(PollRecv::WouldBlock) => continue,
                Ok(other) => panic!("expected mid-frame EOF, got {other:?}"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A writer whose calls accept a scripted byte count each, cutting
    /// anywhere: inside a staged run, inside a payload, between them.
    /// A count of 0 is `WouldBlock`. `budget`, when set, caps the total
    /// it takes until reset.
    struct Cutter {
        output: Vec<u8>,
        cuts: Vec<usize>,
        calls: usize,
        budget: Option<usize>,
    }

    impl Read for Cutter {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }
    }

    impl Write for Cutter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut take = self.cuts[self.calls % self.cuts.len()];
            self.calls += 1;
            if let Some(budget) = &mut self.budget {
                take = take.min(*budget);
                *budget -= take;
            }
            if take == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let start = self.output.len();
            for b in bufs {
                let left = take - (self.output.len() - start);
                self.output.extend_from_slice(&b[..left.min(b.len())]);
            }
            Ok(self.output.len() - start)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A reply or request with a payload of `len` bytes, or an `Ack`.
    fn message(kind: u8, len: usize) -> Message {
        let value = payload::pattern(len as u64, len);
        match kind {
            0 => Message::GetResp {
                id: RequestId(len as u64),
                key: 1,
                version: 2,
                value,
                age: 3,
                status: GetStatus::Fresh,
            },
            1 => Message::PutReq { id: RequestId(4), key: 5, value, ttl: 6 },
            _ => Message::Ack { seq: len as u64 },
        }
    }

    /// Messages with payloads of 0–2 KiB, straddling `INLINE_PAYLOAD_MAX`,
    /// each with whether to flush right after queueing it.
    fn messages() -> impl Strategy<Value = Vec<(Message, bool)>> {
        let len = prop_oneof![0usize..2048, 500usize..530];
        proptest::collection::vec(
            (0u8..3, len, any::<bool>()).prop_map(|(kind, len, flush)| (message(kind, len), flush)),
            1..40,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn segment_queue_survives_any_cut(
            msgs in messages(),
            cuts in proptest::collection::vec(
                prop_oneof![Just(0usize), 1usize..64, 64usize..3000],
                1..8,
            ),
        ) {
            // Each cycle of cuts ends with a call that takes all it is
            // offered, so every flush loop makes progress.
            let mut cuts = cuts;
            cuts.push(usize::MAX);
            let writer = Cutter { output: Vec::new(), cuts, calls: 0, budget: None };
            let mut s = NonBlockingFramedStream::new(writer);
            let mut wire = BytesMut::new();
            for (msg, flush_now) in &msgs {
                s.queue(msg);
                FrameCodec::encode(msg, &mut wire);
                if *flush_now {
                    s.flush().unwrap();
                }
                prop_assert_eq!(s.pending_out(), wire.len() - s.get_ref().output.len());
            }
            while !s.flush().unwrap() {}
            prop_assert_eq!(&s.get_ref().output[..], &wire[..]);
            prop_assert_eq!(s.out.staging.len(), 0);
        }

        #[test]
        fn a_queue_that_never_drains_reclaims_what_it_sent(msgs in messages()) {
            // The reader accepts half of what is pending on each flush
            // while the writer keeps queueing, so the queue never
            // empties and staging is never cleared: only reclaiming the
            // consumed prefix keeps its capacity in proportion.
            let writer = Cutter { output: Vec::new(), cuts: vec![usize::MAX], calls: 0, budget: None };
            let mut s = NonBlockingFramedStream::new(writer);
            for _ in 0..100 {
                for (msg, _) in &msgs {
                    s.queue(msg);
                }
                s.get_mut().budget = Some(s.pending_out() / 2);
                s.flush().unwrap();
                prop_assert!(s.wants_write());
                let cap = s.out.staging.capacity();
                prop_assert!(
                    cap <= 4 * s.pending_out() + 64 * 1024,
                    "staging holds {} bytes for {} pending", cap, s.pending_out()
                );
                s.get_mut().output.clear();
            }
        }
    }

    #[test]
    fn nonblocking_garbage_is_invalid_data() {
        let mut s = NonBlockingFramedStream::new(Trickle::new(vec![0xFF; 8]));
        let err = loop {
            match s.poll_recv() {
                Ok(PollRecv::WouldBlock) => continue,
                Ok(other) => panic!("expected protocol error, got {other:?}"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
