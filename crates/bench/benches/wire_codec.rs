//! Wire-codec payload throughput: the zero-copy path vs a copying
//! reference path, measured in the same run.
//!
//! For each value size this bench times one served-read encode+decode
//! round trip — build a `GetResp` from a cached value, encode it for
//! the socket, then feed a wire image of the frame to the connection's
//! (persistent, as on a real connection) decoder and extract the
//! payload — twice:
//!
//! * **zero-copy** (the shipped path): the response borrows the cache's
//!   refcounted `Bytes` handle, encoding stages only the ~34 header
//!   bytes and hands the payload through as a scatter-gather segment
//!   (`write_vectored` passes those slices to the kernel; userspace
//!   never copies them), and decoding slices the payload out of the
//!   receive buffer with `split_to().freeze()`. The only payload-sized
//!   userspace copy is `feed` filling the receive buffer from the
//!   frame's wire image (on a real connection, from the `read(2)`
//!   scratch) — identical in both paths.
//! * **copying reference** (the pre-change design, kept as the in-run
//!   baseline): building the response copies the value out of the
//!   cache, encoding memcpys it into the contiguous send buffer, and
//!   decoding copies the frame out of the accumulation buffer (what the
//!   replaced Vec-backed `split_to` did) and materializes the payload
//!   into a fresh allocation.
//!
//! Before timing, the bench *proves* both halves of the receive side:
//! two `GetResp` frames fed in one chunk come back as views of the same
//! backing allocation (zero-copy decode), and two `PutReq` frames fed
//! in one chunk come back as values that each own exactly their bytes
//! (the codec routed them out of the chunk, so caching them pins
//! nothing else). It also counts allocator calls (a counting global
//! allocator, per thread) on two paths and asserts the counts: a 4 KiB
//! `PutReq` value arriving whole in one read is one allocation, and a
//! warm connection queues and flushes 64 mixed replies with none.
//! Results go to stdout and to `BENCH_wire.json` (uploaded by CI) with
//! the 4 KiB speedup the acceptance bar reads.
//!
//! ```sh
//! cargo bench -p fresca-bench --bench wire_codec
//! ```

use bytes::{Bytes, BytesMut};
use criterion::black_box;
use fresca_net::{payload, FrameCodec, GetStatus, Message, NonBlockingFramedStream, RequestId};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, IoSlice, Read, Write};
use std::time::Instant;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract. Counting only bumps a
// const-initialised thread-local `Cell` without a destructor, which
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's guarantees on `layout` pass through to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
    // with `layout`, as the caller guarantees.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: as for `dealloc`, plus the caller's guarantees on
    // `new_size`, all passed through to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls (`alloc` and `realloc`) `f` makes on this thread.
fn allocs(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Value sizes under test; 4096 is the acceptance-bar size.
const SIZES: &[usize] = &[0, 64, 4096, 65536];

/// One measured row of the report.
#[derive(Debug, Serialize)]
struct SizeRow {
    value_bytes: usize,
    wire_bytes: usize,
    /// Encode+decode round trip, zero-copy path (ns/op).
    zero_copy_ns: f64,
    /// Encode+decode round trip, copying reference path (ns/op).
    copying_ns: f64,
    /// copying_ns / zero_copy_ns.
    speedup: f64,
    /// Wire throughput of the zero-copy path (MiB/s).
    zero_copy_mib_s: f64,
}

#[derive(Debug, Serialize)]
struct WireReport {
    /// Witnessed by pointer identity: a decoded 4 KiB payload is a view
    /// of the receive buffer, not a fresh allocation.
    zero_copy_decode: bool,
    /// Witnessed by allocation size and identity: 4 KiB `PutReq` values
    /// decoded from one chunk each own an exact, unshared allocation.
    exact_put_decode: bool,
    /// Allocator calls `feed` makes for one 4 KiB `PutReq` arriving
    /// whole in one read, on a warm codec: the value's single block.
    put_decode_allocs: usize,
    /// Allocator calls for queueing and flushing 64 `GetResp`s (64 B
    /// inline and 4 KiB segment payloads) on a warm connection.
    reply_queue_allocs: usize,
    /// Speedup at the 4 KiB acceptance size (copying / zero-copy).
    speedup_4k: f64,
    rows: Vec<SizeRow>,
}

fn response_with(value: Bytes) -> Message {
    Message::GetResp {
        id: RequestId(1),
        key: 7,
        version: 3,
        value,
        age: 1_000,
        status: GetStatus::Fresh,
    }
}

/// One zero-copy round trip. Encode: refcount-bump the cached value
/// into the response, stage the header, divert the payload as an iovec
/// segment (black_boxed in place of the kernel consuming it). Decode:
/// feed the frame's wire image into the connection's persistent codec
/// and slice the payload out.
fn zero_copy_roundtrip(
    cached: &Bytes,
    staging: &mut BytesMut,
    segments: &mut Vec<Bytes>,
    wire_image: &[u8],
    codec: &mut FrameCodec,
) -> usize {
    let msg = response_with(cached.clone());
    staging.clear();
    segments.clear();
    FrameCodec::encode_into(&msg, staging, |_, p| segments.push(p.clone()));
    // The gather write: the kernel reads straight from these slices.
    black_box(&staging[..]);
    for seg in segments.iter() {
        black_box(&seg[..]);
    }
    // Receive side: the read(2) copy into the codec's buffer, then a
    // zero-copy slice out of it.
    codec.feed(wire_image);
    match codec.next().unwrap().unwrap() {
        Message::GetResp { value, .. } => value.len(),
        _ => unreachable!(),
    }
}

/// One copying-reference round trip: cache→message copy, payload memcpy
/// into the contiguous send buffer, the same read(2) copy, and a
/// materializing decode.
fn copying_roundtrip(
    cached: &Bytes,
    out: &mut BytesMut,
    wire_image: &[u8],
    codec: &mut FrameCodec,
) -> usize {
    let msg = response_with(Bytes::copy_from_slice(cached)); // copy 1: cache → message
    out.clear();
    FrameCodec::encode(&msg, out); // copy 2: message → send buffer
    black_box(&out[..]);
    codec.feed(wire_image);
    // Copy 3: the pre-change Vec-backed buffer copied every frame out of
    // the accumulation buffer on `split_to` (see the old vendor shim:
    // `split_to` materialized the front with `to_vec`); charge that
    // frame-sized copy here since today's shared-allocation split no
    // longer performs it.
    black_box(wire_image.to_vec());
    match codec.next().unwrap().unwrap() {
        Message::GetResp { value, .. } => value.to_vec().len(), // copy 4: materialize
        _ => unreachable!(),
    }
}

/// Median ns/op over `samples` timed batches.
fn measure(mut op: impl FnMut() -> usize, iters: u32, samples: usize) -> f64 {
    let mut medians = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(op());
        }
        medians.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    medians.sort_by(|a, b| a.partial_cmp(b).unwrap());
    medians[medians.len() / 2]
}

/// Pointer-identity witness that decode slices instead of copying: two
/// frames fed as one chunk decode to views of one shared allocation.
fn verify_zero_copy_decode() -> bool {
    let a = response_with(payload::pattern(7, 4096));
    let b = response_with(payload::pattern(8, 4096));
    let mut wire = BytesMut::new();
    FrameCodec::encode(&a, &mut wire);
    FrameCodec::encode(&b, &mut wire);
    let mut codec = FrameCodec::new();
    codec.feed(&wire);
    let (Some(Message::GetResp { value: va, .. }), Some(Message::GetResp { value: vb, .. })) =
        (codec.next().unwrap(), codec.next().unwrap())
    else {
        return false;
    };
    va.shares_allocation_with(&vb) && va == payload::pattern(7, 4096)
}

/// Witness that values a node caches own their bytes: two `PutReq`
/// frames fed as one chunk decode to values in exact allocations of
/// their own, not views of the chunk.
fn verify_exact_put_decode() -> bool {
    let put = |key| Message::PutReq {
        id: RequestId(key),
        key,
        value: payload::pattern(key, 4096),
        ttl: 0,
    };
    let mut wire = BytesMut::new();
    FrameCodec::encode(&put(7), &mut wire);
    FrameCodec::encode(&put(8), &mut wire);
    let mut codec = FrameCodec::new();
    codec.feed(&wire);
    let (Some(Message::PutReq { value: va, .. }), Some(Message::PutReq { value: vb, .. })) =
        (codec.next().unwrap(), codec.next().unwrap())
    else {
        return false;
    };
    !va.shares_allocation_with(&vb)
        && [&va, &vb].iter().all(|v| v.allocation_size() == v.len())
        && va == payload::pattern(7, 4096)
}

/// Allocator calls `feed` makes for one 4 KiB `PutReq` frame fed in
/// one chunk, after a first round has sized the codec.
fn count_put_decode_allocs() -> usize {
    let put =
        Message::PutReq { id: RequestId(1), key: 1, value: payload::pattern(1, 4096), ttl: 0 };
    let mut wire = BytesMut::new();
    FrameCodec::encode(&put, &mut wire);
    let mut codec = FrameCodec::new();
    let mut fed = 0;
    for _ in 0..2 {
        fed = allocs(|| codec.feed(&wire));
        assert_eq!(codec.next().unwrap(), Some(put.clone()));
    }
    fed
}

/// A socket that takes everything it is offered and keeps nothing.
struct Sink;

impl Read for Sink {
    fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
        Err(io::ErrorKind::WouldBlock.into())
    }
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        Ok(bufs.iter().map(|b| b.len()).sum())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Allocator calls for queueing and flushing 64 mixed replies, after a
/// first round has sized the connection's outbound queue.
fn count_reply_queue_allocs() -> usize {
    let replies: Vec<Message> = (0..64)
        .map(|key| response_with(payload::pattern(key, if key % 2 == 0 { 64 } else { 4096 })))
        .collect();
    let mut conn = NonBlockingFramedStream::new(Sink);
    let mut queued = 0;
    for _ in 0..2 {
        queued = allocs(|| {
            for reply in &replies {
                conn.queue(reply);
            }
            assert!(conn.flush().unwrap(), "the sink takes everything");
        });
    }
    queued
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (iters, samples) = if test_mode { (1, 1) } else { (2_000, 15) };

    let zero_copy_decode = verify_zero_copy_decode();
    assert!(zero_copy_decode, "decode materialized a payload copy");
    let exact_put_decode = verify_exact_put_decode();
    assert!(exact_put_decode, "a decoded PutReq value pins more than its bytes");
    let put_decode_allocs = count_put_decode_allocs();
    assert_eq!(put_decode_allocs, 1, "a value arriving whole is one allocation");
    let reply_queue_allocs = count_reply_queue_allocs();
    assert_eq!(reply_queue_allocs, 0, "a warm connection queues and flushes without allocating");

    let mut rows = Vec::new();
    for &size in SIZES {
        let cached = payload::pattern(42, size);
        let msg = response_with(cached.clone());
        let wire_bytes = msg.wire_size();
        // The frame's wire image: what the peer's read(2) delivers.
        let mut image = BytesMut::with_capacity(wire_bytes);
        FrameCodec::encode(&msg, &mut image);
        let image = image.to_vec();

        let mut staging = BytesMut::new();
        let mut segments = Vec::new();
        let mut zc_codec = FrameCodec::new();
        let zc = measure(
            || zero_copy_roundtrip(&cached, &mut staging, &mut segments, &image, &mut zc_codec),
            iters,
            samples,
        );
        let mut out = BytesMut::new();
        let mut cp_codec = FrameCodec::new();
        let cp = measure(
            || copying_roundtrip(&cached, &mut out, &image, &mut cp_codec),
            iters,
            samples,
        );
        let speedup = if zc > 0.0 { cp / zc } else { 0.0 };
        println!(
            "wire_codec/get_resp/{size:>6}B  zero-copy {zc:>9.1} ns  copying {cp:>9.1} ns  \
             speedup {speedup:>5.2}x"
        );
        rows.push(SizeRow {
            value_bytes: size,
            wire_bytes,
            zero_copy_ns: zc,
            copying_ns: cp,
            speedup,
            zero_copy_mib_s: if zc > 0.0 {
                wire_bytes as f64 * 1e9 / zc / (1024.0 * 1024.0)
            } else {
                0.0
            },
        });
    }

    let speedup_4k =
        rows.iter().find(|r| r.value_bytes == 4096).map_or(0.0, |r| r.speedup);
    let report = WireReport {
        zero_copy_decode,
        exact_put_decode,
        put_decode_allocs,
        reply_queue_allocs,
        speedup_4k,
        rows,
    };
    if !test_mode {
        // Cargo runs bench binaries from the package dir; drop the
        // artifact at the workspace root where CI picks it up.
        let path = std::env::var("BENCH_WIRE_OUT").unwrap_or_else(|_| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wire.json").to_string()
        });
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(&path, json + "\n").expect("write BENCH_wire.json");
        println!("wrote {path} (4 KiB speedup: {speedup_4k:.2}x)");
    } else {
        println!("test wire_codec ... ok (bench smoke)");
    }
}
