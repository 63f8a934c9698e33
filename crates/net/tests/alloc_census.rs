//! Allocation census: exact heap-allocation counts on the paths every
//! cached value and every reply takes.
//!
//! * A large `PutReq`/`FetchResp` value that arrives whole in one read
//!   is one allocation — a single block holding its refcount and bytes.
//! * `repin_small` copies a short value into one allocation.
//! * Once a connection has warmed up, queueing and flushing replies
//!   allocates nothing.
//!
//! A counting `#[global_allocator]` wraps `System`. Counts are per
//! thread, so tests running in parallel do not see each other's
//! allocations. `alloc` and `realloc` both count: either is a call into
//! the allocator.

use bytes::{Bytes, BytesMut};
use fresca_net::msg::{GetStatus, Message, RequestId};
use fresca_net::pin::{repin_small, DEFAULT_PIN_THRESHOLD};
use fresca_net::{payload, FrameCodec, NonBlockingFramedStream};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, IoSlice, Read, Write};

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

/// Run `f` and return its result with the allocations it made on this
/// thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const VALUES_PER_CHUNK: usize = 8;

/// `VALUES_PER_CHUNK` frames of `make(len)` back to back: one read's worth.
fn chunk_of(make: impl Fn(u64) -> Message) -> Vec<u8> {
    let mut wire = BytesMut::new();
    for key in 0..VALUES_PER_CHUNK as u64 {
        FrameCodec::encode(&make(key), &mut wire);
    }
    wire.to_vec()
}

#[test]
fn a_large_value_fed_in_one_chunk_is_one_allocation() {
    for len in [DEFAULT_PIN_THRESHOLD, 4096, 16 * 1024] {
        let put = chunk_of(|key| Message::PutReq {
            id: RequestId(key),
            key,
            value: payload::pattern(key, len),
            ttl: 0,
        });
        let fetch = chunk_of(|key| Message::FetchResp {
            key,
            version: 1,
            value: payload::pattern(key, len),
        });
        for (name, wire) in [("PutReq", put), ("FetchResp", fetch)] {
            let mut codec = FrameCodec::new();
            let decode = |codec: &mut FrameCodec| {
                let ((), fed) = allocs(|| codec.feed(&wire));
                let (values, decoded) = allocs(|| {
                    let mut values = Vec::with_capacity(VALUES_PER_CHUNK);
                    while let Some(msg) = codec.next().expect("well-formed frames") {
                        values.push(msg);
                    }
                    values
                });
                assert_eq!(values.len(), VALUES_PER_CHUNK);
                (fed, decoded - 1) // less the `values` vector itself
            };
            // The first chunk sizes the codec's buffer and queue.
            decode(&mut codec);
            let (fed, decoded) = decode(&mut codec);
            assert_eq!(fed, VALUES_PER_CHUNK, "{name} of {len} B: one allocation per value");
            // Decoding shares the accumulation buffer once per chunk,
            // so the frames it slices can outlive it.
            assert_eq!(decoded, 1, "{name} of {len} B: decoding allocates once per chunk");
        }
    }
}

#[test]
fn repinning_a_short_view_is_one_allocation() {
    let chunk = Bytes::from(vec![7u8; 4096]);
    let view = chunk.slice(..100);
    let (exact, n) = allocs(|| repin_small(view, DEFAULT_PIN_THRESHOLD));
    assert_eq!(n, 1);
    assert_eq!(exact.allocation_size(), 100);
}

/// A socket that takes everything it is offered and keeps nothing.
struct Sink(usize);

impl Read for Sink {
    fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
        Err(io::ErrorKind::WouldBlock.into())
    }
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len();
        Ok(buf.len())
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let n = bufs.iter().map(|b| b.len()).sum();
        self.0 += n;
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_warm_connection_queues_and_flushes_replies_without_allocating() {
    let replies: Vec<Message> = (0..64u64)
        .map(|key| Message::GetResp {
            id: RequestId(key),
            key,
            version: 1,
            value: payload::pattern(key, if key % 2 == 0 { 64 } else { 4096 }),
            age: 0,
            status: GetStatus::Fresh,
        })
        .collect();
    let wire: usize = replies.iter().map(Message::wire_size).sum();
    let mut conn = NonBlockingFramedStream::new(Sink(0));
    let round = |conn: &mut NonBlockingFramedStream<Sink>| {
        allocs(|| {
            for reply in &replies {
                conn.queue(reply);
            }
            conn.flush().expect("the sink never fails")
        })
    };
    let (drained, _) = round(&mut conn);
    assert!(drained);
    let (drained, n) = round(&mut conn);
    assert!(drained);
    assert_eq!(conn.get_ref().0, 2 * wire, "every byte reached the sink");
    assert_eq!(n, 0, "queue + flush of 64 replies after warm-up");
}
