//! The one adapter between the benchmark and the repo: every name the
//! benchmark binds to outside its own package is imported here, so a
//! refactor of a layer's public surface is absorbed in this file alone.
//!
//! Two halves: thin handles the live run drives (`probe`, `Origin`,
//! `Pusher`, `pipelined_probe`, the wire types), and the **layer replay**
//! — the workload's seeded op stream fed single-threaded into each
//! layer's public functions, one span per 1 024 calls, giving the ns/op
//! rows of the per-layer metrics.

use crate::hist::Hist;
use crate::trace::{Tracer, NONE};
use crate::workload::{key_of, Op, Spec, GET_BOUND_NS, NODE_SHARDS, PUT_TTL_NS, WINDOW};
use fresca_cache::{BoundedGet, Capacity, RefetchTable, SlabCache};
use fresca_core::cost::{CostModel, ObjectSize};
use fresca_core::policy::AdaptivePolicy;
use fresca_net::pin::{repin_small, DEFAULT_PIN_THRESHOLD};
use fresca_net::{payload, FramedStream, NonBlockingFramedStream, PollRecv};
use fresca_serve::ring::DEFAULT_VNODES;
use fresca_serve::{
    origin, CacheClient, HashRing, OriginHandle, OriginState, PipelinedClient, PushConfig,
    PushPolicy, Response, StorePusher,
};
use fresca_sim::{SimDuration, SimTime};
use fresca_sketch::{EwEstimator, TopKEw};
use fresca_store::{DataStore, InvalidationTracker, WriteBuffer};
use std::hint::black_box;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::time::Instant;

pub use bytes::{Bytes, BytesMut};
pub use fresca_net::{FrameCodec, GetStatus, Message, RequestId};
pub use fresca_serve::{PushStats, ServerProbe};

// ---- live-run handles ---------------------------------------------------

/// Keys whose pattern is remembered (the hottest ranks): bounds the
/// generator's memory at `CACHED_KEYS` × mean value size.
const CACHED_KEYS: u64 = 16_384;

/// The bytes every writer stores for a key at a length
/// (`payload::pattern`), remembered per hot key so that always-on
/// verification and put payloads cost a refcount bump and a `memcmp`
/// instead of regenerating KiBs per op — the generator must cost less per
/// op than the node it measures.
pub struct Patterns {
    /// `slots[key]` is `payload::pattern(key, slots[key].len())`.
    slots: Vec<Bytes>,
}

impl Patterns {
    pub fn new(keys: u64) -> Self {
        Patterns { slots: vec![Bytes::new(); keys.min(CACHED_KEYS) as usize + 1] }
    }

    /// The bytes a writer stores for `key` at `len`.
    pub fn get(&mut self, key: u64, len: usize) -> Bytes {
        match self.slots.get_mut(key as usize) {
            Some(slot) => {
                if slot.len() != len {
                    *slot = payload::pattern(key, len);
                }
                slot.clone()
            }
            None => payload::pattern(key, len),
        }
    }

    /// True when `value` is exactly the pattern for `key` at its length.
    /// Same verdict as `payload::verify` (which compares FNV checksums of
    /// the two), by comparing the bytes themselves.
    pub fn value_ok(&mut self, key: u64, value: &[u8]) -> bool {
        self.get(key, value.len())[..] == *value
    }
}

/// The node's wire-exported counters (`StatsReq` → `StatsResp`).
pub struct Probe(CacheClient);

impl Probe {
    pub fn connect(addr: SocketAddr) -> io::Result<Probe> {
        CacheClient::connect(addr).map(Probe)
    }

    pub fn stats(&mut self) -> io::Result<ServerProbe> {
        self.0.server_stats()
    }
}

/// The in-process origin listener a `--origin` node refetches through.
pub struct Origin(OriginHandle);

impl Origin {
    pub fn spawn() -> io::Result<Origin> {
        let state = OriginState::with_default_estimator(origin::DEFAULT_ORIGIN_VALUE_SIZE);
        origin::spawn("127.0.0.1:0", state.into_shared()).map(Origin)
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// A store pusher on this origin's backend state (adaptive policy),
    /// pushing to the one node at `node`.
    pub fn pusher(&self, node: SocketAddr) -> io::Result<Pusher> {
        let config = PushConfig { policy: PushPolicy::Adaptive, ..PushConfig::default() };
        StorePusher::connect_shared(&[node.to_string()], config, self.0.state()).map(Pusher)
    }

    pub fn shutdown(self) {
        self.0.shutdown()
    }
}

pub struct Pusher(StorePusher);

impl Pusher {
    pub fn write(&mut self, key: u64, value_size: u32) {
        black_box(self.0.write(key, value_size));
    }

    /// Flush the dirty set; returns the keys carried across all batches.
    pub fn flush(&mut self) -> io::Result<usize> {
        Ok(self.0.flush()?.iter().map(|r| r.keys).sum())
    }

    pub fn stats(&self) -> PushStats {
        self.0.stats()
    }
}

/// Client-side tally of read outcomes, in the node's own categories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub gets: u64,
    pub puts: u64,
    pub fresh: u64,
    pub stale: u64,
    pub refused: u64,
    pub miss: u64,
}

impl Tally {
    pub fn count(&mut self, status: GetStatus) {
        self.gets += 1;
        match status {
            GetStatus::Fresh => self.fresh += 1,
            GetStatus::ServedStale => self.stale += 1,
            GetStatus::RefusedStale => self.refused += 1,
            GetStatus::Miss => self.miss += 1,
        }
    }

    pub fn add(&mut self, o: &Tally) {
        self.gets += o.gets;
        self.puts += o.puts;
        self.fresh += o.fresh;
        self.stale += o.stale;
        self.refused += o.refused;
        self.miss += o.miss;
    }
}

/// Spans round `PipelinedClient::submit_get` / `complete` on a side
/// connection: `rounds` windows of `WINDOW` gets. Returns ns per submit,
/// ns per complete, and what the gets resolved to (the node counts them).
pub fn pipelined_probe(
    addr: SocketAddr,
    keys: &[u64],
    rounds: usize,
    tracer: &mut Tracer,
) -> io::Result<(f64, f64, Tally)> {
    let mut client = PipelinedClient::connect(addr)?;
    let bound = Some(SimDuration::from_nanos(GET_BOUND_NS));
    let mut tally = Tally::default();
    let (mut submit_ns, mut complete_ns) = (0u64, 0u64);
    let mut next = keys.iter().cycle();
    for _ in 0..rounds {
        let t0 = tracer.now();
        for _ in 0..WINDOW {
            client.submit_get(*next.next().expect("keys are not empty"), bound)?;
        }
        let t1 = tracer.now();
        for _ in 0..WINDOW {
            if let (_, Response::Get { outcome, .. }) = client.complete()? {
                tally.count(outcome.status);
            }
        }
        let t2 = tracer.now();
        tracer.span("client.submit", t0, t1, NONE, NONE);
        tracer.span("client.complete", t1, t2, NONE, NONE);
        submit_ns += t1 - t0;
        complete_ns += t2 - t1;
    }
    let calls = (rounds * WINDOW) as f64;
    Ok((submit_ns as f64 / calls, complete_ns as f64 / calls, tally))
}

// ---- layer replay -------------------------------------------------------

/// Calls per span in the replay.
const CHUNK: usize = 1024;

/// Run `f(i)` for `i in 0..calls`, one span per `CHUNK` calls; ns/call.
fn timed(tracer: &mut Tracer, name: &'static str, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    if calls == 0 {
        return 0.0;
    }
    let mut total = 0u64;
    let mut i = 0;
    while i < calls {
        let end = (i + CHUNK).min(calls);
        let t0 = Instant::now();
        for j in i..end {
            f(j);
        }
        let dt = t0.elapsed().as_nanos() as u64;
        let start = tracer.at(t0);
        tracer.span(name, start, start + dt, NONE, NONE);
        total += dt;
        i = end;
    }
    total as f64 / calls as f64
}

/// `timed`, reported as the row `metric` (`<span name>_ns`).
fn timed_row(
    rows: &mut Vec<(&'static str, f64)>,
    tracer: &mut Tracer,
    metric: &'static str,
    calls: usize,
    f: impl FnMut(usize),
) {
    let span = metric.strip_suffix("_ns").expect("timed rows are ns/call metrics");
    rows.push((metric, timed(tracer, span, calls, f)));
}

/// A `Read + Write` wrapper counting the calls the framed transport makes.
struct Counting<S> {
    inner: S,
    reads: u64,
    writes: u64,
}

impl<S: Read> Read for Counting<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        self.inner.read(buf)
    }
}

impl<S: Write> Write for Counting<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.inner.write(buf)
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.writes += 1;
        self.inner.write_vectored(bufs)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The request a client op puts on the wire; `value` supplies a put's bytes.
pub fn request(op: Op, id: u64, value: impl FnOnce(u64, usize) -> Bytes) -> Message {
    let id = RequestId(id);
    match op {
        Op::Get { key } => Message::GetReq { id, key, max_staleness: GET_BOUND_NS },
        Op::Put { key, len } => {
            Message::PutReq { id, key, value: value(key, len as usize), ttl: PUT_TTL_NS }
        }
    }
}

/// This benchmark's stand-in for the node's shard routing, so the slab
/// replay sees one shard's share of the keys.
fn in_replay_shard(key: u64) -> bool {
    payload::mix(key).is_multiple_of(NODE_SHARDS as u64)
}

/// Everything the replay measures, as `(metric name, value)` rows.
pub struct Replay {
    pub rows: Vec<(&'static str, f64)>,
    /// ns the node spends per op in the replayed layers (request decode +
    /// slab op + reply encode), mix-weighted: what
    /// `serve.unattributed_us_per_op` subtracts from `cpu_us_per_op`.
    pub attributed_ns_per_op: f64,
}

/// Feed the workload's op stream (and store-write keys) through each
/// layer's public functions. `ops` is the head of the run's own stream.
pub fn replay(
    spec: &Spec,
    ops: &[Op],
    write_keys: &[u64],
    tracer: &mut Tracer,
) -> io::Result<Replay> {
    let mut rows: Vec<(&'static str, f64)> = Vec::new();
    let blob = payload::pattern(0, 16 * 1024);
    let now = SimTime::from_secs(1);
    let bound = Some(SimDuration::from_nanos(GET_BOUND_NS));
    let expires = Some(now + SimDuration::from_nanos(PUT_TTL_NS));

    // cache.slab: one shard's share of the stream on a shard-sized slab.
    let shard_ops: Vec<Op> = ops.iter().copied().filter(|o| in_replay_shard(o.key())).collect();
    let mut slab = SlabCache::new(Capacity::Entries((spec.capacity_entries / NODE_SHARDS).max(1)));
    for rank in 0..spec.prefill {
        let key = key_of(rank);
        if in_replay_shard(key) {
            let value = blob.slice(..spec.put_size(key) as usize);
            slab.insert_value(key, rank + 1, value, now, expires);
        }
    }
    // Reply frames are built from the slab's answers, as the node would.
    let mut replies: Vec<Message> = Vec::with_capacity(shard_ops.len());
    let (mut get_ns, mut gets, mut insert_ns, mut inserts) = (0u64, 0u64, 0u64, 0u64);
    let mut version = spec.prefill;
    for chunk in shard_ops.chunks(CHUNK) {
        // Within a chunk the gets run before the puts, so each kind is
        // timed as one span without a clock read per call.
        let t0 = Instant::now();
        for (i, op) in chunk.iter().enumerate() {
            if let Op::Get { key } = *op {
                let read = slab.get_bounded(key, now, bound);
                let (status, value, v) = match read {
                    BoundedGet::Fresh(e) => (GetStatus::Fresh, e.value, e.version),
                    BoundedGet::ServedStale(e) => (GetStatus::ServedStale, e.value, e.version),
                    BoundedGet::Refused(_) => (GetStatus::RefusedStale, Bytes::new(), 0),
                    BoundedGet::Miss => (GetStatus::Miss, Bytes::new(), 0),
                };
                replies.push(Message::GetResp {
                    id: RequestId(i as u64 + 1),
                    key,
                    version: v,
                    value,
                    age: 0,
                    status,
                });
            }
        }
        let t1 = Instant::now();
        for (i, op) in chunk.iter().enumerate() {
            if let Op::Put { key, len } = *op {
                version += 1;
                black_box(slab.insert_value(
                    key,
                    version,
                    blob.slice(..len as usize),
                    now,
                    expires,
                ));
                replies.push(Message::PutResp { id: RequestId(i as u64 + 1), key, version });
            }
        }
        let t2 = Instant::now();
        let n_gets = chunk.iter().filter(|o| matches!(o, Op::Get { .. })).count() as u64;
        let (a, b, c) = (tracer.at(t0), tracer.at(t1), tracer.at(t2));
        tracer.span("cache.slab.get", a, b, NONE, NONE);
        tracer.span("cache.slab.insert", b, c, NONE, NONE);
        get_ns += b - a;
        insert_ns += c - b;
        gets += n_gets;
        inserts += chunk.len() as u64 - n_gets;
    }
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    // The get span also builds the reply message (a refcount bump and a
    // push), which the node does too on its way to the encoder.
    let slab_get_ns = per(get_ns, gets);
    let slab_insert_ns = per(insert_ns, inserts);
    rows.push(("cache.slab.get_ns", slab_get_ns));
    rows.push(("cache.slab.insert_ns", slab_insert_ns));
    let stats = slab.stats();
    rows.push(("cache.slab.hit_share", per(stats.fresh_hits, stats.reads())));
    rows.push((
        "cache.slab.evictions_per_kop",
        per(stats.evictions * 1000, shard_ops.len() as u64),
    ));

    // Store-pushed invalidations and updates on the same slab: the write
    // stream's keys where the workload has one, else the client stream's.
    let push_keys: Vec<u64> = if write_keys.is_empty() {
        shard_ops.iter().map(Op::key).collect()
    } else {
        write_keys.iter().copied().filter(|&k| in_replay_shard(k)).collect()
    };
    timed_row(&mut rows, tracer, "cache.slab.invalidate_ns", push_keys.len(), |i| {
        black_box(slab.apply_invalidate(push_keys[i]));
    });
    timed_row(&mut rows, tracer, "cache.slab.update_ns", push_keys.len(), |i| {
        let key = push_keys[i];
        let value = blob.slice(..spec.put_size(key) as usize);
        black_box(slab.apply_update_value(key, version + i as u64, value, now, None));
    });

    // cache.refetch: park a reader, then complete the key's epoch.
    let table: RefetchTable<u64> = RefetchTable::new();
    timed_row(&mut rows, tracer, "cache.refetch.park_ns", shard_ops.len(), |i| {
        let key = shard_ops[i].key();
        black_box(table.park(key, i as u64));
        black_box(table.complete(key));
    });

    // net.codec: the node decodes request frames and encodes reply frames.
    let requests: Vec<Message> = shard_ops
        .iter()
        .enumerate()
        .map(|(i, &op)| request(op, i as u64 + 1, |_, len| blob.slice(..len)))
        .collect();
    let mut wire = BytesMut::new();
    for m in &requests {
        FrameCodec::encode(m, &mut wire);
    }
    let request_bytes = wire.len();
    let mut codec = FrameCodec::new();
    let mut fed = 0;
    let decode_ns = timed(tracer, "net.codec.decode", requests.len(), |i| {
        // Feed in receive-chunk-sized pieces, as a socket read would.
        while fed < wire.len() && !codec.has_frame() {
            let end = (fed + 64 * 1024).min(wire.len());
            codec.feed(&wire[fed..end]);
            fed = end;
        }
        let msg = codec.next().expect("replayed frames decode");
        debug_assert_eq!(msg.as_ref(), Some(&requests[i]));
        black_box(msg);
    });
    let decode_s = decode_ns * requests.len() as f64 / 1e9;
    let mut out = BytesMut::with_capacity(64 * 1024);
    let encode_ns = timed(tracer, "net.codec.encode", replies.len(), |i| {
        FrameCodec::encode_into(&replies[i], &mut out, |o, p| o.extend_from_slice(p));
        if out.len() > 48 * 1024 {
            black_box(&out[..]);
            out.clear();
        }
    });
    rows.push(("net.codec.encode_ns", encode_ns));
    rows.push(("net.codec.decode_ns", decode_ns));
    rows.push((
        "net.codec.decode_mib_s",
        if decode_s > 0.0 { request_bytes as f64 / (1 << 20) as f64 / decode_s } else { 0.0 },
    ));

    // net.frame_io: request/reply windows over a socket pair, counting
    // the syscalls the framed transport makes.
    let (a, b) = UnixStream::pair()?;
    a.set_nonblocking(true)?;
    b.set_nonblocking(true)?;
    let mut client = NonBlockingFramedStream::new(Counting { inner: a, reads: 0, writes: 0 });
    let mut server = NonBlockingFramedStream::new(Counting { inner: b, reads: 0, writes: 0 });
    let pairs = requests.len().min(replies.len());
    let t0 = Instant::now();
    for (reqs, reps) in requests[..pairs].chunks(WINDOW).zip(replies[..pairs].chunks(WINDOW)) {
        let w0 = tracer.now();
        for m in reqs {
            client.queue(m);
        }
        let (mut served, mut received) = (0, 0);
        while received < reps.len() {
            client.flush()?;
            while let PollRecv::Msg(m) = server.poll_recv()? {
                black_box(m);
                server.queue(&reps[served]);
                served += 1;
            }
            server.flush()?;
            while let PollRecv::Msg(m) = client.poll_recv()? {
                black_box(m);
                received += 1;
            }
        }
        let w1 = tracer.now();
        tracer.span("net.frame_io.window", w0, w1, NONE, NONE);
    }
    let frames = (2 * pairs).max(1) as f64;
    let io_ns = t0.elapsed().as_nanos() as f64;
    let (c, s) = (client.get_ref(), server.get_ref());
    rows.push(("net.frame_io.ns_per_frame", io_ns / frames));
    rows.push(("net.frame_io.writes_per_frame", (c.writes + s.writes) as f64 / frames));
    rows.push(("net.frame_io.reads_per_frame", (c.reads + s.reads) as f64 / frames));

    // net.pin: the workload's value sizes, sliced out of a receive chunk.
    let chunk = Bytes::from(vec![7u8; 64 * 1024]);
    let sizes: Vec<usize> = shard_ops.iter().map(|o| spec.put_size(o.key()) as usize).collect();
    timed_row(&mut rows, tracer, "net.pin.repin_ns", sizes.len(), |i| {
        let len = sizes[i];
        let at = (i * 64) % (chunk.len() - len);
        black_box(repin_small(chunk.slice(at..at + len), DEFAULT_PIN_THRESHOLD));
    });

    // serve.ring: owner lookup among three members.
    let ring =
        HashRing::from_nodes(DEFAULT_VNODES, &["10.0.0.1:7440", "10.0.0.2:7440", "10.0.0.3:7440"]);
    timed_row(&mut rows, tracer, "serve.ring.lookup_ns", push_keys.len(), |i| {
        black_box(ring.node_for(push_keys[i]));
    });

    // store: apply a write and mark it dirty; the §3.1 tracker.
    let mut store = DataStore::new();
    let mut buffer = WriteBuffer::new();
    timed_row(&mut rows, tracer, "store.write_ns", push_keys.len(), |i| {
        let key = push_keys[i];
        black_box(store.write(key, spec.put_size(key), now));
        black_box(buffer.mark_dirty(key));
    });
    let mut tracker = InvalidationTracker::new();
    timed_row(&mut rows, tracer, "store.tracker_ns", push_keys.len(), |i| {
        let key = push_keys[i];
        black_box(tracker.should_send(key));
        if i % 2 == 1 {
            black_box(tracker.clear(key));
        }
    });

    // sketch + policy: the origin's estimator on the read/write stream,
    // then the §3.3 rule per dirty key.
    let mut estimator = TopKEw::new(256, 1024, 4);
    let reads: Vec<u64> = shard_ops.iter().map(Op::key).collect();
    let observe_reads =
        timed(tracer, "sketch.observe", reads.len(), |i| estimator.record_read(reads[i]));
    let observe_writes =
        timed(tracer, "sketch.observe", push_keys.len(), |i| estimator.record_write(push_keys[i]));
    let observed = (reads.len() + push_keys.len()).max(1) as f64;
    rows.push((
        "sketch.observe_ns",
        (observe_reads * reads.len() as f64 + observe_writes * push_keys.len() as f64) / observed,
    ));
    timed_row(&mut rows, tracer, "sketch.estimate_ns", push_keys.len(), |i| {
        black_box(estimator.estimate(push_keys[i]));
    });
    let cost = CostModel::default();
    let mut policy = AdaptivePolicy::new(estimator);
    timed_row(&mut rows, tracer, "core.policy.decide_ns", push_keys.len(), |i| {
        let key = push_keys[i];
        let size = ObjectSize { key: 8, value: spec.put_size(key) };
        black_box(policy.decide(key, &cost, size));
    });

    // serve.origin: the backend's decision, and a fetch round trip to a
    // private origin listener (the run's own origin is left undisturbed).
    let mut state = OriginState::with_default_estimator(origin::DEFAULT_ORIGIN_VALUE_SIZE);
    for (i, &key) in push_keys.iter().enumerate().take(8 * CHUNK) {
        state.write(key, spec.put_size(key));
        if i % 4 == 0 {
            state.serve_fetch(key);
        }
    }
    timed_row(&mut rows, tracer, "serve.origin.decide_ns", push_keys.len(), |i| {
        let key = push_keys[i];
        let size = ObjectSize { key: 8, value: spec.put_size(key) };
        black_box(state.decide(key, &cost, size));
    });
    let listener = origin::spawn("127.0.0.1:0", state.into_shared())?;
    let fetched = (|| -> io::Result<f64> {
        let stream = TcpStream::connect(listener.addr())?;
        stream.set_nodelay(true)?;
        let mut conn = FramedStream::new(stream);
        let mut hist = Hist::new();
        for &key in push_keys.iter().take(2 * CHUNK) {
            let t0 = tracer.now();
            conn.send(&Message::FetchReq { key })?;
            match conn.recv()? {
                Some(Message::FetchResp { key: k, value, .. })
                    if k == key && payload::verify(k, &value) => {}
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("origin answered {other:?}"),
                    ))
                }
            }
            let t1 = tracer.now();
            tracer.span("serve.origin.fetch", t0, t1, NONE, key);
            hist.record(t1 - t0);
        }
        Ok(hist.quantile(0.5) / 1000.0)
    })();
    listener.shutdown();
    rows.push(("serve.origin.fetch_us_p50", fetched?));

    let n = (gets + inserts).max(1) as f64;
    let slab_op = (slab_get_ns * gets as f64 + slab_insert_ns * inserts as f64) / n;
    Ok(Replay { rows, attributed_ns_per_op: decode_ns + slab_op + encode_ns })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::OpGen;

    #[test]
    fn value_ok_agrees_with_payload_verify() {
        // Key 9 is remembered, key 1 << 40 is beyond the cache.
        let mut p = Patterns::new(64);
        for key in [9u64, 1 << 40] {
            for len in [0usize, 1, 63, 64, 100, 4096, 64] {
                let good = p.get(key, len);
                assert_eq!(good, payload::pattern(key, len));
                assert!(p.value_ok(key, &good) && payload::verify(key, &good));
                if len > 1 {
                    let mut bad = good.to_vec();
                    bad[len / 2] ^= 0x40;
                    assert!(
                        !p.value_ok(key, &bad) && !payload::verify(key, &bad),
                        "flipped bit at len {len}"
                    );
                    assert!(!p.value_ok(key + 1, &good), "wrong key at len {len}");
                    assert!(!p.value_ok(key, &good[..len - 1]), "truncated at len {len}");
                }
            }
        }
    }

    #[test]
    fn replay_reports_every_layer_row_on_every_workload() {
        for s in &crate::workload::SPECS {
            let mut gen = OpGen::new(s, 42);
            let ops: Vec<Op> = (0..40_000).map(|_| gen.next()).collect();
            let mut tracer = Tracer::new(true, Instant::now());
            let r = replay(s, &ops, &[], &mut tracer).unwrap();
            assert_eq!(r.rows.len(), 22, "{}: {:?}", s.name, r.rows);
            assert!(r.attributed_ns_per_op > 0.0);
            assert!(tracer.span_count() > 0);
            let hit = r.rows.iter().find(|(n, _)| *n == "cache.slab.hit_share").unwrap().1;
            let evict =
                r.rows.iter().find(|(n, _)| *n == "cache.slab.evictions_per_kop").unwrap().1;
            if s.name == "churn-large" {
                assert!(hit < 1.0 && evict > 0.0, "churn evicts: {hit} {evict}");
            } else {
                assert!(hit == 1.0 && evict == 0.0, "{}: everything hits: {hit} {evict}", s.name);
            }
        }
    }
}
