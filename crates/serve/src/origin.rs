//! The origin endpoint: the store side of the freshness control loop.
//!
//! The paper's backend can track invalidations precisely (§3.1) and
//! choose invalidate-vs-update per key (§3.3) *because* cache refetches
//! flow through it. [`OriginState`] is that backend on the live path: the
//! one I/O-free [`Backend`] the simulator also runs (versioned store,
//! dirty-key buffer, §3.1 tracker and an adaptive rule whose `E[W]`
//! estimator is fed by read statistics from the serving tier), plus a
//! clock and fetch counters. It is shared — behind `Arc<Mutex<_>>` —
//! between two frontends:
//!
//! * the origin **listener** ([`spawn`]): a blocking TCP endpoint cache
//!   servers refetch through. `FetchReq { key }` clears the key's
//!   invalidation mark and answers `FetchResp` with the store's record;
//!   `ReadStats` batches feed the per-key read-frequency estimator.
//! * the **pusher** ([`crate::push::StorePusher`]): applies writes and
//!   runs [`Backend::drain`], which drains the dirty keys, suppresses
//!   invalidates the tracker already counts as sent and (under the
//!   adaptive policy) decides `E[W]·c_u < c_m + c_i` per key.
//!
//! Sharing one state is the whole point: a refetch arriving on the
//! listener un-suppresses the key for the pusher's next flush, and read
//! traffic observed by the serving tier steers which keys the pusher
//! updates rather than invalidates. The lock discipline is strict —
//! state is mutated under the mutex, but frames are built and sent
//! outside it, so a slow peer never stalls the other frontend.

use crate::ServeClock;
use fresca_core::backend::{Backend, Rule};
use fresca_core::cost::{CostModel, ObjectSize};
use fresca_core::policy::{AdaptivePolicy, FlushDecision};
use fresca_net::{FramedStream, Message, ReadStat};
use fresca_sketch::{EwEstimator, TopKEw};
use fresca_store::Record;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Value size (bytes) the origin materialises for a key it has never
/// seen written — a refetch must always produce *something* servable.
pub const DEFAULT_ORIGIN_VALUE_SIZE: u32 = 64;

/// Per-entry cap on the read count one `ReadStats` entry may claim, so
/// a corrupt or hostile frame cannot spin the estimator loop for
/// seconds. Honest senders flush far below this.
const MAX_READS_PER_STAT: u32 = 1 << 16;

/// Default top-k capacity / CountMin dimensions for the origin's
/// read-frequency estimator: exact counters for the hot set, sketched
/// tail, a few KiB total.
const ESTIMATOR_TOPK: usize = 256;
const ESTIMATOR_WIDTH: usize = 1024;
const ESTIMATOR_DEPTH: usize = 4;

/// The shared store-side state of the freshness loop. See the module
/// docs for the sharing contract.
pub struct OriginState {
    pub(crate) backend: Backend,
    clock: ServeClock,
    default_size: u32,
    fetches: u64,
    fetches_by_key: HashMap<u64, u64>,
    reads_recorded: u64,
    stats_frames: u64,
}

impl std::fmt::Debug for OriginState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OriginState")
            .field("fetches", &self.fetches)
            .field("reads_recorded", &self.reads_recorded)
            .field("invalidated", &self.backend.tracker().len())
            .finish()
    }
}

impl OriginState {
    /// New state around an explicit read-frequency estimator.
    pub fn new(estimator: Box<dyn EwEstimator + Send>, default_size: u32) -> Self {
        let rule = Rule::Adaptive { policy: AdaptivePolicy::new(estimator), mirror: None };
        OriginState {
            backend: Backend::new(rule),
            clock: ServeClock::start(),
            default_size,
            fetches: 0,
            fetches_by_key: HashMap::new(),
            reads_recorded: 0,
            stats_frames: 0,
        }
    }

    /// New state with the default hybrid estimator (exact counters for
    /// the top-k hot keys, CountMin for the tail — §4's recommendation).
    pub fn with_default_estimator(default_size: u32) -> Self {
        let est = TopKEw::new(ESTIMATOR_TOPK, ESTIMATOR_WIDTH, ESTIMATOR_DEPTH);
        OriginState::new(Box::new(est), default_size)
    }

    /// Serve one cache refetch of `key`: clear the §3.1 invalidation
    /// mark (the backchannel that re-arms suppression) and return the
    /// store's record, materialising a default-size one on first touch.
    pub fn serve_fetch(&mut self, key: u64) -> Record {
        self.fetches += 1;
        *self.fetches_by_key.entry(key).or_insert(0) += 1;
        self.backend.fetched(key, self.default_size)
    }

    /// Fold a `ReadStats` batch from the serving tier into the per-key
    /// read-frequency estimator.
    pub fn record_reads(&mut self, entries: &[ReadStat]) {
        self.stats_frames += 1;
        for e in entries {
            let n = e.reads.min(MAX_READS_PER_STAT);
            for _ in 0..n {
                self.backend.on_read(e.key);
            }
            self.reads_recorded += u64::from(n);
        }
    }

    /// Apply a write: bump the store record, feed the estimator's write
    /// stream and mark the key dirty for the next flush.
    pub fn write(&mut self, key: u64, value_size: u32) -> Record {
        self.backend.write(key, value_size, self.clock.now())
    }

    /// Invalidate-vs-update decision for `key` under `cost`, from the
    /// live `E[W]` estimate (`rules::should_update_ew`; unknown keys
    /// default to update).
    pub fn decide(&mut self, key: u64, cost: &CostModel, size: ObjectSize) -> FlushDecision {
        self.backend.decide(key, cost, size)
    }

    /// Fetches served, total.
    pub fn fetches(&self) -> u64 {
        self.fetches
    }

    /// Fetches served for one key — what the refetch e2e suite asserts
    /// coalescing with: N concurrent readers of a cold key must cost
    /// exactly one origin fetch.
    pub fn fetches_for(&self, key: u64) -> u64 {
        self.fetches_by_key.get(&key).copied().unwrap_or(0)
    }

    /// Read events folded into the estimator, total.
    pub fn reads_recorded(&self) -> u64 {
        self.reads_recorded
    }

    /// `ReadStats` frames absorbed, total.
    pub fn stats_frames(&self) -> u64 {
        self.stats_frames
    }

    /// Cumulative `(update, invalidate)` decision counts.
    pub fn decision_counts(&self) -> (u64, u64) {
        self.backend.rule().decision_counts().unwrap_or_default()
    }

    /// Wrap this state for [`spawn`] or
    /// [`StorePusher::connect_shared`](crate::push::StorePusher::connect_shared)
    /// — the `Arc<Mutex<_>>` constructor, here so embedders and tests
    /// don't need their own `parking_lot` dependency to stand an
    /// origin up.
    pub fn into_shared(self) -> Arc<Mutex<OriginState>> {
        Arc::new(Mutex::new(self))
    }
}

/// How often a blocked origin connection thread re-checks the stop
/// flag. Bounds shutdown latency without a wake channel per thread.
const CONN_POLL: Duration = Duration::from_millis(200);

/// Handle to a running origin listener. Dropping it does **not** stop
/// the listener; call [`OriginHandle::shutdown`].
#[derive(Debug)]
pub struct OriginHandle {
    addr: SocketAddr,
    state: Arc<Mutex<OriginState>>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl OriginHandle {
    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for embedding a [`crate::push::StorePusher`]
    /// on the same backend or inspecting counters from tests.
    pub fn state(&self) -> Arc<Mutex<OriginState>> {
        Arc::clone(&self.state)
    }

    /// Stop accepting, wake every connection thread, and join them all.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Swap the handles out under the lock, join them after it drops:
        // a connection thread blocked in `read` must never be joined
        // while the registry lock is held.
        let mut conns = Vec::new();
        std::mem::swap(&mut conns, &mut *self.conns.lock());
        for h in conns {
            let _ = h.join();
        }
    }
}

/// Bind `addr` and serve the origin protocol over it: one blocking
/// thread per connection, answering `FetchReq` with `FetchResp` and
/// absorbing `ReadStats`. Traffic here is sparse by design (one fetch
/// per coalesced refusal epoch, a stats frame per thousand reads), so
/// thread-per-connection is the right tool — the poll reactor lives on
/// the cache side.
pub fn spawn<A: ToSocketAddrs>(
    addr: A,
    state: Arc<Mutex<OriginState>>,
) -> io::Result<OriginHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        let conns = Arc::clone(&conns);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let state = Arc::clone(&state);
                let stop = Arc::clone(&stop);
                let h = std::thread::spawn(move || serve_conn(stream, &state, &stop));
                conns.lock().push(h);
            }
        })
    };
    Ok(OriginHandle { addr, state, stop, accept: Some(accept), conns })
}

/// One origin connection: loop on frames until EOF, error, or stop.
fn serve_conn(stream: TcpStream, state: &Mutex<OriginState>, stop: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    // A read timeout turns the blocking recv into a stop-flag poll.
    let _ = stream.set_read_timeout(Some(CONN_POLL));
    let mut io = FramedStream::new(stream);
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match io.recv() {
            Ok(Some(Message::FetchReq { key })) => {
                let rec = state.lock().serve_fetch(key);
                // Pattern bytes are built and sent outside the lock.
                let value = fresca_net::payload::pattern(key, rec.value_size as usize);
                let resp = Message::FetchResp { key, version: rec.version, value };
                if io.send(&resp).is_err() {
                    return;
                }
            }
            Ok(Some(Message::ReadStats { entries })) => {
                state.lock().record_reads(&entries);
            }
            // Anything else is a protocol error: drop the connection.
            Ok(Some(_)) | Ok(None) => return,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fresca_net::payload;

    fn spawn_default() -> OriginHandle {
        let state = Arc::new(Mutex::new(OriginState::with_default_estimator(
            DEFAULT_ORIGIN_VALUE_SIZE,
        )));
        spawn("127.0.0.1:0", state).expect("bind origin")
    }

    /// Flush `key` as an invalidate: true if it went out, false if the
    /// §3.1 tracker suppressed it.
    fn invalidate_sent(s: &mut OriginState, key: u64) -> bool {
        s.write(key, 16);
        let invalidate = Some(FlushDecision::Invalidate);
        let batches = s.backend.drain(&CostModel::default(), 8, 1, |_| 0, |_, _, _| invalidate);
        batches[0].invalidate.iter().any(|&(k, _)| k == key)
    }

    #[test]
    fn fetch_clears_tracker_and_counts_per_key() {
        let mut s = OriginState::with_default_estimator(32);
        s.write(7, 16);
        assert!(invalidate_sent(&mut s, 7), "first invalidate goes out");
        assert!(!invalidate_sent(&mut s, 7), "second is suppressed");
        let rec = s.serve_fetch(7);
        assert_eq!(rec.value_size, 16);
        assert!(invalidate_sent(&mut s, 7), "refetch re-armed the key");
        // A never-written key materialises at the default size.
        let cold = s.serve_fetch(99);
        assert_eq!(cold.value_size, 32);
        assert_eq!((s.fetches(), s.fetches_for(7), s.fetches_for(99)), (2, 1, 1));
    }

    #[test]
    fn read_stats_feed_the_estimator_toward_update() {
        let mut s = OriginState::with_default_estimator(32);
        let cost = CostModel::unit(1.0, 0.1, 0.5, 1.0); // threshold E[W] < 2.2
        let size = ObjectSize { key: 8, value: 64 };
        // Write-only key: E[W] grows past the threshold → invalidate.
        for _ in 0..8 {
            s.write(1, 16);
        }
        s.record_reads(&[ReadStat { key: 1, reads: 1 }]);
        assert_eq!(s.decide(1, &cost, size), FlushDecision::Invalidate);
        // Read-dominated key: E[W] ≈ writes/reads « threshold → update.
        s.write(2, 16);
        s.record_reads(&[ReadStat { key: 2, reads: 100 }]);
        assert_eq!(s.decide(2, &cost, size), FlushDecision::Update);
        let (upd, inv) = s.decision_counts();
        assert_eq!((upd, inv), (1, 1));
        assert_eq!(s.reads_recorded(), 101);
    }

    #[test]
    fn listener_serves_fetches_and_absorbs_stats() {
        let handle = spawn_default();
        let mut conn =
            FramedStream::new(TcpStream::connect(handle.addr()).expect("connect"));
        // Seed a record through the shared state, as a pusher would.
        handle.state().lock().write(5, 24);
        conn.send(&Message::FetchReq { key: 5 }).unwrap();
        match conn.recv().unwrap() {
            Some(Message::FetchResp { key, version, value }) => {
                assert_eq!(key, 5);
                assert!(version >= 1);
                assert_eq!(value.len(), 24);
                assert!(payload::verify(key, &value), "origin serves pattern bytes");
            }
            other => panic!("expected FetchResp, got {other:?}"),
        }
        // Stats are fire-and-forget; a follow-up fetch orders us after
        // their processing on this connection.
        conn.send(&Message::ReadStats {
            entries: vec![ReadStat { key: 5, reads: 40 }],
        })
        .unwrap();
        conn.send(&Message::FetchReq { key: 5 }).unwrap();
        assert!(matches!(conn.recv().unwrap(), Some(Message::FetchResp { key: 5, .. })));
        {
            let state = handle.state();
            let s = state.lock();
            assert_eq!(s.fetches_for(5), 2);
            assert_eq!(s.reads_recorded(), 40);
            assert_eq!(s.stats_frames(), 1);
        }
        handle.shutdown();
    }

    #[test]
    fn protocol_violations_drop_the_connection_not_the_listener() {
        let handle = spawn_default();
        let mut bad =
            FramedStream::new(TcpStream::connect(handle.addr()).expect("connect"));
        bad.send(&Message::StatsReq).unwrap(); // not an origin-side frame
        // The origin hangs up; recv sees EOF or reset.
        assert!(matches!(bad.recv(), Ok(None) | Err(_)));
        // The listener itself survives and serves the next connection.
        let mut good =
            FramedStream::new(TcpStream::connect(handle.addr()).expect("connect"));
        good.send(&Message::FetchReq { key: 1 }).unwrap();
        assert!(matches!(good.recv().unwrap(), Some(Message::FetchResp { key: 1, .. })));
        handle.shutdown();
    }
}
