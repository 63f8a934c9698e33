//! The handoff streamer: one background thread per server doing all the
//! *blocking* membership I/O — announcing view changes to peers and
//! streaming moved keys to their new owners — so the event loops in
//! [`crate::server`] never wait on a peer's socket. Commands arrive from
//! the loops over an mpsc channel; the thread exits when every sender is
//! gone (server teardown). Failures are deliberately silent: handoff is
//! an optimisation, and a dead peer's share of keys simply misses cold
//! at its next owner.

use fresca_net::{FramedStream, Message, UpdateItem};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Work for the streamer thread: announce the view `(epoch, members)`
/// to `dest` via `RingUpdate`, then stream `items` there as
/// install-mode `Update` batches — none when there is only a membership
/// change to announce.
pub(crate) struct Handoff {
    pub(crate) dest: String,
    pub(crate) epoch: u64,
    pub(crate) members: Vec<String>,
    pub(crate) items: Vec<UpdateItem>,
}

/// How many entries ride each handoff `Update` batch: big enough to
/// amortise the per-batch ack round-trip, small enough to keep frames
/// far from the codec's size cap.
const HANDOFF_CHUNK: usize = 512;

/// Connect timeout for handoff/announce destinations. A member that
/// cannot be reached in this window is skipped — its keys degrade to
/// cold misses, never to a stuck streamer.
const HANDOFF_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Read and write timeout on a handoff connection. One thread serves
/// every destination, so a member that accepts and then goes silent
/// must cost the others this much and no more: a timed-out exchange is
/// an error like any other and drops the cached connection.
const HANDOFF_IO_TIMEOUT: Duration = Duration::from_secs(1);

/// The loops' handle on the streamer thread.
pub(crate) struct Streamer {
    /// Behind a mutex only to be `Sync`; membership changes are rare,
    /// contention is nil.
    tx: Mutex<mpsc::Sender<Handoff>>,
    /// Entries acknowledged by their new owners (`handoff_out`).
    streamed: Arc<AtomicU64>,
}

impl Streamer {
    /// Start the streamer thread.
    pub(crate) fn spawn() -> Self {
        let (tx, rx) = mpsc::channel();
        let streamed = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&streamed);
        std::thread::spawn(move || run(rx, &counter));
        Streamer { tx: Mutex::new(tx), streamed }
    }

    /// Hand work to the thread; a send failure means it exited (process
    /// teardown) and the handoff degrades to cold misses at the new
    /// owner — by design never an error.
    pub(crate) fn send(&self, cmd: Handoff) {
        let _ = self.tx.lock().send(cmd);
    }

    /// Entries streamed out and acknowledged so far.
    pub(crate) fn streamed(&self) -> u64 {
        self.streamed.load(Ordering::Relaxed)
    }
}

fn run(rx: mpsc::Receiver<Handoff>, streamed: &AtomicU64) {
    // Cached connections per destination, with a per-destination
    // sequence counter for the Update/Ack machinery.
    let mut conns: HashMap<String, (FramedStream<TcpStream>, u64)> = HashMap::new();
    while let Ok(Handoff { dest, epoch, members, items }) = rx.recv() {
        if stream_to(&mut conns, &dest, epoch, &members, &items, streamed).is_err() {
            // Peer unreachable, silent or confused: drop the cached
            // connection and move on. No retry — a newer epoch will
            // re-announce, and unmoved keys are cold misses by design.
            conns.remove(&dest);
        }
    }
}

/// One exchange with `dest`: `RingUpdate` → `RingAck`, then chunked
/// `Update` → `Ack` rounds, each acked key counted into `streamed`.
fn stream_to(
    conns: &mut HashMap<String, (FramedStream<TcpStream>, u64)>,
    dest: &str,
    epoch: u64,
    members: &[String],
    items: &[UpdateItem],
    streamed: &AtomicU64,
) -> io::Result<()> {
    if !conns.contains_key(dest) {
        let addr = dest.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "member name resolves to no address")
        })?;
        let stream = TcpStream::connect_timeout(&addr, HANDOFF_CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(HANDOFF_IO_TIMEOUT))?;
        stream.set_write_timeout(Some(HANDOFF_IO_TIMEOUT))?;
        conns.insert(dest.to_string(), (FramedStream::new(stream), 0));
    }
    let Some((framed, next_seq)) = conns.get_mut(dest) else { return Ok(()) };
    // Announce the view first: this flips the receiving connection into
    // install mode and lets the peer adopt the epoch if it missed it.
    framed.send(&Message::RingUpdate { epoch, members: members.to_vec() })?;
    match framed.recv()? {
        Some(Message::RingAck { .. }) => {}
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "expected RingAck")),
    }
    for chunk in items.chunks(HANDOFF_CHUNK) {
        *next_seq += 1;
        let seq = *next_seq;
        framed.send(&Message::Update { seq, items: chunk.to_vec() })?;
        match framed.recv()? {
            Some(Message::Ack { seq: acked }) if acked == seq => {
                streamed.fetch_add(chunk.len() as u64, Ordering::Relaxed);
            }
            _ => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "expected handoff Ack"))
            }
        }
    }
    Ok(())
}
