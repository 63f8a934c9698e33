//! The benchmark's own lean load driver and its always-on verifier.
//!
//! Closed loop: one thread multiplexes `CONNS` connections × `WINDOW`
//! requests in flight; a whole top-up is encoded into one buffer and
//! leaves in one `write`, replies arrive through bulk `read` → `feed` /
//! `next`. Open loop: one paced (spinning) reader whose latency clock
//! starts at each request's *scheduled* send instant. Every reply is
//! checked: id and key echo, value bytes, per-key version monotonicity
//! per connection.

use crate::hist::Hist;
use crate::layers::{BytesMut, FrameCodec, GetStatus, Message, Patterns, Tally};
use crate::trace::{Tracer, NONE};
use crate::workload::{Op, OpGen};
use minipoll::{Interest, PollSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// A request is a failure once it has gone unanswered this long.
const TIMEOUT: Duration = Duration::from_secs(1);
/// A paced send this far behind its schedule counts into `gen.late_share`.
const LATE_NS: u64 = 1_000_000;
/// Request spans are kept for one request in this many (traced runs).
const SPAN_EVERY: u64 = 64;
/// How long the closed-loop generator spins on an idle socket before it
/// blocks in `poll(2)`.
const SPIN_NS: u64 = 50_000;
/// Slots addressable by the low bits of a request id.
const MAX_SLOTS: usize = 1 << 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// Unknown id, wrong key, wrong reply kind, or a non-serving frame.
    Protocol,
    /// Served bytes are not the pattern for `(key, len)`.
    Checksum,
    /// A key's version went backwards on this connection.
    VersionRegress,
}

/// One verified completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Done {
    pub id: u64,
    pub key: u64,
    /// Latency origin: the send instant (closed loop) or the scheduled
    /// send instant (open loop), ns since the run's epoch.
    pub due_ns: u64,
    /// When the request was actually handed to the socket.
    pub sent_ns: u64,
    /// `None` for a put ack.
    pub status: Option<GetStatus>,
    /// Length of the served value (0 when nothing was served).
    pub len: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    key: u64,
    due_ns: u64,
    sent_ns: u64,
    seq: u64,
    put: bool,
    live: bool,
}

/// Per-connection record of what is in flight and what each key's last
/// seen version was: the verifier, free of any I/O.
pub struct Ledger {
    slots: Vec<Pending>,
    free: Vec<u32>,
    seq: u64,
    in_flight: usize,
    last_version: Vec<u64>,
}

impl Ledger {
    pub fn new(keys: u64) -> Self {
        Ledger {
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            in_flight: 0,
            last_version: vec![0; keys as usize + 1],
        }
    }

    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Register a request; `None` when every slot is taken (a backlog of
    /// 65 536 unanswered requests).
    pub fn issue(&mut self, key: u64, put: bool, due_ns: u64, sent_ns: u64) -> Option<u64> {
        let slot = match self.free.pop() {
            Some(s) => s,
            None if self.slots.len() < MAX_SLOTS => {
                self.slots.push(Pending::default());
                self.slots.len() as u32 - 1
            }
            None => return None,
        };
        self.seq += 1;
        self.slots[slot as usize] =
            Pending { key, due_ns, sent_ns, seq: self.seq, put, live: true };
        self.in_flight += 1;
        // seq ≥ 1, so the id is never the reserved RequestId::NONE.
        Some(self.seq << 16 | slot as u64)
    }

    /// Match a reply to its request and check it.
    pub fn settle(&mut self, msg: &Message, patterns: &mut Patterns) -> Result<Done, Violation> {
        let (id, key) = match msg {
            Message::GetResp { id, key, .. } | Message::PutResp { id, key, .. } => (id.0, *key),
            _ => return Err(Violation::Protocol),
        };
        let slot = (id & (MAX_SLOTS as u64 - 1)) as usize;
        let p = match self.slots.get(slot) {
            Some(p) if p.live && p.seq == id >> 16 => *p,
            _ => return Err(Violation::Protocol),
        };
        self.slots[slot].live = false;
        self.free.push(slot as u32);
        self.in_flight -= 1;
        if p.key != key {
            return Err(Violation::Protocol);
        }
        let last = self.last_version.get_mut(key as usize).ok_or(Violation::Protocol)?;
        let mut done = Done { id, key, due_ns: p.due_ns, sent_ns: p.sent_ns, status: None, len: 0 };
        match msg {
            Message::PutResp { version, .. } if p.put => {
                // A write is assigned a version newer than anything this
                // connection has seen for the key.
                if *version <= *last {
                    return Err(Violation::VersionRegress);
                }
                *last = *version;
            }
            Message::GetResp { version, value, status, .. } if !p.put => {
                done.status = Some(*status);
                if status.is_served() {
                    if !patterns.value_ok(key, value) {
                        return Err(Violation::Checksum);
                    }
                    if *version < *last {
                        return Err(Violation::VersionRegress);
                    }
                    *last = *version;
                    done.len = value.len() as u32;
                } else if !value.is_empty() {
                    return Err(Violation::Protocol);
                }
            }
            _ => return Err(Violation::Protocol),
        }
        Ok(done)
    }
}

/// One non-blocking connection to the node: ledger + codec + one
/// outbound buffer that a whole window is encoded into.
pub struct LeanConn {
    stream: TcpStream,
    codec: FrameCodec,
    out: BytesMut,
    out_off: usize,
    pub ledger: Ledger,
}

impl LeanConn {
    pub fn connect(addr: SocketAddr, keys: u64) -> io::Result<LeanConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(LeanConn {
            stream,
            codec: FrameCodec::new(),
            out: BytesMut::with_capacity(64 * 1024),
            out_off: 0,
            ledger: Ledger::new(keys),
        })
    }

    /// Encode `op` into the outbound buffer. `false` when the ledger is full.
    pub fn push(&mut self, op: Op, due_ns: u64, sent_ns: u64, patterns: &mut Patterns) -> bool {
        let put = matches!(op, Op::Put { .. });
        let Some(id) = self.ledger.issue(op.key(), put, due_ns, sent_ns) else {
            return false;
        };
        let msg = crate::layers::request(op, id, |key, len| patterns.get(key, len));
        FrameCodec::encode_into(&msg, &mut self.out, |out, payload| out.extend_from_slice(payload));
        true
    }

    pub fn pending_out(&self) -> bool {
        self.out_off < self.out.len()
    }

    /// What to poll this connection's socket for.
    fn interest(&self) -> Interest {
        if self.pending_out() {
            Interest::READABLE.and(Interest::WRITABLE)
        } else {
            Interest::READABLE
        }
    }

    /// Write as much of the outbound buffer as the socket takes.
    pub fn flush(&mut self) -> io::Result<()> {
        while self.pending_out() {
            match self.stream.write(&self.out[self.out_off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_off = 0;
        Ok(())
    }

    /// Bulk-read until the socket would block, handing every decoded
    /// reply to `on_msg` with the instant its bytes were read.
    pub fn recv(
        &mut self,
        scratch: &mut [u8],
        epoch: Instant,
        mut on_msg: impl FnMut(&mut Ledger, Message, u64),
    ) -> io::Result<()> {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    let now = epoch.elapsed().as_nanos() as u64;
                    self.codec.feed(&scratch[..n]);
                    while let Some(msg) = self
                        .codec
                        .next()
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
                    {
                        on_msg(&mut self.ledger, msg, now);
                    }
                    if n < scratch.len() {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A served read, as the freshness oracle needs it.
#[derive(Debug, Clone, Copy)]
pub struct ReadRec {
    pub key: u32,
    pub len: u32,
    pub invoke_ns: u64,
    pub complete_ns: u64,
}

/// What one driving phase measured.
#[derive(Default)]
pub struct Phase {
    pub tally: Tally,
    /// Requests handed to the socket.
    pub sent: u64,
    pub checksum: u64,
    pub version_regress: u64,
    pub protocol: u64,
    /// Requests unanswered after `TIMEOUT`, or never sent for want of a slot.
    pub timeouts: u64,
    pub elapsed_s: f64,
    /// Per-second latency quantiles, ns.
    pub p50s: Vec<f64>,
    pub p90s: Vec<f64>,
    pub p99s: Vec<f64>,
    /// Every latency of the phase.
    pub hist: Hist,
    /// Paced sends more than `LATE_NS` behind schedule.
    pub late: u64,
    /// Requests still unanswered when the phase's sending ended.
    pub backlog: usize,
    /// Closed loop: time the generator had every window full and nothing
    /// to read, i.e. was waiting for the node.
    pub wait_ns: u64,
    /// Served reads (only kept when the oracle asked for them).
    pub reads: Vec<ReadRec>,
    second: Hist,
    next_roll_ns: u64,
    keep_reads: bool,
    seen: u64,
}

impl Phase {
    fn new(start_ns: u64, keep_reads: bool) -> Phase {
        Phase { next_roll_ns: start_ns + 1_000_000_000, keep_reads, ..Phase::default() }
    }

    /// Verified completions.
    pub fn completed(&self) -> u64 {
        self.tally.gets + self.tally.puts
    }

    pub fn violations(&self) -> u64 {
        self.checksum + self.version_regress + self.protocol
    }

    /// Close a one-second window. Only whole seconds are windows: the
    /// partial second a phase ends in never enters the quantile lists.
    fn roll(&mut self) {
        if self.second.count() > 0 {
            self.p50s.push(self.second.quantile(0.5));
            self.p90s.push(self.second.quantile(0.9));
            self.p99s.push(self.second.quantile(0.99));
            self.second.clear();
        }
    }

    fn on_msg(&mut self, ledger: &mut Ledger, msg: Message, now_ns: u64, ctx: &mut Ctx<'_>) {
        let done = match ledger.settle(&msg, ctx.patterns) {
            Ok(d) => d,
            Err(Violation::Protocol) => return self.protocol += 1,
            Err(Violation::Checksum) => return self.checksum += 1,
            Err(Violation::VersionRegress) => return self.version_regress += 1,
        };
        while now_ns >= self.next_roll_ns {
            self.roll();
            self.next_roll_ns += 1_000_000_000;
        }
        let latency = now_ns.saturating_sub(done.due_ns);
        self.second.record(latency);
        self.hist.record(latency);
        match done.status {
            None => self.tally.puts += 1,
            Some(status) => {
                self.tally.count(status);
                if self.keep_reads && status.is_served() {
                    self.reads.push(ReadRec {
                        key: done.key as u32,
                        len: done.len,
                        invoke_ns: done.sent_ns,
                        complete_ns: now_ns,
                    });
                }
            }
        }
        self.seen += 1;
        if ctx.tracer.on() && self.seen.is_multiple_of(SPAN_EVERY) {
            ctx.tracer.span("request", done.sent_ns, now_ns, NONE, done.id);
        }
    }
}

/// What every driving phase of a session shares: the remembered expected
/// values, and the tracer, whose epoch is the run's clock.
pub struct Ctx<'a> {
    pub patterns: &'a mut Patterns,
    pub tracer: &'a mut Tracer,
}

fn ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Wait (≤ `TIMEOUT`) for everything still in flight; what remains is
/// counted as timed out.
fn drain(
    conns: &mut [LeanConn],
    scratch: &mut [u8],
    phase: &mut Phase,
    ctx: &mut Ctx<'_>,
) -> io::Result<()> {
    let epoch = ctx.tracer.epoch();
    let deadline = Instant::now() + TIMEOUT;
    let mut poll = PollSet::new();
    while conns.iter().any(|c| c.ledger.in_flight() > 0 || c.pending_out()) {
        let Some(left) = deadline.checked_duration_since(Instant::now()) else { break };
        poll.clear();
        for c in conns.iter_mut() {
            c.flush()?;
            poll.push(c.stream.as_raw_fd(), c.interest());
        }
        poll.poll(Some(left))?;
        for c in conns.iter_mut() {
            c.recv(scratch, epoch, |l, m, now| phase.on_msg(l, m, now, ctx))?;
        }
    }
    phase.timeouts += conns.iter().map(|c| c.ledger.in_flight() as u64).sum::<u64>();
    Ok(())
}

/// Closed loop: keep `window` requests in flight on every connection for
/// `duration` (or until `max_ops` were sent), then drain.
pub fn run_closed(
    conns: &mut [LeanConn],
    next_op: &mut dyn FnMut() -> Op,
    window: usize,
    duration: Duration,
    max_ops: u64,
    ctx: &mut Ctx<'_>,
) -> io::Result<Phase> {
    let mut scratch = vec![0u8; 256 * 1024];
    let epoch = ctx.tracer.epoch();
    let start_ns = ns(epoch);
    let end_ns = start_ns + duration.as_nanos() as u64;
    let mut phase = Phase::new(start_ns, false);
    let mut poll = PollSet::new();
    let mut batches = 0u64;
    // When the last iteration that sent or received anything ended.
    let mut busy_until = start_ns;
    loop {
        let now = ns(epoch);
        if now >= end_ns || phase.sent >= max_ops {
            break;
        }
        let idle_for = now - busy_until;
        let (seen_before, sent_before) = (phase.seen, phase.sent);
        poll.clear();
        for c in conns.iter_mut() {
            let before = phase.sent;
            // Top up in half-window batches, not reply by reply: the
            // node's cost per op depends on how many frames each of its
            // reads finds, and a batch size set by reply timing makes
            // that — and the whole run — drift between regimes.
            while (c.ledger.in_flight() <= window / 2 || phase.sent > before)
                && c.ledger.in_flight() < window
                && phase.sent < max_ops
                && c.push(next_op(), now, now, ctx.patterns)
            {
                phase.sent += 1;
            }
            c.flush()?;
            if phase.sent > before {
                batches += 1;
                if ctx.tracer.on() && batches.is_multiple_of(8) {
                    let t = ctx.tracer.now();
                    ctx.tracer.span("gen.encode_write", now, t, NONE, NONE);
                }
            }
            poll.push(c.stream.as_raw_fd(), c.interest());
        }
        // Adaptive busy-poll: spin while replies come back within
        // `SPIN_NS` (a blocking wake-up would cost more than the wait),
        // sleep in poll(2) once the node takes longer, so a node that
        // needs the generator's core can have it.
        let patience = if idle_for < SPIN_NS { Duration::ZERO } else { Duration::from_millis(100) };
        poll.poll(Some(patience))?;
        for (i, c) in conns.iter_mut().enumerate() {
            if poll.readiness(i).any() {
                let t0 = ctx.tracer.now();
                c.recv(&mut scratch, epoch, |l, m, now| phase.on_msg(l, m, now, ctx))?;
                if ctx.tracer.on() && batches.is_multiple_of(8) {
                    let t1 = ctx.tracer.now();
                    ctx.tracer.span("gen.read_decode", t0, t1, NONE, NONE);
                }
            }
        }
        let iteration_end = ns(epoch);
        if phase.seen > seen_before || phase.sent > sent_before {
            busy_until = iteration_end;
        } else {
            phase.wait_ns += iteration_end - now;
        }
    }
    let sent_end = ns(epoch);
    phase.backlog = conns.iter().map(|c| c.ledger.in_flight()).sum();
    drain(conns, &mut scratch, &mut phase, ctx)?;
    // Throughput is completions over the sending window; the drain only
    // settles what that window put in flight.
    phase.elapsed_s = (sent_end - start_ns) as f64 / 1e9;
    Ok(phase)
}

/// Open loop: one request every `1/rate` s for `duration`, sent whether or
/// not earlier ones were answered; latency runs from the scheduled instant.
pub fn run_paced(
    conn: &mut LeanConn,
    gen: &mut OpGen,
    rate: u32,
    duration: Duration,
    keep_reads: bool,
    ctx: &mut Ctx<'_>,
) -> io::Result<Phase> {
    let mut scratch = vec![0u8; 256 * 1024];
    let interval = 1_000_000_000 / rate as u64;
    let epoch = ctx.tracer.epoch();
    let start_ns = ns(epoch);
    let end_ns = start_ns + duration.as_nanos() as u64;
    let mut phase = Phase::new(start_ns, keep_reads);
    let mut next_due = start_ns;
    let mut last_read = 0u64;
    loop {
        let now = ns(epoch);
        if now >= end_ns {
            break;
        }
        let mut pushed = false;
        while next_due <= now && next_due < end_ns {
            if conn.push(gen.next(), next_due, now, ctx.patterns) {
                phase.sent += 1;
                pushed = true;
            } else {
                phase.timeouts += 1;
            }
            phase.late += (now - next_due > LATE_NS) as u64;
            next_due += interval;
        }
        if pushed || conn.pending_out() {
            conn.flush()?;
            if ctx.tracer.on() && pushed && phase.sent.is_multiple_of(SPAN_EVERY) {
                let t = ctx.tracer.now();
                ctx.tracer.span("gen.encode_write", now, t, NONE, NONE);
            }
        }
        // Read the socket at most every 5 µs: often enough that a reply
        // waits a negligible time, rare enough not to hammer the kernel.
        // In between, yield rather than spin: the kernel's softirq thread
        // shares this CPU, and a starved softirq thread delays every
        // packet by a scheduler quantum.
        if conn.ledger.in_flight() > 0 && now - last_read >= 5_000 {
            last_read = now;
            conn.recv(&mut scratch, epoch, |l, m, t| phase.on_msg(l, m, t, ctx))?;
        } else {
            std::thread::yield_now();
        }
    }
    let sent_end = ns(epoch);
    phase.backlog = conn.ledger.in_flight();
    drain(std::slice::from_mut(conn), &mut scratch, &mut phase, ctx)?;
    phase.elapsed_s = (sent_end - start_ns) as f64 / 1e9;
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Bytes, RequestId};

    fn pattern(key: u64, len: usize) -> Bytes {
        Patterns::new(0).get(key, len)
    }

    fn settle(l: &mut Ledger, msg: &Message) -> Result<Done, Violation> {
        l.settle(msg, &mut Patterns::new(16))
    }

    fn get_resp(id: u64, key: u64, version: u64, value: Bytes, status: GetStatus) -> Message {
        Message::GetResp { id: RequestId(id), key, version, value, age: 0, status }
    }

    #[test]
    fn a_correct_reply_settles() {
        let mut l = Ledger::new(16);
        let id = l.issue(5, false, 10, 11).unwrap();
        let done = settle(&mut l, &get_resp(id, 5, 3, pattern(5, 64), GetStatus::Fresh)).unwrap();
        assert_eq!((done.key, done.due_ns, done.sent_ns, done.len), (5, 10, 11, 64));
        assert_eq!(done.status, Some(GetStatus::Fresh));
        assert_eq!(l.in_flight(), 0);
    }

    #[test]
    fn a_corrupted_value_is_caught() {
        let mut l = Ledger::new(16);
        let id = l.issue(5, false, 0, 0).unwrap();
        let mut bytes = pattern(5, 64).to_vec();
        bytes[17] ^= 1;
        let reply = get_resp(id, 5, 3, Bytes::from(bytes), GetStatus::Fresh);
        assert_eq!(settle(&mut l, &reply), Err(Violation::Checksum));
        // Right bytes for another key, and a truncated value, fail too.
        let id = l.issue(5, false, 0, 0).unwrap();
        assert_eq!(
            settle(&mut l, &get_resp(id, 5, 3, pattern(6, 64), GetStatus::Fresh)),
            Err(Violation::Checksum)
        );
        let id = l.issue(5, false, 0, 0).unwrap();
        let cut = pattern(5, 64).slice(..63);
        assert_eq!(
            settle(&mut l, &get_resp(id, 5, 3, cut, GetStatus::ServedStale)),
            Err(Violation::Checksum)
        );
    }

    #[test]
    fn version_regressions_are_caught_per_key() {
        let mut l = Ledger::new(16);
        let id = l.issue(5, true, 0, 0).unwrap();
        settle(&mut l, &Message::PutResp { id: RequestId(id), key: 5, version: 10 }).unwrap();
        let id = l.issue(5, false, 0, 0).unwrap();
        assert_eq!(
            settle(&mut l, &get_resp(id, 5, 9, pattern(5, 64), GetStatus::Fresh)),
            Err(Violation::VersionRegress)
        );
        // Another key's versions are independent; equal versions re-read fine.
        let id = l.issue(6, false, 0, 0).unwrap();
        settle(&mut l, &get_resp(id, 6, 2, pattern(6, 64), GetStatus::Fresh)).unwrap();
        let id = l.issue(5, false, 0, 0).unwrap();
        settle(&mut l, &get_resp(id, 5, 10, pattern(5, 64), GetStatus::Fresh)).unwrap();
        // A second write must be assigned a strictly newer version.
        let id = l.issue(5, true, 0, 0).unwrap();
        assert_eq!(
            settle(&mut l, &Message::PutResp { id: RequestId(id), key: 5, version: 10 }),
            Err(Violation::VersionRegress)
        );
    }

    #[test]
    fn protocol_slips_are_caught() {
        let mut l = Ledger::new(16);
        let id = l.issue(5, false, 0, 0).unwrap();
        // Wrong key echoed.
        assert_eq!(
            settle(&mut l, &get_resp(id, 6, 1, pattern(6, 64), GetStatus::Fresh)),
            Err(Violation::Protocol)
        );
        // The slot was released; replaying the id is a stranger's reply.
        assert_eq!(
            settle(&mut l, &get_resp(id, 5, 1, pattern(5, 64), GetStatus::Fresh)),
            Err(Violation::Protocol)
        );
        // A put ack for a get, a miss carrying bytes, a non-serving frame.
        let id = l.issue(5, false, 0, 0).unwrap();
        assert_eq!(
            settle(&mut l, &Message::PutResp { id: RequestId(id), key: 5, version: 1 }),
            Err(Violation::Protocol)
        );
        let id = l.issue(5, false, 0, 0).unwrap();
        assert_eq!(
            settle(&mut l, &get_resp(id, 5, 0, pattern(5, 8), GetStatus::Miss)),
            Err(Violation::Protocol)
        );
        assert_eq!(settle(&mut l, &Message::Ack { seq: 1 }), Err(Violation::Protocol));
        assert_eq!(l.in_flight(), 0);
    }

    #[test]
    fn misses_and_refusals_settle_without_a_value() {
        let mut l = Ledger::new(16);
        for status in [GetStatus::Miss, GetStatus::RefusedStale] {
            let id = l.issue(7, false, 0, 0).unwrap();
            let done = settle(&mut l, &get_resp(id, 7, 0, Bytes::new(), status)).unwrap();
            assert_eq!((done.status, done.len), (Some(status), 0));
        }
    }
}
