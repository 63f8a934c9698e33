//! How threads talk to an event loop: each loop has one [`Mailbox`] —
//! an inbox of accepted sockets, late replies and dialed origin links,
//! plus the self-pipe that wakes its poll — and every sender goes
//! through [`Mailbox::post`]. Ops and fetches never travel here: any
//! loop applies any op under its shard's lock and sends the fetches it
//! opens on its own origin link (see [`crate::server`]). What crosses
//! is a reply owed to another loop's connection (to a reader that
//! joined a fetch this loop's link answered or failed) and a dialed link.

use crate::datapath::ReplyTo;
use fresca_net::Message;
use parking_lot::Mutex;
use std::io::{self, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::Arc;

/// What the accept thread, peer loops and dial threads deposit for an
/// event loop — sockets, late replies, its origin link's dial — drained
/// together on the next wake.
#[derive(Default)]
pub(crate) struct LoopInbox {
    pub(crate) conns: Vec<TcpStream>,
    pub(crate) replies: Vec<(ReplyTo, Message)>,
    pub(crate) dialed: Option<io::Result<TcpStream>>,
}

/// One event loop's mailbox: its inbox and the self-pipe that wakes its
/// poll. Every thread that talks to the loop — the accept thread, each
/// peer loop, a dial thread, the `ServerHandle`'s shutdown — holds the
/// same `Arc<Mailbox>`.
pub(crate) struct Mailbox {
    pub(crate) inbox: Mutex<LoopInbox>,
    // Writing one byte wakes the loop's poll; non-blocking, so a full
    // pipe (wake already pending) is fine to ignore.
    wake_tx: UnixStream,
}

impl Mailbox {
    /// A mailbox, and the read end of its wake pipe for the loop to poll.
    pub(crate) fn new() -> io::Result<(Arc<Mailbox>, UnixStream)> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok((Arc::new(Mailbox { inbox: Mutex::default(), wake_tx }), wake_rx))
    }

    /// Deposit into the inbox under its lock, then wake the loop — the
    /// one lock-push-wake every sender goes through. The lock is
    /// released before the wake byte is written.
    pub(crate) fn post(&self, deposit: impl FnOnce(&mut LoopInbox)) {
        deposit(&mut self.inbox.lock());
        self.wake();
    }

    pub(crate) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }
}
