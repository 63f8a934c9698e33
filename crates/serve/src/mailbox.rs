//! How threads talk to an event loop: each loop has one [`Mailbox`] —
//! an inbox of accepted sockets and cross-core messages ([`CoreMsg`])
//! plus the self-pipe that wakes its poll — and every sender goes
//! through [`Mailbox::post`].

use crate::datapath::{Completion, Op, ReplyTo};
use parking_lot::Mutex;
use std::io::{self, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc};

/// A message between event loops (or from `ServerHandle`), carried
/// through the destination's [`Mailbox`].
pub(crate) enum CoreMsg {
    /// Forwarded operation; `to` names the originating connection and
    /// the home loop its completion goes back to.
    Op { to: ReplyTo, op: Op },
    /// A completion routed back to the home loop's connection.
    Done { to: ReplyTo, what: Completion },
    /// Control-plane invalidation from `ServerHandle::invalidate`,
    /// answered over the one-shot channel (`true` if the key was
    /// cached). Always addressed to the key's owner loop.
    Invalidate { key: u64, reply: mpsc::Sender<bool> },
    /// The membership view changed: rescan this loop's owned shards and
    /// stream entries that now belong to other nodes to the handoff
    /// thread. Broadcast to every loop by whichever loop adopted the
    /// new view.
    Rebalance,
}

/// What the accept thread, peer loops and `ServerHandle` deposit for
/// an event loop: freshly accepted sockets and cross-core messages,
/// drained together on the next wake.
#[derive(Default)]
pub(crate) struct LoopInbox {
    pub(crate) conns: Vec<TcpStream>,
    pub(crate) msgs: Vec<CoreMsg>,
}

/// One event loop's mailbox: its inbox and the self-pipe that wakes its
/// poll. Every thread that talks to the loop — the accept thread, each
/// peer loop, the `ServerHandle` — holds the same `Arc<Mailbox>`.
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
