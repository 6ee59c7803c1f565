//! The reactor's slow lane: one thread that answers the batches the
//! event loop must not wait for (a scheduler drain takes a whole
//! round) and hands the lines back through the reactor's [`Mailbox`].
//! One thread and one FIFO channel, so a connection's batches are
//! answered in the order they were deferred. This file is deliberately
//! outside `dvfs-lint`'s `reactor-nonblocking` scope: blocking is the
//! lane's job.

use crate::framing::Batch;
use crate::handler::{answer_batch, Handler};
use crate::reactor::Mailbox;
use std::sync::mpsc::{channel, Sender};
use std::thread::Scope;
use std::time::Instant;

/// Connection token, wire-receive stamp, and the batch to answer.
type Job = (u64, Instant, Batch);

/// The event loop's end of the lane. Dropping it hangs the channel up;
/// the lane thread finishes the jobs already queued and exits.
pub(crate) struct Lane {
    tx: Sender<Job>,
}

impl Lane {
    /// Spawn the lane thread inside `scope`, so it may borrow the
    /// handler and is joined when the reactor returns.
    pub(crate) fn spawn<'scope>(
        scope: &'scope Scope<'scope, '_>,
        handler: &'scope dyn Handler,
        mailbox: &'scope Mailbox,
    ) -> Lane {
        // A client waits for a slow command's reply before sending
        // the next, so the queue is bounded by the connection cap even
        // though the channel itself is unbounded.
        // dvfs-lint: allow(channel-protocol) slow lane bounded by the connection cap
        let (tx, rx): (Sender<Job>, _) = channel();
        scope.spawn(move || {
            while let Ok((token, received, batch)) = rx.recv() {
                let answer = answer_batch(handler, &batch, received);
                // Deliver before acting on a stop request: the ack must
                // be in the reactor's mailbox before `should_stop` can
                // turn true, so the loop's final flush carries it out.
                mailbox.deliver(token, answer.lines);
                if answer.stop {
                    handler.stop();
                }
            }
        });
        Lane { tx }
    }

    /// Queue one batch for the lane thread. Gives the batch back when
    /// the thread is gone (it panicked), so the caller can still answer
    /// it.
    pub(crate) fn defer(&self, token: u64, received: Instant, batch: Batch) -> Result<(), Batch> {
        self.tx.send((token, received, batch)).map_err(|e| e.0 .2)
    }
}
