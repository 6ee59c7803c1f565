//! The reactor's slow lane: one thread that calls [`Handler::answer`]
//! as a caller that may wait, on the lines the event loop stopped at (a
//! scheduler drain takes a whole round), and hands the response bytes
//! back through the reactor's [`Mailbox`]. One thread and one FIFO
//! channel, so a connection's deferred work is answered in the order it
//! was deferred. Blocking is the lane's job: its `recv` is the one
//! blocking call `crates/net/clippy.toml` excuses outside the mailbox.

use crate::handler::{Answered, Caller, Handler, Output};
use crate::reactor::Mailbox;
use std::borrow::Cow;
use std::io::Write;
use std::sync::mpsc::{channel, Sender};
use std::thread::Scope;
use std::time::Instant;

/// One piece of work the event loop handed over.
pub(crate) enum Deferred {
    /// Request lines, from the one that would have blocked the loop on
    /// (or a whole batch queued behind outstanding work) — owned: the
    /// read buffer they were lent from is long gone when the lane runs.
    Lines(Vec<Cow<'static, str>>),
    /// An oversized-line rejection queued behind outstanding work.
    Oversized { len: usize },
}

impl Deferred {
    /// Answer this work to the end, blocking wherever the handler has
    /// to. Returns `true` when a request asked for a stop.
    pub(crate) fn answer<H>(self, handler: &H, received: Instant, out: &mut Vec<u8>) -> bool
    where
        H: Handler + ?Sized,
    {
        match self {
            Deferred::Lines(lines) => {
                let mut out = Output::new(out, None);
                handler.answer(&lines, received, &mut out, Caller::MayWait) == Answered::Stop
            }
            Deferred::Oversized { len } => {
                _ = writeln!(out, "{}", handler.oversized_line(len));
                false
            }
        }
    }
}

/// Connection token, wire-receive stamp, and the work to answer.
type Job = (u64, Instant, Deferred);

/// The event loop's end of the lane. Dropping it hangs the channel up;
/// the lane thread finishes the jobs already queued and exits.
pub(crate) struct Lane {
    tx: Sender<Job>,
}

impl Lane {
    /// Spawn the lane thread inside `scope`, so it may borrow the
    /// handler and is joined when the reactor returns.
    pub(crate) fn spawn<'scope, H>(
        scope: &'scope Scope<'scope, '_>,
        handler: &'scope H,
        mailbox: &'scope Mailbox,
    ) -> Lane
    where
        H: Handler + ?Sized,
    {
        // The reactor stops reading a connection at its first deferral
        // and resumes once every reply has landed, so the queue holds
        // at most one read's worth of work per connection — bounded by
        // the connection cap even though the channel itself is not.
        #[expect(clippy::disallowed_methods, reason = "bounded by the connection cap")]
        let (tx, rx): (Sender<Job>, _) = channel();
        #[expect(
            clippy::disallowed_methods,
            reason = "blocking on the next deferred job is the lane thread's whole job; the event loop never runs this closure"
        )]
        scope.spawn(move || {
            // What a connection deferred behind its stop owes nothing.
            let mut stopped = Vec::new();
            while let Ok((token, received, work)) = rx.recv() {
                let mut out = Vec::new();
                if !stopped.contains(&token) && work.answer(handler, received, &mut out) {
                    stopped.push(token);
                }
                mailbox.deliver(token, out);
            }
        });
        Lane { tx }
    }

    /// Queue one piece of work for the lane thread. Gives it back when
    /// the thread is gone (it panicked), so the caller can still answer
    /// it.
    pub(crate) fn defer(
        &self,
        token: u64,
        received: Instant,
        work: Deferred,
    ) -> Result<(), Deferred> {
        self.tx.send((token, received, work)).map_err(|e| e.0 .2)
    }
}
