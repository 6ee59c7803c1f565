//! The one seam between a wire driver and the embedding server's
//! protocol logic. Both drivers frame bytes with the same framer and
//! hand every batch it cuts to the same [`Handler::answer`] — which is
//! told one thing about who is calling, whether that caller may wait,
//! and nothing else. That is what makes the two front-ends
//! byte-identical on the wire.
//!
//! The contract is one rule: **blocking is a property of the caller**.
//! `answer` walks a batch once, decodes each line once, and writes each
//! response straight into the connection's output bytes. A caller that
//! may wait ([`Caller::MayWait`]: the blocking driver's own thread, the
//! reactor's slow lane) gets every line answered, however long a line
//! takes. The event loop ([`Caller::EventLoop`]) gets every line up to
//! the first that would have to wait (a scheduler drain takes a whole
//! round): `answer` stops *before* that line, with no side effect for
//! it, and says where ([`Answered::WouldBlock`]); the reactor defers an
//! owned copy of the lines from there to its lane, which calls the same
//! `answer` again as a caller that may wait.

use std::borrow::Cow;
use std::time::Instant;

/// Who is calling [`Handler::answer`]: may this thread wait?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caller {
    /// The reactor's event loop: every connection waits while it does.
    EventLoop,
    /// A thread whose waiting holds up one connection's replies only.
    MayWait,
}

/// How far [`Handler::answer`] got through a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answered {
    /// Every line is answered.
    All,
    /// A line asked the server to stop and is acknowledged; the lines
    /// after it are not processed and owe no response. The driver calls
    /// [`Handler::stop`] once the output is on its way. Stopping may
    /// block, so only a caller that may wait is told this; on the event
    /// loop a stop request is a line that would block.
    Stop,
    /// Only to [`Caller::EventLoop`]: lines `..k` are answered, line
    /// `k` must wait and is untouched — nothing counted, nothing
    /// written — as are the lines behind it.
    WouldBlock(usize),
}

/// The embedding server's protocol logic, shared by every connection
/// of either driver (hence `&self` and `Send + Sync`).
pub trait Handler: Send + Sync {
    /// Answer a batch — complete request lines drained from one read of
    /// one connection, up to an oversized line — in order, appending
    /// one newline-terminated response per line to `out`. Blocks only
    /// when `caller` may wait. `received` is when the batch's bytes
    /// came off the wire.
    fn answer(
        &self,
        lines: &[Cow<'_, str>],
        received: Instant,
        out: &mut Vec<u8>,
        caller: Caller,
    ) -> Answered;

    /// Act on a stop request. Called after the requesting line's
    /// response is queued for (reactor) or written to (blocking) the
    /// connection, so the acknowledgement leaves before
    /// [`Handler::should_stop`] can turn true. May block.
    fn stop(&self);

    /// The response line for a request line that blew the byte budget
    /// (`len` bytes seen when it tripped).
    fn oversized_line(&self, len: usize) -> String;

    /// The final response line written to a connection shed by the
    /// connection budget, before it is closed.
    fn shed_line(&self) -> String;

    /// Polled between reads (blocking) or once per wakeup (reactor);
    /// `true` ends the driver. Responses already answered still leave:
    /// the blocking driver has written them, the reactor writes out
    /// what is queued (for up to 5 s) before it closes.
    fn should_stop(&self) -> bool;
}

/// Append one response line and its newline.
pub(crate) fn push_line(out: &mut Vec<u8>, line: &str) {
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
}

/// Empty an output buffer whose bytes have been written, keeping its
/// allocation for the next responses unless one huge reply (a trace
/// document runs to tens of megabytes) grew it: held on to, that would
/// be the connection's footprint for life, and the next such reply
/// would be copied into it rather than adopted.
pub(crate) fn recycle(out: &mut Vec<u8>) {
    const KEEP_CAPACITY: usize = 64 * 1024;
    if out.capacity() > KEEP_CAPACITY {
        *out = Vec::new();
    } else {
        out.clear();
    }
}
