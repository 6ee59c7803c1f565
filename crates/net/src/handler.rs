//! The one seam between a wire driver and the embedding server's
//! protocol logic. Both drivers frame bytes with the same framer and
//! hand every batch it cuts to the same [`Handler`] — which cannot tell
//! who is calling, and that is what makes the two front-ends
//! byte-identical on the wire.
//!
//! The contract is one pass: [`Handler::answer`] walks a batch once,
//! decodes each line once, and writes each response straight into the
//! connection's output bytes. It never waits. The first request that
//! would have to (a scheduler drain takes a whole round) ends the walk:
//! `answer` hands it back, already decoded, as a [`Handler::Waiting`]
//! together with its index `k`, having answered lines `..k`. Whoever
//! may block — the blocking driver's own thread, the reactor's slow
//! lane — then calls [`Handler::finish`] on it and carries on with
//! lines `k + 1..`; the reactor's event loop instead defers from line
//! `k`: the waiting request and an owned copy of the lines behind it go
//! to the lane, and the loop moves on.

use std::borrow::Cow;
use std::time::Instant;

/// The embedding server's protocol logic, shared by every connection
/// of either driver (hence `&self` and `Send + Sync`).
pub trait Handler: Send + Sync {
    /// A decoded request whose answer must wait on something slower
    /// than a leaf lock. Crosses to the reactor's slow-lane thread.
    type Waiting: Send;

    /// Answer a batch — complete request lines drained from one read of
    /// one connection, up to an oversized line — in order, appending
    /// one newline-terminated response per line to `out`, without ever
    /// blocking. Returns `None` when every line was answered, or
    /// `Some((k, waiting))` when line `k` must wait: lines `..k` are
    /// answered, line `k` is `waiting`, lines `k + 1..` are untouched.
    /// `received` is when the batch's bytes came off the wire.
    fn answer(
        &self,
        lines: &[Cow<'_, str>],
        received: Instant,
        out: &mut Vec<u8>,
    ) -> Option<(usize, Self::Waiting)>;

    /// Answer a request [`Handler::answer`] handed back, appending its
    /// response line to `out`. May block. Returns `true` when the
    /// request asked the server to stop: the lines after it are not
    /// processed and owe no response, and the driver calls
    /// [`Handler::stop`] once `out` is on its way.
    fn finish(&self, waiting: Self::Waiting, out: &mut Vec<u8>) -> bool;

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
    /// `true` ends the driver. Pending responses get a best-effort
    /// final flush.
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

/// Answer `first` (a request an earlier [`Handler::answer`] handed
/// back) and then every one of `lines`, blocking wherever the handler
/// has to — the one loop the blocking driver and the slow lane share.
/// Returns `true` when a request asked for a stop.
pub(crate) fn answer_through<H: Handler + ?Sized>(
    handler: &H,
    first: Option<H::Waiting>,
    lines: &[Cow<'_, str>],
    received: Instant,
    out: &mut Vec<u8>,
) -> bool {
    let mut waiting = first;
    let mut rest = lines;
    loop {
        if let Some(waiting) = waiting.take() {
            if handler.finish(waiting, out) {
                return true;
            }
        }
        let Some((at, next)) = handler.answer(rest, received, out) else {
            return false;
        };
        waiting = Some(next);
        rest = rest.get(at + 1..).unwrap_or(&[]);
    }
}
