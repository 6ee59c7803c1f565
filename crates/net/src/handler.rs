//! The one seam between a wire driver and the embedding server's
//! protocol logic. Both drivers frame bytes with the same framer and
//! hand every batch it cuts to the same [`Handler::answer`] — which is
//! told one thing about who is calling, whether that caller may wait,
//! and nothing else. That is what makes the two front-ends
//! byte-identical on the wire.
//!
//! The contract is four methods and one rule: **blocking is a property
//! of the caller**. `answer` walks a batch once, decodes each line
//! once, and writes each response straight into the connection's
//! [`Output`]. A caller that may wait ([`Caller::MayWait`]: the blocking
//! driver's own thread, the reactor's slow lane) gets every line
//! answered, however long a line takes. The event loop
//! ([`Caller::EventLoop`]) gets every line up to the first that would
//! have to wait (a scheduler drain takes a whole round): `answer` stops
//! *before* that line, with no side effect for it, and says where
//! ([`Answered::WouldBlock`]); the reactor defers an owned copy of the
//! lines from there to its lane, which calls the same `answer` again as
//! a caller that may wait.
//!
//! A stop is a flag ([`Answered::Stop`], [`Handler::should_stop`]): no
//! driver calls into the handler to stop, and a drain is the embedder's.

use std::borrow::Cow;
use std::io::{self, Write};
use std::time::Instant;

/// Who is calling [`Handler::answer`]: may this thread wait?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caller {
    /// The reactor's event loop: every connection waits while it does.
    EventLoop,
    /// A connection's own thread, or the reactor's slow lane: waiting
    /// holds up that connection (and, on the lane, the work behind it).
    MayWait,
}

/// How far [`Handler::answer`] got through a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answered {
    /// Every line is answered.
    All,
    /// A line asked the server to stop: it is acknowledged and
    /// [`Handler::should_stop`] is `true`. Nothing after it is answered;
    /// the driver closes the connection once its bytes are out.
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
    /// one connection, up to an oversized line — in order, writing one
    /// newline-terminated response per line to `out`, which may reach
    /// the peer before `answer` returns: the blocking driver's [`Output`]
    /// spills a rendered trace to its stream as it goes, and every other
    /// reply leaves in one write per read. Blocks only when `caller` may
    /// wait. `received` is when the batch's bytes came off the wire.
    fn answer(
        &self,
        lines: &[Cow<'_, str>],
        received: Instant,
        out: &mut Output<'_>,
        caller: Caller,
    ) -> Answered;

    /// The response line for a request line that blew the byte budget
    /// (`len` bytes seen when it tripped).
    fn oversized_line(&self, len: usize) -> String;

    /// The final response line written to a connection shed by the
    /// connection budget — `max_connections`, as the driver that
    /// enforces it was configured — before it is closed.
    fn shed_line(&self, max_connections: usize) -> String;

    /// Polled between reads (blocking) or once per wakeup (reactor);
    /// `true` ends the driver. Responses already answered still leave:
    /// the blocking driver has written them, the reactor lets its slow
    /// lane finish what was deferred to it and writes out what is
    /// queued (for up to 5 s) before it closes.
    fn should_stop(&self) -> bool;
}

/// Writes this large are worth no copy: [`Output`] spills them.
pub(crate) const SPILL_BYTES: usize = 64 * 1024;

/// A connection's response bytes as [`Handler::answer`] writes them:
/// into `bytes`, to leave with the driver's write, or through [`Write`],
/// where a large piece *spills* to the driver's sink, if it gave one,
/// behind the bytes before it. The first failed spill is kept and every
/// later one fails at once, so a renderer stops there; `flush` spills
/// the rest and returns that first error.
pub struct Output<'a> {
    /// The buffered response bytes.
    pub bytes: &'a mut Vec<u8>,
    sink: Option<&'a mut dyn Write>,
    error: Option<io::Error>,
}

impl<'a> Output<'a> {
    /// Responses for `bytes` that may spill to `sink`.
    pub fn new(bytes: &'a mut Vec<u8>, sink: Option<&'a mut dyn Write>) -> Self {
        let error = None;
        Output { bytes, sink, error }
    }
}

impl Write for Output<'_> {
    fn write(&mut self, piece: &[u8]) -> io::Result<usize> {
        let spill = piece.len() >= SPILL_BYTES || piece.is_empty();
        let Some(sink) = self.sink.as_mut().filter(|_| spill) else {
            self.bytes.extend_from_slice(piece);
            return Ok(piece.len());
        };
        if self.error.is_none() {
            let parts = [self.bytes.as_slice(), piece];
            self.error = parts.iter().find_map(|part| sink.write_all(part).err());
        }
        self.bytes.clear();
        let failed = self.error.as_ref().map(io::Error::kind);
        failed.map_or(Ok(piece.len()), |kind| Err(kind.into()))
    }

    fn flush(&mut self) -> io::Result<()> {
        let _ = self.write(&[]);
        self.error.take().map_or(Ok(()), Err)
    }
}

/// Empty an output buffer whose bytes have been written, keeping its
/// allocation unless a huge reply grew it (a trace the reactor renders
/// whole runs to tens of megabytes): held on to, that would be the
/// connection's footprint for life, and the next such reply would be
/// copied into it rather than adopted.
pub(crate) fn recycle(out: &mut Vec<u8>) {
    if out.capacity() > SPILL_BYTES {
        *out = Vec::new();
    } else {
        out.clear();
    }
}
