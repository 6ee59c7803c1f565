//! The one seam between a wire driver and the embedding server's
//! protocol logic. Both drivers frame bytes with the same framer, cut
//! each read into batches with the same splitter, and hand every batch
//! to the same [`Handler`] — which cannot tell who is calling, and that
//! is what makes the two front-ends byte-identical on the wire.

use crate::framing::Batch;
use std::time::Instant;

/// What a [`Handler`] made of one batch.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Answer {
    /// One response line per request line processed, in order.
    pub lines: Vec<String>,
    /// The batch asked the server to stop. Request lines after the one
    /// that asked were not processed and owe no response; the driver
    /// writes `lines` out and then calls [`Handler::stop`].
    pub stop: bool,
}

/// The embedding server's protocol logic, shared by every connection
/// of either driver (hence `&self` and `Send + Sync`).
pub trait Handler: Send + Sync {
    /// Whether every line of the batch can be answered without waiting
    /// on anything slower than a leaf lock. The reactor answers fast
    /// batches inline on its event loop and routes the rest through
    /// its slow lane; the blocking driver never asks. A batch that may
    /// request a stop is not fast when [`Handler::stop`] blocks.
    fn is_fast(&self, lines: &[String]) -> bool;

    /// Answer one batch: every complete request line drained from one
    /// read of one connection, up to an oversized line. `received` is
    /// when the batch's bytes came off the wire.
    fn answer(&self, lines: &[String], received: Instant) -> Answer;

    /// Act on a stop request. Called after the requesting batch's
    /// [`Answer::lines`] are queued for (reactor) or written to
    /// (blocking) the connection, so the acknowledgement leaves before
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

/// Answer one splitter batch — a run of lines or an oversized
/// rejection — the one way every driver (and the slow lane) does.
pub(crate) fn answer_batch(handler: &dyn Handler, batch: &Batch, received: Instant) -> Answer {
    match batch {
        Batch::Lines(lines) => handler.answer(lines, received),
        Batch::Oversized { len } => Answer {
            lines: vec![handler.oversized_line(*len)],
            stop: false,
        },
    }
}
