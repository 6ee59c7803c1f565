//! Stage-level latency attribution: the per-request stage clock.
//!
//! A request's life is split into stages at well-defined seams —
//!
//! ```text
//! wire receive → frame/parse → admit → queue-wait → engine enqueue
//!              → dispatch → complete
//! ```
//!
//! — and each stage feeds a log-bucketed histogram in the [`Registry`],
//! both globally and per shard (`stage_*_s.shardK`). The first three
//! stages are measured on the wall clock (`crate::clock::wall_now`, the
//! single blessed clock seam); the engine-side stages come for free
//! from the `TaskRecord` timestamps the executor already stamps in
//! engine seconds, scaled back to wall-equivalent seconds by the paced
//! speed factor. In paced mode the two clocks therefore advance
//! together and the stages telescope: their sums match the end-to-end
//! `request_e2e_s` histogram within clock-seam tolerance (the seam
//! overlap is bounded by one tick period per request). Replay mode
//! compresses engine time, so only the wall stages are meaningful
//! there.
//!
//! Wall timing lands in metrics histograms only — never in trace
//! events — so the determinism contract (bit-identical drained replay)
//! is untouched, mirroring how `TimedPolicy` handles `lmc_decision_us`.

use crate::metrics::{shard_metric, Histogram, Registry};
use std::sync::Arc;
use std::time::Instant;

/// Wire receive → frame/parse seam: framing, and decoding up to the
/// batch's first submit.
pub const STAGE_FRAME: &str = "stage_frame_s";
/// Frame → admission seam, closed when the batch's last ack is
/// written: id ledger, validation, routing, queue push — and, since
/// lines are decoded and answered in one pass, the decoding of the
/// batch's later lines.
pub const STAGE_ADMIT: &str = "stage_admit_s";
/// Admission → worker pull seam (time spent in the admission queue).
pub const STAGE_QUEUE: &str = "stage_queue_s";
/// Engine enqueue → dispatch (engine seconds: `first_start - arrival`).
pub const STAGE_ENGINE: &str = "stage_engine_s";
/// Dispatch → completion (engine seconds: `completion - first_start`).
pub const STAGE_SERVICE: &str = "stage_service_s";
/// Command send → worker dequeue age. Loop telemetry, not part of the
/// per-request telescope (queue-wait already covers the same span).
pub const STAGE_CMD_DEQUEUE: &str = "stage_cmd_dequeue_s";
/// Wire receive → completion observed: the end-to-end latency the
/// stage histograms must sum to.
pub const REQUEST_E2E: &str = "request_e2e_s";

/// Per-task stamps carried through the admission queue so the worker
/// can close the queue-wait and end-to-end seams.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageStamp {
    /// Wire receive instant (opens the end-to-end window).
    pub recv: Instant,
    /// Admission instant (opens the queue-wait window).
    pub admitted: Instant,
}

/// A global + per-shard histogram pair; every stage sample lands in
/// both so the `stats` snapshot carries the total and the `.shardK`
/// breakdown from one record call.
#[derive(Debug)]
pub(crate) struct StagePair {
    global: Arc<Histogram>,
    shard: Arc<Histogram>,
}

impl StagePair {
    fn new(metrics: &Registry, name: &str, shard: usize) -> Self {
        StagePair {
            global: metrics.histogram(name),
            shard: metrics.histogram(&shard_metric(name, shard)),
        }
    }

    /// Record a stage duration in seconds.
    pub fn record(&self, seconds: f64) {
        self.global.record(seconds);
        self.shard.record(seconds);
    }

    /// Record the same stage duration for `n` requests (a wire batch's
    /// shared span), one lock acquisition per histogram.
    pub fn record_n(&self, seconds: f64, n: u64) {
        self.global.record_n(seconds, n);
        self.shard.record_n(seconds, n);
    }

    /// Record a round's worth of stage durations, one lock acquisition
    /// per histogram instead of one per sample.
    pub fn record_many(&self, seconds: &[f64]) {
        self.global.record_many(seconds);
        self.shard.record_many(seconds);
    }
}

/// The full stage histogram bundle for one shard. Handles are resolved
/// once at construction so the hot submit/complete paths never touch
/// the registry's name map.
#[derive(Debug)]
pub(crate) struct StageHists {
    pub frame: StagePair,
    pub admit: StagePair,
    pub queue: StagePair,
    pub engine: StagePair,
    pub service: StagePair,
    pub cmd_dequeue: StagePair,
    pub e2e: StagePair,
}

impl StageHists {
    pub fn new(metrics: &Registry, shard: usize) -> Self {
        StageHists {
            frame: StagePair::new(metrics, STAGE_FRAME, shard),
            admit: StagePair::new(metrics, STAGE_ADMIT, shard),
            queue: StagePair::new(metrics, STAGE_QUEUE, shard),
            engine: StagePair::new(metrics, STAGE_ENGINE, shard),
            service: StagePair::new(metrics, STAGE_SERVICE, shard),
            cmd_dequeue: StagePair::new(metrics, STAGE_CMD_DEQUEUE, shard),
            e2e: StagePair::new(metrics, REQUEST_E2E, shard),
        }
    }
}

/// The stages whose per-request durations telescope to end-to-end
/// latency (`REQUEST_E2E`), in pipeline order. `STAGE_CMD_DEQUEUE` is
/// deliberately absent: it is loop telemetry overlapping queue-wait.
pub const TELESCOPE_STAGES: [&str; 5] = [
    STAGE_FRAME,
    STAGE_ADMIT,
    STAGE_QUEUE,
    STAGE_ENGINE,
    STAGE_SERVICE,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_pairs_record_global_and_shard() {
        let r = Registry::new();
        let hists = StageHists::new(&r, 2);
        hists.queue.record(0.25);
        hists.queue.record(0.5);
        assert_eq!(r.histogram(STAGE_QUEUE).count(), 2);
        assert_eq!(r.histogram(&shard_metric(STAGE_QUEUE, 2)).count(), 2);
        assert_eq!(r.histogram(&shard_metric(STAGE_QUEUE, 0)).count(), 0);
        assert!((r.histogram(STAGE_QUEUE).sum() - 0.75).abs() < 1e-12);
    }
}
