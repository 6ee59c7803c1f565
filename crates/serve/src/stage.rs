//! Stage-level latency attribution: the per-request stage clock.
//!
//! A request's life is split into stages at well-defined seams —
//!
//! ```text
//! wire receive → frame/parse → admit → queue-wait → engine enqueue
//!              → dispatch → complete
//! ```
//!
//! — and each stage feeds one log-bucketed histogram in the
//! [`Registry`], global across shards (counters keep their `.shardK`
//! series; stage histograms have none). The first three stages are
//! measured on the wall clock (`crate::clock::wall_now`, the single
//! blessed clock seam); the engine-side stages come for free
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

use crate::metrics::{Histogram, Registry};
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

/// The worker-side stage histograms (the scheduler holds the frame and
/// admit ones), resolved once so the completion path never touches the
/// registry's name map.
#[derive(Debug)]
pub(crate) struct StageHists {
    pub queue: Arc<Histogram>,
    pub engine: Arc<Histogram>,
    pub service: Arc<Histogram>,
    pub cmd_dequeue: Arc<Histogram>,
    pub e2e: Arc<Histogram>,
}

impl StageHists {
    pub fn new(metrics: &Registry) -> Self {
        StageHists {
            queue: metrics.histogram(STAGE_QUEUE),
            engine: metrics.histogram(STAGE_ENGINE),
            service: metrics.histogram(STAGE_SERVICE),
            cmd_dequeue: metrics.histogram(STAGE_CMD_DEQUEUE),
            e2e: metrics.histogram(REQUEST_E2E),
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
    fn a_stage_sample_lands_in_its_one_global_histogram() {
        let r = Registry::new();
        let hists = StageHists::new(&r);
        hists.queue.record(0.25);
        hists.queue.record(0.5);
        let names: Vec<String> = match r.snapshot().get("histograms") {
            Some(serde_json::Value::Object(h)) => h.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("snapshot histograms: {other:?}"),
        };
        let stages = [
            REQUEST_E2E,
            STAGE_CMD_DEQUEUE,
            STAGE_ENGINE,
            STAGE_QUEUE,
            STAGE_SERVICE,
        ];
        assert_eq!(names, stages, "no per-shard stage series");
        assert_eq!(r.histogram(STAGE_QUEUE).count(), 2);
        assert!((r.histogram(STAGE_QUEUE).sum() - 0.75).abs() < 1e-12);
        assert_eq!(r.histogram(STAGE_ENGINE).count(), 0);
    }
}
