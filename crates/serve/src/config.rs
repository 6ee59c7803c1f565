//! What a [`Scheduler`](crate::Scheduler) is built from, and the shape
//! of one submission.

use crate::executor::ActuatorKind;
use crate::rebalance::RebalanceConfig;
use dvfs_model::{CoreSpec, CostParams, Platform, RateTable, TaskClass};

/// How the service maps submissions onto engine time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Buffer submissions (explicit arrivals) and run on `drain`.
    Replay,
    /// Step the executors in real time, `speed` engine seconds per wall
    /// second.
    Paced {
        /// Engine-seconds advanced per wall-second (1.0 = real time).
        speed: f64,
    },
}

/// Scheduler construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Number of homogeneous i7-950 cores *per shard* to schedule onto.
    pub cores: usize,
    /// Cost weights for reporting and the LMC policy.
    pub params: CostParams,
    /// Replay or paced operation.
    pub mode: Mode,
    /// Total admission-queue bound, split evenly across shards (every
    /// shard keeps at least one slot).
    pub queue_capacity: usize,
    /// Number of independent engine instances (executor + policy +
    /// admission queue), each owned by its own worker thread. Clamped
    /// to at least 1.
    pub shards: usize,
    /// Per-shard lifecycle trace ring capacity (events). `0` disables
    /// tracing entirely: no rings are allocated and the executors'
    /// record paths stay dormant.
    pub trace_capacity: usize,
    /// Which actuator backend every shard's executor lands frequency
    /// decisions on. `Simulated`, the one backend today, runs the full
    /// sysfs-protocol model and is what the bit-identical replay
    /// contract is pinned against.
    pub actuator: ActuatorKind,
    /// Cross-shard rebalancer, driven from the tick path. Disabled by
    /// default so drains of an untouched service replay bit-identically.
    pub rebalance: RebalanceConfig,
    /// Per-request stage-attribution telemetry (the runtime health
    /// plane's per-task half). On by default; the health-overhead bench
    /// turns it off to pin the cost of the stage clock. Heartbeat slots
    /// are per-command and stay on regardless — only the per-task stage
    /// histogram records are gated. Metrics never feed back into
    /// scheduling, so the flag cannot affect the replayed schedule.
    pub telemetry: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            cores: 4,
            params: CostParams::online_paper(),
            mode: Mode::Replay,
            queue_capacity: 1024,
            shards: 1,
            trace_capacity: 0,
            actuator: ActuatorKind::default(),
            rebalance: RebalanceConfig::default(),
            telemetry: true,
        }
    }
}

/// One submit request as batched off the wire: the fields of a
/// `{"cmd":"submit",...}` line, ready for [`Scheduler::submit_many`](crate::Scheduler::submit_many).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubmitItem {
    /// Explicit task id, or `None` for auto-assignment.
    pub id: Option<u64>,
    /// Work, in cycles.
    pub cycles: u64,
    /// Scheduling class.
    pub class: TaskClass,
    /// Arrival on the engine clock: `None` is now, one behind now is
    /// clamped to it, and a negative or non-finite one is refused.
    pub arrival: Option<f64>,
}

/// The platform a scheduler shard with `cores` cores runs on. Exposed
/// so out-of-process clients (tests, analysis) can reproduce server
/// runs exactly.
#[must_use]
pub fn service_platform(cores: usize) -> Platform {
    Platform::homogeneous(cores, CoreSpec::new(RateTable::i7_950_table2()))
        .expect("positive core count")
}
