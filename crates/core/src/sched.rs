//! The engine-agnostic scheduling interface.
//!
//! A *scheduler* (the paper's online policies — LMC, the baselines, a
//! batch-plan replayer) reacts to task lifecycle events by issuing
//! dispatch / preempt / set-rate commands. An *executor* owns cores and
//! a clock and carries those commands out. This module defines the
//! boundary between the two:
//!
//! * [`ExecutorView`] — what a scheduler may observe and command:
//!   per-core rate tables and caps, current rates, occupancy, remaining
//!   work, and the three mutations (`set_rate`, `dispatch`, `preempt`).
//! * [`Scheduler`] — the event hooks a policy implements (`on_arrival`,
//!   `on_completion`, `on_tick`).
//!
//! One executor implements the view, [`engine::Engine`]; its module
//! doc says how the simulator and the service drive it, so a policy
//! written against these traits runs under either unchanged — the
//! layering the paper's deployment story (an online judge scheduling
//! real submissions) requires.
//!
//! A third-party executor implements [`ExecutorView`] over its own
//! state and invokes the [`Scheduler`] hooks at the right moments:
//! `on_arrival` when a task becomes ready, `on_completion` after its
//! bookkeeping is final, `on_tick` from any periodic driver. The
//! executor owns time and accounting; the scheduler only ever sees this
//! view. [`conformance`] holds the pin such an executor must reproduce;
//! `NullExecutor` in `crates/bench/tests/trace_overhead.rs` is the
//! smallest one. A new clock or actuator for the existing engine is a
//! driver or an [`engine::EngineObserver`], not an executor.

use dvfs_model::{CoreId, RateIdx, RateTable, Task, TaskId};
use dvfs_trace::TraceSink;

/// What a scheduler can observe about — and command of — an executor.
///
/// Cores are indexed `0..num_cores()`. Rates are indices into a core's
/// [`RateTable`], and every mutation is carried out synchronously: after
/// [`ExecutorView::dispatch`] returns, the task is running.
pub trait ExecutorView {
    /// Current time in seconds (virtual or wall-derived, per executor).
    fn now(&self) -> f64;

    /// Number of cores on the platform.
    fn num_cores(&self) -> usize;

    /// Rate table of core `j`.
    fn rate_table(&self, j: CoreId) -> &RateTable;

    /// Highest rate index core `j` may use.
    fn max_allowed_rate(&self, j: CoreId) -> RateIdx;

    /// Current rate index of core `j`.
    fn current_rate(&self, j: CoreId) -> RateIdx;

    /// The task running on core `j`, if any.
    fn running_task(&self, j: CoreId) -> Option<TaskId>;

    /// Whether core `j` is idle.
    fn is_idle(&self, j: CoreId) -> bool {
        self.running_task(j).is_none()
    }

    /// Cycles still owed by task `t` (0 once complete).
    fn remaining_cycles(&self, t: TaskId) -> f64;

    /// Set core `j`'s rate. Takes effect immediately (also for a task
    /// currently running on `j`).
    ///
    /// # Panics
    /// Implementations panic when `rate` exceeds the core's allowed cap.
    fn set_rate(&mut self, j: CoreId, rate: RateIdx);

    /// Start `task` on idle core `j`, optionally switching the core to
    /// `rate` first.
    ///
    /// # Panics
    /// Implementations panic when `j` is busy or `task` is not ready.
    fn dispatch(&mut self, j: CoreId, task: TaskId, rate: Option<RateIdx>);

    /// Preempt the task running on core `j`, returning it to the ready
    /// pool; returns the preempted task's id.
    ///
    /// # Panics
    /// Implementations panic when `j` is idle.
    fn preempt(&mut self, j: CoreId) -> TaskId;

    /// The lifecycle trace sink this executor writes to, if tracing is
    /// enabled — for [`engine::Engine`], its observer's. Policies use
    /// it to attach decision provenance (e.g. LMC's per-core
    /// marginal-cost comparison) to the event stream the executor is
    /// already recording. The default is `None`: executors without
    /// tracing pay one virtual call returning `None`, and policies need
    /// no feature flags.
    fn trace(&mut self) -> Option<&mut dyn TraceSink> {
        None
    }
}

/// The event hooks a scheduling policy implements.
///
/// An executor calls these with a fresh view at each lifecycle event;
/// the scheduler responds by commanding the view. State the scheduler
/// needs across events (queues, ledgers, cursors) lives in `self`.
pub trait Scheduler {
    /// Human-readable policy name (for reports).
    fn name(&self) -> String;

    /// `task` has arrived and is ready to dispatch.
    fn on_arrival(&mut self, x: &mut dyn ExecutorView, task: &Task);

    /// `task` just completed on `core` (the core is idle again).
    fn on_completion(&mut self, x: &mut dyn ExecutorView, core: CoreId, task: &Task);

    /// Periodic governor tick for `core` (only fired by executors that
    /// run kernel-style governors).
    fn on_tick(&mut self, _x: &mut dyn ExecutorView, _core: CoreId) {}
}

/// Replays a [`BatchPlan`]: every task is assumed to have arrived by
/// t = 0 (batch mode); each core starts its sequence immediately and
/// dispatches the next task on completion.
///
/// [`BatchPlan`]: dvfs_model::BatchPlan
#[derive(Debug)]
pub struct PlanPolicy {
    plan: dvfs_model::BatchPlan,
    cursor: Vec<usize>,
    arrived: usize,
    expected: usize,
}

impl PlanPolicy {
    /// Build a policy that replays `plan`.
    #[must_use]
    pub fn new(plan: dvfs_model::BatchPlan) -> Self {
        let n = plan.per_core.len();
        let expected = plan.num_tasks();
        PlanPolicy {
            plan,
            cursor: vec![0; n],
            arrived: 0,
            expected,
        }
    }

    fn dispatch_next(&mut self, x: &mut dyn ExecutorView, core: CoreId) {
        let pos = self.cursor[core];
        if let Some(&(task, rate)) = self.plan.per_core[core].get(pos) {
            self.cursor[core] += 1;
            x.dispatch(core, task, Some(rate));
        }
    }
}

impl Scheduler for PlanPolicy {
    fn name(&self) -> String {
        "batch-plan".into()
    }

    fn on_arrival(&mut self, x: &mut dyn ExecutorView, _task: &Task) {
        self.arrived += 1;
        // Batch semantics: all tasks arrive at t = 0; once the last
        // arrival lands, kick every core's sequence off.
        if self.arrived == self.expected {
            for core in 0..x.num_cores() {
                if x.is_idle(core) {
                    self.dispatch_next(x, core);
                }
            }
        }
    }

    fn on_completion(&mut self, x: &mut dyn ExecutorView, core: CoreId, _task: &Task) {
        self.dispatch_next(x, core);
    }
}

pub mod conformance;
pub mod engine;
mod event;
pub mod governor;
