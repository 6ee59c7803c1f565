//! The virtual-time driver of the shared execution engine.
//!
//! The event loop, cores, jobs and all arithmetic live in
//! [`dvfs_core::sched::engine`]; this module adds what only a simulation
//! needs — the [`SimReport`] with idle energy and an unbounded trace
//! ring — and keeps the `Simulator` / `SimConfig` names every
//! experiment is written against.

use crate::metrics::SimReport;
use dvfs_core::sched::engine::Engine;
use dvfs_core::sched::Scheduler as Policy;
use dvfs_trace::{Ring, TraceEvent};
use std::ops::{Deref, DerefMut};

pub use dvfs_core::sched::engine::{ContentionFn, EngineConfig as SimConfig};

/// The simulator: the engine paced in virtual time. Construct with
/// [`Simulator::new`], add tasks, then [`Simulator::run`] with a policy.
/// It dereferences to its [`Engine`], whose API — `add_tasks`,
/// `push_task`, `step_until`, `now`, `pending_tasks`,
/// `completed_records` — is the simulator's own; only what needs the
/// trace ring or the [`SimReport`] is defined here. The engine's
/// observer is that ring: `None` until [`Simulator::record_trace`].
///
/// ```
/// use dvfs_core::PlanPolicy;
/// use dvfs_model::{BatchPlan, Platform, Task, TaskId};
/// use dvfs_sim::{SimConfig, Simulator};
///
/// let platform = Platform::i7_950_quad();
/// let task = Task::batch(0, 1_600_000_000).unwrap(); // 1 s at 1.6 GHz
/// let mut plan = BatchPlan::empty(4);
/// plan.per_core[0].push((TaskId(0), 0));
///
/// let mut sim = Simulator::new(SimConfig::new(platform));
/// sim.add_tasks(&[task]);
/// let report = sim.run(&mut PlanPolicy::new(plan));
/// assert_eq!(report.completed(), 1);
/// assert!((report.makespan - 1.0).abs() < 1e-9);
/// ```
pub struct Simulator {
    engine: Engine<Option<Ring>>,
}

impl Deref for Simulator {
    type Target = Engine<Option<Ring>>;
    fn deref(&self) -> &Self::Target {
        &self.engine
    }
}

impl DerefMut for Simulator {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.engine
    }
}

impl Simulator {
    /// Build a simulator from a configuration.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        Simulator {
            engine: Engine::new(cfg, None),
        }
    }

    /// Record the lifecycle trace from here on — the lines a traced
    /// `dvfs-serve` shard writes for the same transitions, the policy's
    /// `enqueue` provenance included — into a ring that never
    /// overwrites.
    pub fn record_trace(&mut self) {
        self.engine.observer = Some(Ring::new(0, usize::MAX));
    }

    /// Take the trace recorded so far (empty unless
    /// [`Simulator::record_trace`]); sequence numbers keep counting.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.engine
            .observer
            .as_mut()
            .map(Ring::drain)
            .unwrap_or_default()
    }

    /// Run the simulation to completion and report.
    ///
    /// After [`Engine::push_task`] / [`Engine::step_until`] this drains
    /// the remaining backlog — the natural "graceful shutdown" path for
    /// a service.
    ///
    /// # Panics
    /// Panics when the event queue drains while tasks remain unfinished
    /// (the policy failed to dispatch them), or when the event budget is
    /// exceeded.
    pub fn run(&mut self, policy: &mut dyn Policy) -> SimReport {
        self.engine.run_to_completion(policy);
        self.report(policy.name())
    }

    /// Snapshot a report of everything simulated so far without
    /// consuming the simulator (the power timeline moves out;
    /// incremental callers should treat this as final).
    pub fn report(&mut self, policy_name: String) -> SimReport {
        let engine = &mut self.engine;
        let makespan = engine.makespan();
        let core_busy = engine.core_busy();
        let idle_energy_joules = (engine.platform().cores().iter().zip(&core_busy))
            .map(|(core, busy)| core.idle_power_watts * (makespan - busy).max(0.0))
            .sum();
        SimReport {
            policy: policy_name,
            tasks: engine.records().map(|rec| (rec.id, *rec)).collect(),
            active_energy_joules: engine.active_energy(),
            idle_energy_joules,
            makespan,
            power_timeline: engine.take_power_timeline(),
            core_busy,
            rate_residency: engine.rate_residency(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvfs_core::sched::ExecutorView;
    use dvfs_model::{CoreId, CoreSpec, Platform, RateIdx, RateTable, Task, TaskId};

    /// Runs every batch task on core 0 at a fixed rate, FIFO.
    struct Fifo {
        rate: RateIdx,
        queue: std::collections::VecDeque<TaskId>,
    }

    impl Fifo {
        fn new(rate: RateIdx) -> Self {
            Fifo {
                rate,
                queue: Default::default(),
            }
        }
    }

    impl Policy for Fifo {
        fn name(&self) -> String {
            "fifo-test".into()
        }
        fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
            self.queue.push_back(task.id);
            if sim.is_idle(0) {
                let next = self.queue.pop_front().expect("just pushed");
                sim.dispatch(0, next, Some(self.rate));
            }
        }
        fn on_completion(&mut self, sim: &mut dyn ExecutorView, _core: CoreId, _task: &Task) {
            if let Some(next) = self.queue.pop_front() {
                sim.dispatch(0, next, Some(self.rate));
            }
        }
    }

    fn single_core_platform() -> Platform {
        Platform::homogeneous(1, CoreSpec::new(RateTable::i7_950_table2())).unwrap()
    }

    #[test]
    fn idle_energy_accounts_for_unused_cores() {
        struct CoreZeroOnly;
        impl Policy for CoreZeroOnly {
            fn name(&self) -> String {
                "core-zero".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                sim.dispatch(0, task.id, Some(0));
            }
            fn on_completion(&mut self, _s: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {}
        }
        let mut sim = Simulator::new(SimConfig::new(Platform::i7_950_quad()));
        sim.add_tasks(&[Task::batch(1, 1_600_000_000).unwrap()]);
        let report = sim.run(&mut CoreZeroOnly);
        // 3 idle cores × 2 W × 1 s makespan.
        assert!((report.idle_energy_joules - 6.0).abs() < 1e-6);
        assert!((report.core_busy[0] - 1.0).abs() < 1e-9);
        assert_eq!(report.core_busy[1], 0.0);
    }

    #[test]
    fn a_recorded_trace_holds_the_lifecycle() {
        use dvfs_trace::EventKind;
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        sim.record_trace();
        sim.add_tasks(&[
            Task::batch(1, 1_600_000_000).unwrap(),
            Task::batch(2, 1_600_000_000).unwrap(),
        ]);
        sim.run(&mut Fifo::new(2));
        let trace = sim.take_trace();
        let count = |pred: fn(&EventKind) -> bool| trace.iter().filter(|e| pred(&e.kind)).count();
        assert_eq!(count(|k| matches!(k, EventKind::Dispatch { .. })), 2);
        assert_eq!(count(|k| matches!(k, EventKind::Complete { .. })), 2);
        assert_eq!(
            count(|k| matches!(k, EventKind::RateChange { .. })),
            0,
            "dispatch-time rate selection is the dispatch itself"
        );
        // Task 1: dispatch then completion, in time and sequence order.
        let t1: Vec<_> = (trace.iter())
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Dispatch { task: 1, .. } | EventKind::Complete { task: 1, .. }
                )
            })
            .collect();
        assert_eq!(t1.len(), 2);
        assert!(t1[0].time <= t1[1].time && t1[0].seq < t1[1].seq);
        assert!(sim.take_trace().is_empty(), "taken means gone");
    }

    #[test]
    fn the_trace_is_off_by_default() {
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        sim.add_tasks(&[Task::batch(1, 100_000).unwrap()]);
        sim.run(&mut Fifo::new(0));
        assert!(sim.observer.is_none());
        assert!(sim.take_trace().is_empty());
    }

    #[test]
    fn add_tasks_after_the_clock_has_advanced_arrives_now_and_keeps_its_stamp() {
        // Regression: this used to trip `event time precedes now` in
        // debug builds and, in release, dispatch the task as if it had
        // been runnable since t = 1.
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        let mut policy = Fifo::new(0);
        sim.step_until(&mut policy, 5.0);
        let mut late = Task::batch(1, 1_600_000_000).unwrap(); // 1 s at rate 0
        late.arrival = 1.0;
        sim.add_tasks(&[late]);
        let report = sim.run(&mut policy);
        let rec = report.tasks[&TaskId(1)];
        // The arrival *event* clamps to the clock ...
        assert_eq!(rec.first_start, Some(5.0));
        assert!((rec.completion.unwrap() - 6.0).abs() < 1e-9);
        // ... the record keeps the stamp, so the 4 s it nominally
        // waited are charged to its turnaround.
        assert_eq!(rec.arrival, 1.0);
        assert!((report.total_turnaround() - 5.0).abs() < 1e-9);
    }
}
