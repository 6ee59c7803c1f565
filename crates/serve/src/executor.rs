//! The service's wall-clock executor.
//!
//! [`RealTimeExecutor`] is the wall-paced driver of
//! `dvfs_core::sched::engine::Engine`, the engine the virtual-time
//! simulator in `dvfs-sim` also drives. Tasks are pushed as they are
//! admitted, the service maps wall time onto the engine clock and calls
//! [`Engine::step_until`], and every frequency decision reaches the
//! `dvfs-sysfs` actuator at the moment the engine makes it — the
//! actuation path a real deployment would use, not an after-the-fact
//! log replay. This module adds only the engine's observer — the
//! [`RateActuator`] backends beside the shard's trace ring — the
//! running totals of what a paced round has already retired, and the
//! completion-ordered [`RoundReport`].
//!
//! ## Determinism contract
//!
//! A replay through [`Engine::run_to_completion`] is **bit-identical**
//! (per-task energy, completion times, event order) to the same trace
//! on `dvfs_sim::Simulator` because it *is* the simulator's engine,
//! configured with userspace governors, no contention and no switch
//! latency. The conformance suite and the end-to-end tests therefore
//! pin this wrapper — actuation, completion order, report merging,
//! sharding — not a second copy of the arithmetic.

use dvfs_core::sched::engine::{Engine, EngineConfig, EngineEvent, EngineObserver};
use dvfs_model::{CostBreakdown, CostParams, Platform, RateIdx, TaskRecord};
use dvfs_sysfs::{DvfsActuator, SimulatedSysfs};
use dvfs_trace::{SharedRing, TraceSink};
use std::ops::{Deref, DerefMut};

/// Everything one completed round of service produced, in the same
/// accounting the simulator's report uses (so wire responses and the
/// determinism tests can compare the two directly).
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Tasks the round completed: everything in `records` plus what
    /// paced ticks retired before the drain.
    pub completed: u64,
    /// Records of the completed tasks still resident in the engine when
    /// the report was taken, in completion order. A replay round
    /// completes nothing before its drain, so there this is every task;
    /// a paced round's ticks retire what they stream (see
    /// [`RealTimeExecutor::retire_completions`]), so there it is only
    /// what finished since the last tick.
    pub records: Vec<TaskRecord>,
    /// Total active energy in joules (integral of busy power).
    pub active_energy_joules: f64,
    /// Sum of turnaround times: the resident records accumulated in
    /// task-id order (the same summation order as
    /// `SimReport::total_turnaround`, so a replay's floats match bit
    /// for bit) on top of the retired tasks' running total.
    pub total_turnaround_s: f64,
    /// Time the last task completed.
    pub makespan_s: f64,
}

impl RoundReport {
    /// The paper's monetary objective over this round.
    #[must_use]
    pub fn total_cost(&self, params: CostParams) -> f64 {
        CostBreakdown::from_totals(params, self.active_energy_joules, self.total_turnaround_s)
            .total()
    }

    /// Merge per-shard reports, accumulated in the given (deterministic
    /// shard) order: records concatenate, counts, energy and turnaround
    /// sum, makespan takes the maximum. Merging a single report is the exact
    /// identity (`0.0 + x == x`, `max(0.0, x) == x` for the
    /// non-negative totals a round produces), so a one-shard service
    /// keeps the bit-identical replay contract.
    #[must_use]
    pub fn merge(reports: &[RoundReport]) -> RoundReport {
        let mut merged = RoundReport {
            completed: 0,
            records: Vec::with_capacity(reports.iter().map(|r| r.records.len()).sum()),
            active_energy_joules: 0.0,
            total_turnaround_s: 0.0,
            makespan_s: 0.0,
        };
        for r in reports {
            merged.completed += r.completed;
            merged.records.extend(r.records.iter().copied());
            merged.active_energy_joules += r.active_energy_joules;
            merged.total_turnaround_s += r.total_turnaround_s;
            merged.makespan_s = merged.makespan_s.max(r.makespan_s);
        }
        merged
    }
}

/// Where the executor lands its per-core frequency decisions.
///
/// The default backend ([`SimulatedActuator`]) runs the paper's full
/// sysfs protocol against a simulated tree — userspace governor,
/// `scaling_setspeed` write, readback verification — and is what the
/// bit-identical replay contract is pinned against. A backend that
/// writes real cpufreq files is another implementation of this trait
/// and another [`ActuatorKind`].
pub trait RateActuator: Send {
    /// Apply `rate` to core `cpu`; `true` means applied and verified.
    fn apply(&mut self, cpu: usize, rate: RateIdx) -> bool;
    /// Backend name, for reports and debugging.
    fn name(&self) -> &'static str;
}

/// The paper's sysfs protocol over a simulated per-core tree.
#[derive(Debug)]
pub struct SimulatedActuator {
    inner: DvfsActuator<SimulatedSysfs>,
}

impl SimulatedActuator {
    /// One simulated sysfs tree per core, using core 0's rate table
    /// (the service platform is homogeneous).
    #[must_use]
    pub fn new(platform: &Platform) -> Self {
        let table = platform.core(0).expect("platform has cores").rates.clone();
        let backend = SimulatedSysfs::new(platform.num_cores(), &table);
        let inner = DvfsActuator::new(backend, table)
            .expect("simulated sysfs accepts the userspace governor");
        SimulatedActuator { inner }
    }
}

impl RateActuator for SimulatedActuator {
    fn apply(&mut self, cpu: usize, rate: RateIdx) -> bool {
        self.inner.apply(cpu, rate).is_ok()
    }
    fn name(&self) -> &'static str {
        "simulated"
    }
}

/// Config-selectable actuator backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActuatorKind {
    /// Full simulated-sysfs protocol with readback verification.
    #[default]
    Simulated,
}

impl ActuatorKind {
    /// Build the backend for `platform`.
    #[must_use]
    pub fn build(self, platform: &Platform) -> Box<dyn RateActuator> {
        match self {
            ActuatorKind::Simulated => Box::new(SimulatedActuator::new(platform)),
        }
    }
}

/// The engine's observer: the shard's trace ring (when tracing is on)
/// takes every transition's lifecycle line, and the actuator one
/// `apply` per dispatch and one per rate change outside a dispatch (an
/// effective `set_rate` or a governor tick), counted until
/// [`RealTimeExecutor::take_actuations`].
pub struct Actuation {
    actuator: Box<dyn RateActuator>,
    applied: u64,
    errored: u64,
    ring: Option<SharedRing>,
}

impl EngineObserver for Actuation {
    fn on_event(&mut self, time: f64, event: EngineEvent) {
        self.ring.on_event(time, event);
        let (cpu, rate) = match event {
            EngineEvent::Dispatch { core, rate, .. } => (core, rate),
            EngineEvent::RateChange { core, to, .. } => (core, to),
            _ => return,
        };
        if self.actuator.apply(cpu, rate) {
            self.applied += 1;
        } else {
            self.errored += 1;
        }
    }

    fn trace(&mut self) -> Option<&mut dyn TraceSink> {
        self.ring.trace()
    }
}

/// The wall-clock executor: the shared engine with the rate actuator
/// observing every frequency decision, and a clock the service advances.
/// It dereferences to its [`Engine`], whose API — `push_task`,
/// `push_migrated`, `remove_ready`, `step_until`, `run_to_completion`,
/// `pending_tasks`, `queued_tasks`, `take_completions` — is the
/// executor's own; only what touches the actuator, the trace ring or
/// the [`RoundReport`] is defined here.
pub struct RealTimeExecutor {
    engine: Engine<Actuation>,
    /// How many tasks [`RealTimeExecutor::retire_completions`] has
    /// removed from the engine this round, and their summed turnaround.
    retired: u64,
    retired_turnaround_s: f64,
}

impl Deref for RealTimeExecutor {
    type Target = Engine<Actuation>;
    fn deref(&self) -> &Self::Target {
        &self.engine
    }
}

impl DerefMut for RealTimeExecutor {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.engine
    }
}

impl RealTimeExecutor {
    /// Build an executor over `platform` with userspace-governed cores
    /// (the policy owns every frequency) and the default
    /// [`SimulatedActuator`] backend.
    #[must_use]
    pub fn new(platform: Platform) -> Self {
        Self::with_actuator(platform, ActuatorKind::Simulated)
    }

    /// Like [`RealTimeExecutor::new`], with an explicit actuator
    /// backend.
    #[must_use]
    pub fn with_actuator(platform: Platform, kind: ActuatorKind) -> Self {
        Self::from_config(EngineConfig::new(platform), kind)
    }

    fn from_config(cfg: EngineConfig, kind: ActuatorKind) -> Self {
        let observer = Actuation {
            actuator: kind.build(&cfg.platform),
            applied: 0,
            errored: 0,
            ring: None,
        };
        RealTimeExecutor {
            engine: Engine::new(cfg, observer),
            retired: 0,
            retired_turnaround_s: 0.0,
        }
    }

    /// Attach (or detach, with `None`) the shard's shared trace ring
    /// (the shard drains it at round boundaries). Events carry engine
    /// seconds only, preserving the replay contract.
    pub fn set_trace_ring(&mut self, sink: Option<SharedRing>) {
        self.engine.observer.ring = sink;
    }

    /// Drain the actuation counters: `(applied, errored)` since the
    /// previous drain.
    pub fn take_actuations(&mut self) -> (u64, u64) {
        let counts = &mut self.engine.observer;
        (
            std::mem::take(&mut counts.applied),
            std::mem::take(&mut counts.errored),
        )
    }

    /// The paced streaming path: the records of tasks completed since
    /// the previous call, which leave the engine for good — their count
    /// and turnaround fold into the round's running totals (their
    /// energy already sits in the engine's integral), so a round's
    /// memory follows the work in flight, not the work done.
    pub fn retire_completions(&mut self) -> Vec<TaskRecord> {
        let records = self.engine.retire_completions();
        self.retired += records.len() as u64;
        self.retired_turnaround_s += records
            .iter()
            .filter_map(TaskRecord::turnaround)
            .sum::<f64>();
        records
    }

    /// Summarize the round so far. The resident turnarounds sum in
    /// task-id order — exactly like `SimReport`'s `BTreeMap` — and a
    /// replay retires nothing, so a drained replay matches a library
    /// run bit for bit.
    #[must_use]
    pub fn round_report(&self) -> RoundReport {
        let records: Vec<TaskRecord> = self.engine.completed_records().collect();
        let resident_turnaround_s: f64 = self
            .engine
            .records()
            .filter_map(TaskRecord::turnaround)
            .sum();
        RoundReport {
            completed: self.retired + records.len() as u64,
            records,
            active_energy_joules: self.engine.active_energy(),
            // Not `0.0 + resident`: an empty sum is `-0.0`, which the
            // wire document prints as such.
            total_turnaround_s: if self.retired == 0 {
                resident_turnaround_s
            } else {
                self.retired_turnaround_s + resident_turnaround_s
            },
            makespan_s: self.engine.makespan(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::service_platform;
    use dvfs_core::LeastMarginalCost;
    use dvfs_model::{Task, TaskClass, TaskId};

    fn lmc(cores: usize) -> LeastMarginalCost {
        LeastMarginalCost::new(&service_platform(cores), CostParams::online_paper())
    }

    #[test]
    fn replay_matches_the_simulator_bit_for_bit() {
        let tasks: Vec<Task> = (0..16)
            .map(|i| {
                let class = if i % 3 == 0 {
                    TaskClass::Interactive
                } else {
                    TaskClass::NonInteractive
                };
                Task::online(i, (i + 1) * 60_000_000, i as f64 * 0.015, None, class).unwrap()
            })
            .collect();

        let mut rt = RealTimeExecutor::new(service_platform(2));
        let mut policy = lmc(2);
        for t in &tasks {
            rt.push_task(t);
        }
        rt.run_to_completion(&mut policy);
        let got = rt.round_report();

        let mut sim = dvfs_sim::Simulator::new(dvfs_sim::SimConfig::new(service_platform(2)));
        let mut policy = lmc(2);
        sim.add_tasks(&tasks);
        let want = sim.run(&mut policy);

        assert_eq!(got.active_energy_joules, want.active_energy_joules);
        assert_eq!(got.total_turnaround_s, want.total_turnaround());
        assert_eq!(got.makespan_s, want.makespan);
        assert_eq!(got.records.len(), tasks.len());
        for rec in &got.records {
            let reference = want.tasks[&rec.id];
            assert_eq!(rec.completion, reference.completion, "task {}", rec.id);
            assert_eq!(rec.energy_joules, reference.energy_joules);
            assert_eq!(rec.first_start, reference.first_start);
            assert_eq!(rec.preemptions, reference.preemptions);
        }
    }

    #[test]
    fn step_until_streams_completions_and_actuations() {
        let mut rt = RealTimeExecutor::new(service_platform(1));
        let mut policy = lmc(1);
        rt.push_task(
            &Task::online(0, 1_600_000_000, 0.0, None, TaskClass::NonInteractive).unwrap(),
        );
        rt.step_until(&mut policy, 0.5);
        assert_eq!(rt.pending_tasks(), 1, "mid-flight at t=0.5");
        assert!(rt.take_completions().is_empty());
        rt.step_until(&mut policy, 5.0);
        assert_eq!(rt.pending_tasks(), 0);
        let records = rt.take_completions();
        assert_eq!(records.len(), 1);
        assert!(records[0].completion.unwrap() <= 1.0 + 1e-9);
        let (applied, errored) = rt.take_actuations();
        assert!(applied >= 1, "dispatch must hit the actuator");
        assert_eq!(errored, 0);
        // Drained: a second take reports nothing.
        assert_eq!(rt.take_actuations(), (0, 0));
    }

    #[test]
    fn merging_one_report_is_the_identity_and_two_reports_sum() {
        let run = |ids: &[u64]| {
            let mut rt = RealTimeExecutor::new(service_platform(1));
            let mut policy = lmc(1);
            for &i in ids {
                rt.push_task(
                    &Task::online(
                        i,
                        (i + 1) * 40_000_000,
                        0.0,
                        None,
                        TaskClass::NonInteractive,
                    )
                    .unwrap(),
                );
            }
            rt.run_to_completion(&mut policy);
            rt.round_report()
        };
        let a = run(&[0, 1]);
        let b = run(&[2, 3, 4]);

        let identity = RoundReport::merge(std::slice::from_ref(&a));
        assert_eq!(identity.active_energy_joules, a.active_energy_joules);
        assert_eq!(identity.total_turnaround_s, a.total_turnaround_s);
        assert_eq!(identity.makespan_s, a.makespan_s);
        assert_eq!(identity.records.len(), a.records.len());

        let both = RoundReport::merge(&[a.clone(), b.clone()]);
        assert_eq!(both.records.len(), 5);
        assert_eq!(
            both.active_energy_joules,
            a.active_energy_joules + b.active_energy_joules
        );
        assert_eq!(
            both.total_turnaround_s,
            a.total_turnaround_s + b.total_turnaround_s
        );
        assert_eq!(both.makespan_s, a.makespan_s.max(b.makespan_s));
    }

    #[test]
    #[should_panic(expected = "duplicate task id")]
    fn duplicate_ids_panic() {
        let mut rt = RealTimeExecutor::new(service_platform(1));
        let t = Task::online(7, 1_000, 0.0, None, TaskClass::Interactive).unwrap();
        rt.push_task(&t);
        rt.push_task(&t);
    }

    #[test]
    fn steal_and_migrate_preserve_the_original_arrival() {
        // Once bare, once with a contention model installed: the one
        // capability x capability cell (migration x contention) neither
        // pre-merge engine could express.
        let mut finished = Vec::new();
        for contended in [false, true] {
            let executor = || {
                let mut cfg = EngineConfig::new(service_platform(1));
                if contended {
                    cfg = cfg.with_contention(Box::new(|_busy| 0.5));
                }
                RealTimeExecutor::from_config(cfg, ActuatorKind::Simulated)
            };
            let mut rt = executor();
            let mut policy = lmc(1);
            // Two tasks at t=0 on one core: the first dispatches, the
            // second stays queued in the ledger.
            rt.push_task(
                &Task::online(0, 40_000_000, 0.0, None, TaskClass::NonInteractive).unwrap(),
            );
            rt.push_task(
                &Task::online(1, 800_000_000, 0.0, None, TaskClass::NonInteractive).unwrap(),
            );
            rt.step_until(&mut policy, 0.0);
            assert_eq!(rt.pending_tasks(), 2);
            assert_eq!(rt.queued_tasks(), 1, "one running, one queued");
            // Running and unknown tasks are not stealable.
            assert!(rt.remove_ready(TaskId(0)).is_none());
            assert!(rt.remove_ready(TaskId(9)).is_none());
            let stolen = rt.remove_ready(TaskId(1)).expect("queued task steals");
            assert_eq!(stolen.cycles, 800_000_000, "no progress was lost");
            assert_eq!(rt.pending_tasks(), 1);
            assert_eq!(rt.queued_tasks(), 0);
            assert!(rt.remove_ready(TaskId(1)).is_none(), "already stolen");
            // Inject into a cold executor whose clock is ahead: the arrival
            // event clamps forward, the record's arrival does not.
            let mut cold = executor();
            let mut cold_policy = lmc(1);
            cold.step_until(&mut cold_policy, 2.0);
            cold.push_migrated(&stolen);
            cold.run_to_completion(&mut cold_policy);
            let report = cold.round_report();
            assert_eq!(report.records.len(), 1);
            let rec = report.records[0];
            assert_eq!(rec.arrival, 0.0, "original arrival survives migration");
            assert!(rec.first_start.unwrap() >= 2.0, "started on the cold clock");
            finished.push(rec.completion.unwrap());
        }
        assert!(
            finished[1] > finished[0],
            "contention dilates the migrated run"
        );
    }

    #[test]
    fn late_arrivals_clamp_to_executor_now() {
        let mut rt = RealTimeExecutor::new(service_platform(1));
        let mut policy = lmc(1);
        rt.step_until(&mut policy, 2.0);
        rt.push_task(&Task::online(0, 1_000, 0.5, None, TaskClass::Interactive).unwrap());
        rt.step_until(&mut policy, 3.0);
        let records = rt.take_completions();
        assert_eq!(records.len(), 1);
        assert!((records[0].arrival - 2.0).abs() < 1e-12, "arrival clamped");
    }
}
