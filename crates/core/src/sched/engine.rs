//! The event-driven execution engine — the one [`ExecutorView`]
//! implementation in the workspace.
//!
//! The paper's online mode (Section IV, LMC on a judge server) and its
//! model check (Section V, Fig. 1) are the same execution model: a core
//! at rate `p` retires `1/T(p)` cycles per second and draws `E(p)/T(p)`
//! watts while busy. [`Engine`] owns that model; two thin drivers pace
//! it — `dvfs_sim::Simulator` in virtual time, `dvfs_serve::RealTimeExecutor`
//! against the wall clock — so a replayed trace is bit-identical on
//! either by construction.
//!
//! Progress is tracked in continuous cycles: a core whose rate has
//! per-cycle time `T` and contention factor `s ∈ (0, 1]` completes
//! `s/T` cycles of the running task per second. Completion events
//! carry a per-core *epoch*; any mutation (dispatch, preemption, rate
//! change, contention change) bumps it, so stale completions are
//! discarded when popped. Events pop in `(time, class, FIFO seq)` order
//! with completions ahead of governor ticks ahead of arrivals.
//!
//! Governors, contention, DVFS switch latency and the power timeline
//! are [`EngineConfig`] capabilities whose defaults reduce to the exact
//! identities `× 1.0` and `+ 0.0`. Every transition is reported once,
//! as the lifecycle trace's own line — a [`EventKind::Dispatch`]
//! (whatever rate it set), [`EventKind::Preempt`],
//! [`EventKind::RateChange`] (an effective `set_rate` or a governor
//! tick) or [`EventKind::Complete`] — to the engine's one sink, its
//! [`EngineObserver`]. An arrival is not a transition the trace
//! records: it learns of a task from the service's `submit` or the
//! policy's `enqueue`. What a driver *does* with a transition — write
//! the lifecycle trace, land frequencies on an actuator — is the
//! observer's business.

use super::event::{self, Event, EventQueue};
use super::governor::GovernorKind;
use super::{ExecutorView, Scheduler};
use dvfs_model::{CoreId, Platform, RateIdx, RateTable, Task, TaskId, TaskRecord};
use dvfs_trace::{EventKind, TraceSink};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Contention factor: given the number of simultaneously busy cores,
/// return the effective speed multiplier in `(0, 1]`. `None` models an
/// ideal (contention-free) machine. `Send + Sync` so an engine can be
/// handed to a worker thread.
pub type ContentionFn = Box<dyn Fn(usize) -> f64 + Send + Sync>;

/// Safety valve: abort after this many processed events (a policy or
/// governor livelock).
const EVENT_BUDGET: u64 = 2_000_000_000;

/// Engine configuration (`dvfs_sim::SimConfig` is this type).
pub struct EngineConfig {
    /// The hardware platform.
    pub platform: Platform,
    /// Per-core governor (defaults to `Userspace` everywhere).
    pub governors: Vec<GovernorKind>,
    /// Per-core cap on the usable rate index (defaults to the table max;
    /// the Power Saving baseline lowers it).
    pub max_allowed_rate: Vec<RateIdx>,
    /// Optional shared-resource contention model.
    pub contention: Option<ContentionFn>,
    /// Record the `(time, watts)` platform power step function.
    pub record_power_timeline: bool,
    /// DVFS transition latency in seconds: after a frequency change the
    /// core stalls (draws active power, executes nothing) for this long.
    /// Real per-core DVFS transitions cost on the order of tens of
    /// microseconds; the default 0 models the paper's idealization.
    pub switch_latency_s: f64,
}

impl EngineConfig {
    /// Default configuration: userspace governors, no caps, no
    /// contention, timeline recording off.
    #[must_use]
    pub fn new(platform: Platform) -> Self {
        EngineConfig {
            governors: vec![GovernorKind::Userspace; platform.num_cores()],
            max_allowed_rate: platform
                .cores()
                .iter()
                .map(|c| c.rates.max_rate())
                .collect(),
            platform,
            contention: None,
            record_power_timeline: false,
            switch_latency_s: 0.0,
        }
    }

    /// Use `governor` on every core.
    #[must_use]
    pub fn with_governor(mut self, governor: GovernorKind) -> Self {
        self.governors = vec![governor; self.platform.num_cores()];
        self
    }

    /// Cap every core's usable rates at `idx` (Power Saving).
    #[must_use]
    pub fn with_rate_cap(mut self, idx: RateIdx) -> Self {
        for (cap, core) in self.max_allowed_rate.iter_mut().zip(self.platform.cores()) {
            *cap = idx.min(core.rates.max_rate());
        }
        self
    }

    /// Install a contention model.
    #[must_use]
    pub fn with_contention(mut self, f: ContentionFn) -> Self {
        self.contention = Some(f);
        self
    }

    /// Enable power-timeline recording.
    #[must_use]
    pub fn with_power_timeline(mut self) -> Self {
        self.record_power_timeline = true;
        self
    }

    /// Set the DVFS transition latency.
    ///
    /// # Panics
    /// Panics when `latency` is negative or not finite.
    #[must_use]
    pub fn with_switch_latency(mut self, latency_s: f64) -> Self {
        assert!(
            latency_s.is_finite() && latency_s >= 0.0,
            "switch latency must be finite and non-negative"
        );
        self.switch_latency_s = latency_s;
        self
    }
}

/// The engine-event seam: every transition — and so every rate
/// mutation, whoever caused it — reaches the observer exactly once.
/// The simulator's trace recorder and the service's rate actuator are
/// both observers.
pub trait EngineObserver {
    /// `event` happened at engine time `time` (seconds).
    fn on_event(&mut self, time: f64, event: EventKind);

    /// The sink this observer writes the lifecycle trace to, if it
    /// keeps one: what [`ExecutorView::trace`] hands a policy, so its
    /// decision provenance lands in the stream the observer is already
    /// writing.
    fn trace(&mut self) -> Option<&mut dyn TraceSink> {
        None
    }
}

/// The plainest observer is an optional trace sink: it records each
/// transition as it is given and, when `None`, records and allocates
/// nothing.
impl<S: TraceSink> EngineObserver for Option<S> {
    fn on_event(&mut self, time: f64, event: EventKind) {
        if let Some(sink) = self {
            sink.record(time, event);
        }
    }

    fn trace(&mut self) -> Option<&mut dyn TraceSink> {
        self.as_mut().map(|sink| sink as &mut dyn TraceSink)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobPhase {
    /// Registered but not yet arrived.
    Future,
    /// Arrived; waiting for a policy dispatch (also after preemption).
    Ready,
    /// Executing on a core.
    Running,
    /// Finished.
    Done,
}

/// One registered task, held in [`Engine`]'s slab at a dense slot.
struct Job {
    task: Task,
    remaining: f64,
    phase: JobPhase,
    record: TaskRecord,
}

#[derive(Default)]
struct Core {
    rate: RateIdx,
    epoch: u64,
    /// Slot of the job executing here.
    running: Option<usize>,
    last_sync: f64,
    busy_time: f64,
    busy_at_last_tick: f64,
    /// Busy seconds per rate index.
    residency: Vec<f64>,
    /// The core stalls (no execution) until this time after a DVFS
    /// transition.
    stall_until: f64,
}

/// The execution engine: cores, jobs, a monotone clock, and the event
/// queue of arrivals, governor ticks and projected completions. Policies
/// command it through [`ExecutorView`]; drivers feed it tasks and
/// advance it with [`Engine::step_until`] / [`Engine::run_to_completion`].
pub struct Engine<O> {
    cfg: EngineConfig,
    cores: Vec<Core>,
    /// Every registered job, at a dense slot that events, cores and
    /// `completions` carry. A slot freed by a retire or a steal goes on
    /// `free` and the next registration reuses it, so the slab follows
    /// the work in flight.
    jobs: Vec<Job>,
    free: Vec<usize>,
    /// `TaskId → slot` for every job still in the slab: consulted only
    /// where a task id crosses the engine's boundary (registration, the
    /// policy's `dispatch` / `remaining_cycles`, `remove_ready`, retire)
    /// and walked by [`Engine::records`] for task-id order.
    index: BTreeMap<TaskId, usize>,
    queue: EventQueue,
    now: f64,
    active_energy: f64,
    power_timeline: Vec<(f64, f64)>,
    last_completion: f64,
    /// Events processed so far (budget accounting across steps).
    processed: u64,
    /// Slots of every completion not yet retired, in order.
    completions: Vec<usize>,
    /// The one sink this engine reports every transition to, stamped
    /// with engine seconds only.
    pub observer: O,
}

impl<O: EngineObserver> Engine<O> {
    /// Build an engine from a configuration and an observer.
    #[must_use]
    pub fn new(cfg: EngineConfig, observer: O) -> Self {
        let cores = (0..cfg.platform.num_cores())
            .map(|j| Core {
                // An idle machine settles at the lowest level under the
                // userspace and demand-driven governors; start there.
                rate: match cfg.governors[j] {
                    GovernorKind::Performance => cfg.max_allowed_rate[j],
                    _ => 0,
                },
                residency: vec![0.0; cfg.platform.cores()[j].rates.len()],
                ..Core::default()
            })
            .collect();
        // Periodic governors tick from t = 0 whether or not work has
        // arrived yet.
        let mut queue = EventQueue::default();
        for (j, governor) in cfg.governors.iter().enumerate() {
            if let Some(period) = governor.period() {
                queue.push(period, event::EventKind::GovernorTick { core: j });
            }
        }
        Engine {
            cores,
            jobs: Vec::new(),
            free: Vec::new(),
            index: BTreeMap::new(),
            queue,
            now: 0.0,
            active_energy: 0.0,
            power_timeline: Vec::new(),
            last_completion: 0.0,
            processed: 0,
            completions: Vec::new(),
            observer,
            cfg,
        }
    }

    fn emit(&mut self, kind: EventKind) {
        self.observer.on_event(self.now, kind);
    }

    /// The one insert path: `record_arrival` is the stamp turnaround is
    /// measured from, `event_at` when the arrival event fires.
    fn insert(&mut self, task: &Task, record_arrival: f64, event_at: f64) -> usize {
        let Entry::Vacant(entry) = self.index.entry(task.id) else {
            panic!("duplicate task id {}", task.id);
        };
        let job = Job {
            task: task.clone(),
            remaining: task.cycles as f64,
            phase: JobPhase::Future,
            record: TaskRecord {
                id: task.id,
                class: task.class,
                cycles: task.cycles,
                arrival: record_arrival,
                first_start: None,
                completion: None,
                energy_joules: 0.0,
                preemptions: 0,
            },
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.jobs[slot] = job;
                slot
            }
            None => {
                self.jobs.push(job);
                self.jobs.len() - 1
            }
        };
        entry.insert(slot);
        self.queue
            .push(event_at, event::EventKind::Arrival { slot });
        slot
    }

    /// The slot of a registered task.
    ///
    /// # Panics
    /// Panics when `task` is not in the engine.
    fn slot(&self, task: TaskId) -> usize {
        *self
            .index
            .get(&task)
            .unwrap_or_else(|| panic!("unknown task {task}"))
    }

    /// Register one live submission: it arrives at `task.arrival` or
    /// now, whichever is later, and its turnaround is measured from
    /// that moment. Returns the task's slot: a driver that keeps
    /// per-task state of its own keys it by the slot, which
    /// [`Engine::completion_slots`] names again at completion and the
    /// next registration may reuse once the task is retired or removed.
    ///
    /// # Panics
    /// Panics on a duplicate task id.
    pub fn push_task(&mut self, task: &Task) -> usize {
        let arrival = task.arrival.max(self.now);
        self.insert(task, arrival, arrival)
    }

    /// Register a task whose arrival stamp is authoritative — one
    /// migrated from another shard, or a trace entry registered after
    /// the clock has passed it. The arrival *event* fires no earlier
    /// than this engine's clock, but the record keeps `task.arrival`:
    /// the wait already served stays in the turnaround, so neither
    /// migration nor late registration can flatter the cost report.
    ///
    /// Returns the slot, as [`Engine::push_task`] does.
    ///
    /// # Panics
    /// Panics on a duplicate task id.
    pub fn push_migrated(&mut self, task: &Task) -> usize {
        self.insert(task, task.arrival, task.arrival.max(self.now))
    }

    /// Register a trace: each task arrives at its `Task::arrival` stamp
    /// (under the [`Engine::push_migrated`] rule if the clock has
    /// already passed it).
    ///
    /// # Panics
    /// Panics on duplicate task ids.
    pub fn add_tasks(&mut self, tasks: &[Task]) {
        for t in tasks {
            self.push_migrated(t);
        }
    }

    /// Remove a task that arrived but was never dispatched (the steal
    /// half of cross-shard migration), returning the original [`Task`]
    /// so it can be re-registered elsewhere. Returns `None` — removing
    /// nothing — for running, completed, unknown, or still-future
    /// tasks: a future task's pending arrival event would dangle, and a
    /// running task's progress would be lost. The caller must also drop
    /// the task from its policy's queue; the engine only forgets the
    /// job.
    pub fn remove_ready(&mut self, task: TaskId) -> Option<Task> {
        let slot = *self.index.get(&task)?;
        if self.jobs[slot].phase != JobPhase::Ready {
            return None;
        }
        self.index.remove(&task);
        self.free.push(slot);
        Some(self.jobs[slot].task.clone())
    }

    fn busy_count(&self) -> usize {
        self.cores.iter().filter(|c| c.running.is_some()).count()
    }

    fn contention_factor(&self) -> f64 {
        match &self.cfg.contention {
            Some(f) => {
                let v = f(self.busy_count());
                debug_assert!(v > 0.0 && v <= 1.0, "contention factor out of (0,1]");
                v
            }
            None => 1.0,
        }
    }

    /// Advance all cores' progress/energy accounting to `self.now`.
    fn sync_all(&mut self) {
        let factor = self.contention_factor();
        for (core, spec) in self.cores.iter_mut().zip(self.cfg.platform.cores()) {
            let dt = self.now - core.last_sync;
            debug_assert!(dt >= -1e-9, "time went backwards on a core");
            if dt > 0.0 {
                if let Some(slot) = core.running {
                    let rp = spec.rates.rate(core.rate);
                    // Execution speed follows the model's T(p), which the
                    // paper publishes with rounding (Table II), rather
                    // than the nominal frequency: Equation 2 is the
                    // ground truth for t_k = L_k * T(p). A core stalled
                    // by a DVFS transition draws power but makes no
                    // progress until stall_until.
                    let exec_dt = (self.now - core.stall_until.max(core.last_sync)).clamp(0.0, dt);
                    let cycles_done = (1.0 / rp.time_per_cycle) * factor * exec_dt;
                    let energy = rp.active_power_watts() * dt;
                    let job = &mut self.jobs[slot];
                    job.remaining -= cycles_done;
                    job.record.energy_joules += energy;
                    self.active_energy += energy;
                    core.busy_time += dt;
                    core.residency[core.rate] += dt;
                }
            }
            core.last_sync = self.now;
        }
    }

    fn record_power_point(&mut self) {
        if self.cfg.record_power_timeline {
            let busy = self.cores.iter().zip(self.cfg.platform.cores());
            let watts = busy
                .filter(|(core, _)| core.running.is_some())
                .map(|(core, spec)| spec.rates.rate(core.rate).active_power_watts())
                .sum();
            self.power_timeline.push((self.now, watts));
        }
    }

    /// `(stall, run)` seconds until `remaining` cycles finish on core
    /// `j` at its current rate and contention: the projection behind
    /// both the completion event and the dispatch trace's prediction,
    /// so predicted and measured costs are bit-comparable when a
    /// dispatch runs in one uninterrupted slice.
    fn projection(&self, j: CoreId, remaining: f64) -> (f64, f64) {
        let rp = self.rate_table(j).rate(self.cores[j].rate);
        let eff = (1.0 / rp.time_per_cycle) * self.contention_factor();
        let stall = (self.cores[j].stall_until - self.now).max(0.0);
        (stall, remaining / eff)
    }

    /// Re-project core `j`'s completion event (if busy) from its
    /// current rate and remaining work, invalidating any outstanding
    /// projection.
    fn reschedule(&mut self, j: CoreId) {
        self.cores[j].epoch += 1;
        if let Some(slot) = self.cores[j].running {
            let (stall, run) = self.projection(j, self.jobs[slot].remaining.max(0.0));
            let t_fin = self.now + stall + run;
            self.queue.push(
                t_fin,
                event::EventKind::Completion {
                    core: j,
                    epoch: self.cores[j].epoch,
                },
            );
        }
    }

    /// Reschedule completions after a change that may alter effective
    /// speeds: the mutated core always, every busy core when contention
    /// is active (the busy count moved).
    fn reschedule_after_mutation(&mut self, mutated: CoreId) {
        let contended = self.cfg.contention.is_some();
        for j in 0..self.cores.len() {
            if j == mutated || (contended && self.cores[j].running.is_some()) {
                self.reschedule(j);
            }
        }
        self.record_power_point();
    }

    /// Switch core `j` to rate `to` outside a dispatch (an effective
    /// `set_rate` or a governor decision); accounting is already synced.
    fn change_rate(&mut self, j: CoreId, to: RateIdx) {
        let from = self.cores[j].rate;
        self.cores[j].rate = to;
        if self.cfg.switch_latency_s > 0.0 {
            self.cores[j].stall_until = self.now + self.cfg.switch_latency_s;
        }
        self.emit(EventKind::RateChange {
            core: j as u32,
            from: from as u32,
            to: to as u32,
        });
        self.reschedule_after_mutation(j);
    }

    /// Process one event against the policy.
    fn process_event(&mut self, policy: &mut dyn Scheduler, ev: Event) {
        self.processed += 1;
        assert!(
            self.processed <= EVENT_BUDGET,
            "event budget exceeded: likely a policy/governor livelock"
        );
        debug_assert!(ev.time >= self.now - 1e-9, "event time precedes now");
        self.now = self.now.max(ev.time);
        match ev.kind {
            event::EventKind::Arrival { slot } => {
                self.sync_all();
                let job = &mut self.jobs[slot];
                debug_assert_eq!(job.phase, JobPhase::Future);
                job.phase = JobPhase::Ready;
                let t = job.task.clone();
                policy.on_arrival(self, &t);
            }
            event::EventKind::Completion { core, epoch } => {
                if self.cores[core].epoch != epoch {
                    return; // stale projection
                }
                self.sync_all();
                let slot = self.cores[core]
                    .running
                    .expect("valid completion implies a running task");
                let job = &mut self.jobs[slot];
                debug_assert!(
                    job.remaining.abs() < 1.0,
                    "completion fired with {} cycles left",
                    job.remaining
                );
                job.remaining = 0.0;
                job.phase = JobPhase::Done;
                job.record.completion = Some(self.now);
                let (t, rec) = (job.task.clone(), job.record);
                self.cores[core].running = None;
                self.last_completion = self.now;
                self.completions.push(slot);
                self.emit(EventKind::Complete {
                    task: t.id.0,
                    core: core as u32,
                    energy_j: rec.energy_joules,
                    turnaround_s: self.now - rec.arrival,
                });
                self.reschedule_after_mutation(core);
                policy.on_completion(self, core, &t);
            }
            event::EventKind::GovernorTick { core } => {
                self.sync_all();
                let governor = self.cfg.governors[core];
                let period = governor.period().expect("tick implies periodic governor");
                let c = &mut self.cores[core];
                let load = ((c.busy_time - c.busy_at_last_tick) / period).clamp(0.0, 1.0);
                let next = governor.next_rate(load, c.rate, self.cfg.max_allowed_rate[core]);
                c.busy_at_last_tick = c.busy_time;
                if next != c.rate {
                    self.change_rate(core, next);
                }
                // Re-arm unconditionally: a driver may push more work
                // after the current backlog drains.
                self.queue
                    .push(self.now + period, event::EventKind::GovernorTick { core });
                policy.on_tick(self, core);
            }
        }
    }

    /// Advance the engine clock to `t`, processing every event due at
    /// or before it. Time then rests exactly at `t` (cores idle or
    /// mid-task), ready for more [`Engine::push_task`] calls — the
    /// paced driver of a long-running service.
    ///
    /// # Panics
    /// Panics when `t` is not finite or precedes the current time by
    /// more than rounding error, or when the event budget is exceeded.
    pub fn step_until(&mut self, policy: &mut dyn Scheduler, t: f64) {
        assert!(t.is_finite(), "step_until: time must be finite");
        assert!(
            t >= self.now - 1e-9,
            "step_until: t={t} precedes now={}",
            self.now
        );
        while self.queue.peek().is_some_and(|ev| ev.time <= t) {
            let ev = self.queue.pop().expect("peeked");
            self.process_event(policy, ev);
        }
        self.now = self.now.max(t);
        self.sync_all();
    }

    /// Run every registered task to completion as fast as events allow
    /// (the batch / replay / drain / graceful-shutdown path).
    ///
    /// # Panics
    /// Panics when the event queue drains while tasks remain unfinished
    /// (the policy failed to dispatch them), or when the event budget is
    /// exceeded.
    pub fn run_to_completion(&mut self, policy: &mut dyn Scheduler) {
        while self.pending_tasks() > 0 {
            let ev = self.queue.pop().unwrap_or_else(|| {
                panic!(
                    "event queue drained with {} of {} tasks unfinished: the policy \
                     failed to dispatch them",
                    self.pending_tasks(),
                    self.index.len()
                )
            });
            self.process_event(policy, ev);
        }
        self.sync_all();
    }

    /// Current engine time in seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Tasks registered but not yet completed.
    #[must_use]
    pub fn pending_tasks(&self) -> usize {
        self.index.len() - self.completions.len()
    }

    /// Tasks registered but neither running nor completed — the
    /// engine-held backlog the router and rebalancer fold into their
    /// load scores (admission depth alone is blind to these).
    #[must_use]
    pub fn queued_tasks(&self) -> usize {
        self.pending_tasks() - self.busy_count()
    }

    /// The slots of [`Engine::completed_records`], in the same order.
    #[must_use]
    pub fn completion_slots(&self) -> &[usize] {
        &self.completions
    }

    /// The paced streaming path, for a driver that keeps its own
    /// running totals: the records of the tasks completed since the
    /// previous retire (completion order), which leave the engine with
    /// them, so a long paced round holds only the work still in flight.
    /// Retired tasks no longer appear in [`Engine::records`] or
    /// [`Engine::completed_records`], and the engine stops guarding
    /// their ids against reuse.
    pub fn retire_completions(&mut self) -> Vec<TaskRecord> {
        let records: Vec<TaskRecord> = self.completed_records().collect();
        for (&slot, record) in self.completions.iter().zip(&records) {
            self.index.remove(&record.id);
            self.free.push(slot);
        }
        self.completions.clear();
        records
    }

    /// Records of every completed task not yet retired, in completion
    /// order.
    pub fn completed_records(&self) -> impl Iterator<Item = TaskRecord> + '_ {
        self.completions.iter().map(|&slot| self.jobs[slot].record)
    }

    /// Records of every registered task, in task-id order (the order
    /// every report sums in, so aggregates match bit for bit).
    pub fn records(&self) -> impl Iterator<Item = &TaskRecord> + '_ {
        self.index.values().map(|&slot| &self.jobs[slot].record)
    }

    /// The platform this engine executes on.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.cfg.platform
    }

    /// Total active energy so far in joules (integral of busy power).
    #[must_use]
    pub fn active_energy(&self) -> f64 {
        self.active_energy
    }

    /// Time the last task completed.
    #[must_use]
    pub fn makespan(&self) -> f64 {
        self.last_completion
    }

    /// Per-core busy seconds per rate index (`[core][rate]`).
    #[must_use]
    pub fn rate_residency(&self) -> Vec<Vec<f64>> {
        self.cores.iter().map(|c| c.residency.clone()).collect()
    }

    /// Per-core busy seconds.
    #[must_use]
    pub fn core_busy(&self) -> Vec<f64> {
        self.cores.iter().map(|c| c.busy_time).collect()
    }

    /// Move the recorded `(time, total active watts)` step function out
    /// (empty unless [`EngineConfig::with_power_timeline`]).
    pub fn take_power_timeline(&mut self) -> Vec<(f64, f64)> {
        std::mem::take(&mut self.power_timeline)
    }
}

impl<O: EngineObserver> ExecutorView for Engine<O> {
    fn now(&self) -> f64 {
        self.now
    }

    fn num_cores(&self) -> usize {
        self.cores.len()
    }

    fn rate_table(&self, j: CoreId) -> &RateTable {
        &self.cfg.platform.cores()[j].rates
    }

    fn max_allowed_rate(&self, j: CoreId) -> RateIdx {
        self.cfg.max_allowed_rate[j]
    }

    fn current_rate(&self, j: CoreId) -> RateIdx {
        self.cores[j].rate
    }

    fn running_task(&self, j: CoreId) -> Option<TaskId> {
        self.cores[j].running.map(|slot| self.jobs[slot].record.id)
    }

    fn remaining_cycles(&self, t: TaskId) -> f64 {
        self.jobs[self.slot(t)].remaining.max(0.0)
    }

    fn set_rate(&mut self, j: CoreId, rate: RateIdx) {
        assert!(
            rate <= self.cfg.max_allowed_rate[j],
            "rate {rate} above allowed cap {} on core {j}",
            self.cfg.max_allowed_rate[j]
        );
        if self.cores[j].rate == rate {
            return;
        }
        self.sync_all();
        self.change_rate(j, rate);
    }

    fn dispatch(&mut self, j: CoreId, task: TaskId, rate: Option<RateIdx>) {
        assert!(
            self.cores[j].running.is_none(),
            "dispatch onto busy core {j}"
        );
        self.sync_all();
        let from = self.cores[j].rate;
        if let Some(r) = rate {
            assert!(
                r <= self.cfg.max_allowed_rate[j],
                "rate {r} above allowed cap on core {j}"
            );
            if r != from && self.cfg.switch_latency_s > 0.0 {
                self.cores[j].stall_until = self.now + self.cfg.switch_latency_s;
            }
            self.cores[j].rate = r;
        }
        let slot = self.slot(task);
        let job = &mut self.jobs[slot];
        assert_eq!(
            job.phase,
            JobPhase::Ready,
            "task {task} not ready for dispatch"
        );
        job.phase = JobPhase::Running;
        job.record.first_start.get_or_insert(self.now);
        let remaining = job.remaining.max(0.0);
        self.cores[j].running = Some(slot);
        let rate = self.cores[j].rate;
        let (stall, run) = self.projection(j, remaining);
        let predicted_time_s = stall + run;
        let power = self.rate_table(j).rate(rate).active_power_watts();
        self.emit(EventKind::Dispatch {
            task: task.0,
            core: j as u32,
            rate: rate as u32,
            predicted_energy_j: power * predicted_time_s,
            predicted_time_s,
        });
        self.reschedule_after_mutation(j);
    }

    fn preempt(&mut self, j: CoreId) -> TaskId {
        let slot = self.cores[j].running.expect("preempt on an idle core");
        self.sync_all();
        let job = &mut self.jobs[slot];
        job.phase = JobPhase::Ready;
        job.record.preemptions += 1;
        let tid = job.record.id;
        self.cores[j].running = None;
        self.emit(EventKind::Preempt {
            task: tid.0,
            core: j as u32,
        });
        self.reschedule_after_mutation(j);
        tid
    }

    fn trace(&mut self) -> Option<&mut dyn TraceSink> {
        self.observer.trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use super::{EngineConfig as SimConfig, Scheduler as Policy};
    use dvfs_model::{CoreSpec, TaskClass};
    use std::ops::{Deref, DerefMut};

    /// Test-local stand-in for the `dvfs_sim::Simulator` driver these
    /// tests were written against (they moved here with the engine, and
    /// `dvfs-sim` cannot be linked into this crate's own unit tests):
    /// the bare engine plus the handful of report fields they read.
    struct Simulator(Engine<Quiet>);

    /// Tracing off: observes nothing.
    type Quiet = Option<dvfs_trace::Ring>;

    struct Report {
        tasks: BTreeMap<TaskId, TaskRecord>,
        active_energy_joules: f64,
        makespan: f64,
        power_timeline: Vec<(f64, f64)>,
    }

    impl Report {
        fn total_turnaround(&self) -> f64 {
            self.tasks.values().filter_map(TaskRecord::turnaround).sum()
        }
        fn completed(&self) -> usize {
            self.tasks
                .values()
                .filter(|t| t.completion.is_some())
                .count()
        }
    }

    impl Simulator {
        fn new(cfg: SimConfig) -> Self {
            Simulator(Engine::new(cfg, None))
        }
        fn run(&mut self, policy: &mut dyn Policy) -> Report {
            self.0.run_to_completion(policy);
            Report {
                tasks: self.0.records().map(|rec| (rec.id, *rec)).collect(),
                active_energy_joules: self.0.active_energy(),
                makespan: self.0.makespan(),
                power_timeline: self.0.take_power_timeline(),
            }
        }
    }

    impl Deref for Simulator {
        type Target = Engine<Quiet>;
        fn deref(&self) -> &Self::Target {
            &self.0
        }
    }

    impl DerefMut for Simulator {
        fn deref_mut(&mut self) -> &mut Self::Target {
            &mut self.0
        }
    }

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
    fn single_task_timing_and_energy_exact() {
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        // 1.6e9 cycles at 1.6 GHz (rate 0): exactly 1 s, 5.4 J.
        sim.add_tasks(&[Task::batch(1, 1_600_000_000).unwrap()]);
        let report = sim.run(&mut Fifo::new(0));
        let rec = report.tasks[&TaskId(1)];
        assert!((rec.completion.unwrap() - 1.0).abs() < 1e-9);
        assert!((rec.energy_joules - 5.4).abs() < 1e-6);
        assert!((report.active_energy_joules - 5.4).abs() < 1e-6);
        assert!((report.makespan - 1.0).abs() < 1e-9);
        assert_eq!(report.completed(), 1);
    }

    #[test]
    fn fifo_turnarounds_accumulate() {
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        // Two 1-second tasks back to back: completions at 1 s and 2 s.
        sim.add_tasks(&[
            Task::batch(1, 1_600_000_000).unwrap(),
            Task::batch(2, 1_600_000_000).unwrap(),
        ]);
        let report = sim.run(&mut Fifo::new(0));
        assert!((report.total_turnaround() - 3.0).abs() < 1e-9);
        assert!((report.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn faster_rate_shortens_time_but_raises_energy() {
        let run_at = |rate: RateIdx| {
            let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
            sim.add_tasks(&[Task::batch(1, 3_000_000_000).unwrap()]);
            sim.run(&mut Fifo::new(rate))
        };
        let slow = run_at(0);
        let fast = run_at(4);
        assert!(fast.makespan < slow.makespan);
        assert!(fast.active_energy_joules > slow.active_energy_joules);
    }

    #[test]
    fn mid_task_rate_change_is_honored() {
        /// Dispatch at low rate, then raise to max at arrival of a
        /// sentinel second task.
        struct Switcher;
        impl Policy for Switcher {
            fn name(&self) -> String {
                "switcher".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                if task.id == TaskId(1) {
                    sim.dispatch(0, task.id, Some(0));
                } else {
                    // Sentinel arrival: crank the frequency.
                    sim.set_rate(0, 4);
                }
            }
            fn on_completion(&mut self, sim: &mut dyn ExecutorView, _c: CoreId, task: &Task) {
                if task.id == TaskId(1) {
                    sim.dispatch(0, TaskId(2), None);
                }
            }
        }
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        // Task 1: 3.2e9 cycles. At 1.6 GHz alone it would take 2 s.
        // At t=1 s (1.6e9 cycles done) we switch to the top level, whose
        // per-cycle time is T=0.33 ns (Table II), so the remaining
        // 1.6e9 cycles take 1.6e9 * 0.33 ns = 0.528 s.
        let t1 = Task::batch(1, 3_200_000_000).unwrap();
        let t2 = Task::online(2, 1_000, 1.0, None, TaskClass::Batch).unwrap();
        sim.add_tasks(&[t1, t2]);
        let report = sim.run(&mut Switcher);
        let done1 = report.tasks[&TaskId(1)].completion.unwrap();
        assert!((done1 - (1.0 + 0.528)).abs() < 1e-6, "got {done1}");
        // Energy: 1 s at 1.6 GHz power + 0.528 s at top-level power.
        let p_slow = 3.375e-9 / 0.625e-9;
        let p_fast = 7.1e-9 / 0.33e-9;
        let expect = p_slow * 1.0 + p_fast * 0.528;
        let e1 = report.tasks[&TaskId(1)].energy_joules;
        assert!((e1 - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn preemption_preserves_progress() {
        /// Runs task 1; at task 2's arrival preempts and runs task 2,
        /// then resumes task 1.
        struct Preemptor {
            resumed: Option<TaskId>,
        }
        impl Policy for Preemptor {
            fn name(&self) -> String {
                "preemptor".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                if task.id == TaskId(1) {
                    sim.dispatch(0, task.id, Some(0));
                } else {
                    let prev = sim.preempt(0);
                    self.resumed = Some(prev);
                    sim.dispatch(0, task.id, Some(4));
                }
            }
            fn on_completion(&mut self, sim: &mut dyn ExecutorView, _c: CoreId, task: &Task) {
                if task.id == TaskId(2) {
                    let prev = self.resumed.take().expect("preempted task saved");
                    sim.dispatch(0, prev, Some(0));
                }
            }
        }
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        // Task 1: 3.2e9 cycles at 1.6 GHz = 2 s if uninterrupted.
        // Task 2 arrives at t=1 (task 1 half done), runs 3e9 cycles at
        // the top level (T=0.33 ns) = 0.99 s. Task 1 resumes at t=1.99,
        // finishes remaining 1.6e9 cycles at 1.6 GHz in 1 s → t=2.99.
        sim.add_tasks(&[
            Task::batch(1, 3_200_000_000).unwrap(),
            Task::online(2, 3_000_000_000, 1.0, None, TaskClass::Interactive).unwrap(),
        ]);
        let report = sim.run(&mut Preemptor { resumed: None });
        let r1 = report.tasks[&TaskId(1)];
        let r2 = report.tasks[&TaskId(2)];
        assert!((r2.completion.unwrap() - 1.99).abs() < 1e-9);
        assert!((r1.completion.unwrap() - 2.99).abs() < 1e-9);
        assert_eq!(r1.preemptions, 1);
        assert_eq!(r2.preemptions, 0);
    }

    #[test]
    fn contention_dilates_execution_and_energy() {
        /// Dispatches task k on core k at max rate.
        struct OnePerCore;
        impl Policy for OnePerCore {
            fn name(&self) -> String {
                "one-per-core".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                let core = task.id.0 as usize;
                let max = sim.max_allowed_rate(core);
                sim.dispatch(core, task.id, Some(max));
            }
            fn on_completion(&mut self, _s: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {}
        }
        let platform = Platform::i7_950_quad();
        let tasks: Vec<Task> = (0..4)
            .map(|i| Task::batch(i, 3_000_000_000).unwrap())
            .collect();

        let mut ideal = Simulator::new(SimConfig::new(platform.clone()));
        ideal.add_tasks(&tasks);
        let ideal_report = ideal.run(&mut OnePerCore);

        let mut contended =
            Simulator::new(SimConfig::new(platform).with_contention(Box::new(|busy| {
                if busy <= 1 {
                    1.0
                } else {
                    1.0 / (1.0 + 0.04 * (busy as f64 - 1.0))
                }
            })));
        contended.add_tasks(&tasks);
        let contended_report = contended.run(&mut OnePerCore);

        // 4 busy cores → factor 1/1.12: makespan stretches ~12%.
        let ideal_span = 3.0e9 * 0.33e-9; // T(p_max) = 0.33 ns
        assert!((ideal_report.makespan - ideal_span).abs() < 1e-9);
        let ratio = contended_report.makespan / ideal_report.makespan;
        assert!(ratio > 1.11 && ratio < 1.13, "got ratio {ratio}");
        assert!(contended_report.active_energy_joules > ideal_report.active_energy_joules * 1.11);
    }

    #[test]
    fn ondemand_governor_ramps_up_under_load() {
        /// Dispatches everything on core 0 FIFO *without* setting rates,
        /// leaving frequency to the governor.
        struct GovFifo {
            queue: std::collections::VecDeque<TaskId>,
        }
        impl Policy for GovFifo {
            fn name(&self) -> String {
                "gov-fifo".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                self.queue.push_back(task.id);
                if sim.is_idle(0) {
                    let next = self.queue.pop_front().expect("just pushed");
                    sim.dispatch(0, next, None);
                }
            }
            fn on_completion(&mut self, sim: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {
                if let Some(next) = self.queue.pop_front() {
                    sim.dispatch(0, next, None);
                }
            }
        }
        let platform = single_core_platform();
        let cfg = SimConfig::new(platform).with_governor(GovernorKind::ondemand_paper());
        let mut sim = Simulator::new(cfg);
        // 16e9 cycles: at 1.6 GHz would take 10 s; the governor ramps to
        // 3.0 GHz after the first 1 s tick, so the run must finish in
        // well under 10 s but more than the 3 GHz-only 5.33 s.
        sim.add_tasks(&[Task::batch(1, 16_000_000_000).unwrap()]);
        let report = sim.run(&mut GovFifo {
            queue: Default::default(),
        });
        let t = report.makespan;
        assert!(t > 5.3 && t < 6.5, "governor ramp produced makespan {t}");
    }

    #[test]
    fn power_saving_cap_limits_frequency() {
        struct MaxFifo;
        impl Policy for MaxFifo {
            fn name(&self) -> String {
                "max-fifo".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                let cap = sim.max_allowed_rate(0);
                sim.dispatch(0, task.id, Some(cap));
            }
            fn on_completion(&mut self, _s: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {}
        }
        let cfg = SimConfig::new(single_core_platform()).with_rate_cap(2);
        let mut sim = Simulator::new(cfg);
        // 2.4e9 cycles at the capped 2.4 GHz finish in exactly 1 s ×
        // T(2.4 GHz)=0.42ns/cycle → 1.008 s (Table II rounding).
        sim.add_tasks(&[Task::batch(1, 2_400_000_000).unwrap()]);
        let report = sim.run(&mut MaxFifo);
        assert!((report.makespan - 2.4e9 * 0.42e-9).abs() < 1e-9);
    }

    #[test]
    fn power_timeline_records_step_changes() {
        let cfg = SimConfig::new(single_core_platform()).with_power_timeline();
        let mut sim = Simulator::new(cfg);
        sim.add_tasks(&[Task::batch(1, 1_600_000_000).unwrap()]);
        let report = sim.run(&mut Fifo::new(0));
        assert!(!report.power_timeline.is_empty());
        // First point: dispatch at t=0 with 1.6 GHz power.
        let (t0, w0) = report.power_timeline[0];
        assert_eq!(t0, 0.0);
        assert!((w0 - 3.375 / 0.625).abs() < 1e-9);
        // Last point: completion back to 0 W.
        let (_, wlast) = *report.power_timeline.last().unwrap();
        assert_eq!(wlast, 0.0);
    }

    #[test]
    fn switch_latency_stalls_execution() {
        // Same Switcher scenario as mid_task_rate_change_is_honored, but
        // with a 10 ms transition latency: the completion shifts by
        // exactly that stall.
        struct Switcher;
        impl Policy for Switcher {
            fn name(&self) -> String {
                "switcher".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                if task.id == TaskId(1) {
                    sim.dispatch(0, task.id, Some(0));
                } else {
                    sim.set_rate(0, 4);
                }
            }
            fn on_completion(&mut self, sim: &mut dyn ExecutorView, _c: CoreId, task: &Task) {
                if task.id == TaskId(1) {
                    sim.dispatch(0, TaskId(2), None);
                }
            }
        }
        let cfg = SimConfig::new(single_core_platform()).with_switch_latency(0.010);
        let mut sim = Simulator::new(cfg);
        let t1 = Task::batch(1, 3_200_000_000).unwrap();
        let t2 = Task::online(2, 1_000, 1.0, None, TaskClass::Batch).unwrap();
        sim.add_tasks(&[t1, t2]);
        let report = sim.run(&mut Switcher);
        let done1 = report.tasks[&TaskId(1)].completion.unwrap();
        // Without latency: 1.0 + 0.528 (see the sibling test); the
        // 10 ms stall adds exactly on top.
        assert!((done1 - (1.0 + 0.010 + 0.528)).abs() < 1e-6, "got {done1}");
        // Energy includes the stall at the new rate's active power.
        let p_slow = 3.375e-9 / 0.625e-9;
        let p_fast = 7.1e-9 / 0.33e-9;
        let expect = p_slow * 1.0 + p_fast * (0.528 + 0.010);
        let e1 = report.tasks[&TaskId(1)].energy_joules;
        assert!(
            (e1 - expect).abs() / expect < 1e-6,
            "energy {e1} vs {expect}"
        );
    }

    #[test]
    fn zero_latency_dispatch_rate_change_costs_nothing() {
        let cfg = SimConfig::new(single_core_platform()).with_switch_latency(0.0);
        let mut sim = Simulator::new(cfg);
        sim.add_tasks(&[Task::batch(1, 3_000_000_000).unwrap()]);
        let report = sim.run(&mut Fifo::new(4)); // dispatch switches 0 → 4
        assert!((report.makespan - 3.0e9 * 0.33e-9).abs() < 1e-9);
    }

    #[test]
    fn dispatch_rate_change_also_stalls() {
        let cfg = SimConfig::new(single_core_platform()).with_switch_latency(0.025);
        let mut sim = Simulator::new(cfg);
        sim.add_tasks(&[Task::batch(1, 3_000_000_000).unwrap()]);
        let report = sim.run(&mut Fifo::new(4));
        assert!(
            (report.makespan - (0.025 + 3.0e9 * 0.33e-9)).abs() < 1e-9,
            "got {}",
            report.makespan
        );
    }

    #[test]
    #[should_panic(expected = "above allowed cap")]
    fn set_rate_above_cap_panics() {
        struct Overclocker;
        impl Policy for Overclocker {
            fn name(&self) -> String {
                "overclocker".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                sim.dispatch(0, task.id, Some(2));
                sim.set_rate(0, 4); // cap is 2
            }
            fn on_completion(&mut self, _s: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {}
        }
        let cfg = SimConfig::new(single_core_platform()).with_rate_cap(2);
        let mut sim = Simulator::new(cfg);
        sim.add_tasks(&[Task::batch(1, 1_000_000).unwrap()]);
        sim.run(&mut Overclocker);
    }

    #[test]
    #[should_panic(expected = "preempt on an idle core")]
    fn preempt_idle_core_panics() {
        struct BadPreemptor;
        impl Policy for BadPreemptor {
            fn name(&self) -> String {
                "bad".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                let _ = sim.preempt(0);
                sim.dispatch(0, task.id, None);
            }
            fn on_completion(&mut self, _s: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {}
        }
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        sim.add_tasks(&[Task::batch(1, 1_000_000).unwrap()]);
        sim.run(&mut BadPreemptor);
    }

    #[test]
    fn contention_and_switch_latency_compose() {
        // Both features on at once: a 2-core platform, two tasks, one
        // rate switch each; timings must include both effects without
        // the accounting drifting.
        struct PerCore;
        impl Policy for PerCore {
            fn name(&self) -> String {
                "per-core".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                let core = task.id.0 as usize;
                sim.dispatch(core, task.id, Some(4));
            }
            fn on_completion(&mut self, _s: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {}
        }
        let platform =
            Platform::homogeneous(2, dvfs_model::CoreSpec::new(RateTable::i7_950_table2()))
                .unwrap();
        let cfg = SimConfig::new(platform)
            .with_contention(Box::new(|busy| if busy <= 1 { 1.0 } else { 0.5 }))
            .with_switch_latency(0.1);
        let mut sim = Simulator::new(cfg);
        sim.add_tasks(&[
            Task::batch(0, 3_000_000_000).unwrap(),
            Task::batch(1, 3_000_000_000).unwrap(),
        ]);
        let report = sim.run(&mut PerCore);
        assert_eq!(report.completed(), 2);
        // Each task: 0.1 s stall + 0.99 s of work at half speed while
        // both run. Both dispatched at t=0, both stalled to 0.1, then
        // run together at factor 0.5: 0.99/0.5 = 1.98 s → finish ~2.08.
        assert!(
            (report.makespan - 2.08).abs() < 1e-6,
            "makespan {}",
            report.makespan
        );
        // Energy conservation still holds.
        let task_energy: f64 = report.tasks.values().map(|t| t.energy_joules).sum();
        assert!((task_energy - report.active_energy_joules).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "failed to dispatch")]
    fn undelivered_tasks_panic() {
        struct Lazy;
        impl Policy for Lazy {
            fn name(&self) -> String {
                "lazy".into()
            }
            fn on_arrival(&mut self, _s: &mut dyn ExecutorView, _t: &Task) {}
            fn on_completion(&mut self, _s: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {}
        }
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        sim.add_tasks(&[Task::batch(1, 100).unwrap()]);
        sim.run(&mut Lazy);
    }

    #[test]
    fn incremental_stepping_matches_batch_run() {
        // Batch reference: both tasks known upfront.
        let mut batch = Simulator::new(SimConfig::new(single_core_platform()));
        batch.add_tasks(&[
            Task::batch(1, 1_600_000_000).unwrap(),
            Task::batch(2, 1_600_000_000).unwrap(),
        ]);
        let want = batch.run(&mut Fifo::new(0));

        // Incremental: push the same tasks mid-run, step in small
        // slices, then drain.
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        let mut policy = Fifo::new(0);
        sim.push_task(&Task::batch(1, 1_600_000_000).unwrap());
        sim.step_until(&mut policy, 0.5);
        assert_eq!(sim.pending_tasks(), 1);
        assert_eq!(sim.completed_records().count(), 0);
        sim.push_task(&Task::batch(2, 1_600_000_000).unwrap());
        sim.step_until(&mut policy, 1.5);
        let first: Vec<TaskRecord> = sim.completed_records().collect();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].id, TaskId(1));
        assert!((first[0].completion.unwrap() - 1.0).abs() < 1e-9);
        let got = sim.run(&mut policy);
        assert!((got.makespan - want.makespan).abs() < 1e-9);
        assert!((got.active_energy_joules - want.active_energy_joules).abs() < 1e-9);
        for (id, rec) in &want.tasks {
            let g = got.tasks[id];
            assert!((g.completion.unwrap() - rec.completion.unwrap()).abs() < 1e-9);
            assert!((g.energy_joules - rec.energy_joules).abs() < 1e-9);
        }
    }

    #[test]
    fn step_until_advances_clock_when_idle() {
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        let mut policy = Fifo::new(0);
        sim.step_until(&mut policy, 2.5);
        assert!((sim.now() - 2.5).abs() < 1e-12);
        assert_eq!(sim.pending_tasks(), 0);
        // A task pushed after idle time arrives at the current clock.
        sim.push_task(&Task::batch(1, 1_600_000_000).unwrap());
        sim.step_until(&mut policy, 4.0);
        let done: Vec<TaskRecord> = sim.completed_records().collect();
        assert_eq!(done.len(), 1);
        assert!((done[0].completion.unwrap() - 3.5).abs() < 1e-9);
        assert!((done[0].arrival - 2.5).abs() < 1e-12);
    }

    #[test]
    fn retired_completions_leave_the_engine() {
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        let mut policy = Fifo::new(0);
        for id in 1..=3 {
            sim.push_task(&Task::batch(id, 1_600_000_000).unwrap());
        }
        sim.step_until(&mut policy, 1.5);
        // One done and retired, then a second: each retire yields what
        // completed since the last, and removes it.
        assert_eq!(sim.retire_completions()[0].id, TaskId(1));
        assert_eq!(sim.completion_slots(), &[] as &[usize]);
        sim.step_until(&mut policy, 2.5);
        assert_eq!(sim.completion_slots().len(), 1);
        let retired = sim.retire_completions();
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].id, TaskId(2));
        assert_eq!(sim.records().count(), 1, "only task 3 is resident");
        assert_eq!(sim.pending_tasks(), 1);
        assert!(sim.retire_completions().is_empty());
        // The rest of the round is unaffected.
        sim.run_to_completion(&mut policy);
        assert_eq!(sim.completed_records().count(), 1);
        assert!((sim.makespan() - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "duplicate task id")]
    fn push_task_rejects_duplicate_ids() {
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        sim.push_task(&Task::batch(1, 100).unwrap());
        sim.push_task(&Task::batch(1, 100).unwrap());
    }

    /// Ids of the records the engine still holds, in [`Engine::records`] order.
    fn resident_ids(sim: &Simulator) -> Vec<u64> {
        sim.records().map(|rec| rec.id.0).collect()
    }

    #[test]
    fn stolen_and_retired_slots_are_reused_and_reports_stay_in_id_order() {
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        let mut policy = Fifo::new(0);
        // One second each at rate 0: 10 runs first, the rest wait.
        for id in [40, 10, 30, 20] {
            sim.push_task(&Task::batch(id, 1_600_000_000).unwrap());
        }
        sim.step_until(&mut policy, 0.5);
        assert_eq!((sim.pending_tasks(), sim.queued_tasks()), (4, 3));
        // Steal 30: only a ready task leaves, and the policy forgets it.
        assert!(sim.remove_ready(TaskId(40)).is_none(), "40 is running");
        assert!(sim.remove_ready(TaskId(99)).is_none(), "99 is unknown");
        assert_eq!(sim.remove_ready(TaskId(30)).unwrap().id, TaskId(30));
        assert!(sim.remove_ready(TaskId(30)).is_none(), "30 already left");
        policy.queue.retain(|&t| t != TaskId(30));
        assert_eq!((sim.pending_tasks(), sim.queued_tasks()), (3, 2));
        assert_eq!(resident_ids(&sim), [10, 20, 40]);
        // 40 and 10 finish; 20 runs.
        sim.step_until(&mut policy, 2.5);
        let retired: Vec<u64> = sim.retire_completions().iter().map(|r| r.id.0).collect();
        assert_eq!(retired, [40, 10]);
        assert_eq!((sim.pending_tasks(), sim.queued_tasks()), (1, 0));
        assert_eq!(resident_ids(&sim), [20]);
        // Three new tasks fill the three freed slots; the slab stays
        // at its peak of four.
        for id in [35, 5, 25] {
            sim.push_task(&Task::batch(id, 1_600_000_000).unwrap());
        }
        assert_eq!(sim.jobs.len(), 4);
        assert_eq!(resident_ids(&sim), [5, 20, 25, 35]);
        assert_eq!((sim.pending_tasks(), sim.queued_tasks()), (4, 3));
        // A retired id may come back; it takes a fresh slot.
        sim.push_task(&Task::batch(10, 1_600_000_000).unwrap());
        assert_eq!(sim.jobs.len(), 5);
        assert_eq!(resident_ids(&sim), [5, 10, 20, 25, 35]);
        sim.run_to_completion(&mut policy);
        let order: Vec<u64> = sim.completed_records().map(|r| r.id.0).collect();
        assert_eq!(order, [20, 35, 5, 25, 10]);
        assert_eq!((sim.pending_tasks(), sim.queued_tasks()), (0, 0));
        assert!((sim.makespan() - 7.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "duplicate task id j2")]
    fn duplicate_id_on_a_reused_slot_still_panics() {
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        sim.push_task(&Task::batch(1, 100).unwrap());
        sim.run_to_completion(&mut Fifo::new(0));
        assert_eq!(sim.retire_completions().len(), 1);
        // 2 takes the slot 1 left, and is guarded like any other id.
        sim.push_task(&Task::batch(2, 100).unwrap());
        assert_eq!(sim.jobs.len(), 1);
        sim.push_task(&Task::batch(2, 100).unwrap());
    }

    #[test]
    fn paced_waves_keep_the_slab_at_the_peak_in_flight() {
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        let mut policy = Fifo::new(0);
        let (mut next_id, mut peak, mut completed) = (0, 0, 0);
        for wave in 0..100 {
            // 0.2 s tasks, 1 to 5 a wave, 3 a wave's worth of time: the
            // backlog rises and falls.
            for _ in 0..=wave % 5 {
                sim.push_task(&Task::batch(next_id, 320_000_000).unwrap());
                next_id += 1;
            }
            peak = peak.max(sim.pending_tasks());
            sim.step_until(&mut policy, 0.6 * f64::from(wave + 1));
            completed += sim.retire_completions().len();
            assert_eq!(completed + sim.pending_tasks(), next_id as usize);
            let ids = resident_ids(&sim);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "records in id order");
        }
        assert!(peak > 5, "the backlog carried over between waves");
        assert!(
            sim.jobs.len() <= peak,
            "slab of {} for a peak of {peak} in flight",
            sim.jobs.len()
        );
        sim.run_to_completion(&mut policy);
        completed += sim.retire_completions().len();
        assert_eq!(completed, next_id as usize);
    }

    #[test]
    #[should_panic(expected = "dispatch onto busy core")]
    fn double_dispatch_panics() {
        struct Doubler;
        impl Policy for Doubler {
            fn name(&self) -> String {
                "doubler".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                sim.dispatch(0, task.id, Some(0));
            }
            fn on_completion(&mut self, _s: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {}
        }
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        sim.add_tasks(&[
            Task::batch(1, 1_600_000_000).unwrap(),
            Task::batch(2, 1_600_000_000).unwrap(),
        ]);
        sim.run(&mut Doubler);
    }

    /// Records every engine event it is handed, and writes the trace
    /// the way both drivers' observers do: through an optional sink.
    struct Recorder(Vec<(f64, EventKind)>, Option<dvfs_trace::Ring>);

    impl EngineObserver for Recorder {
        fn on_event(&mut self, time: f64, event: EventKind) {
            self.0.push((time, event.clone()));
            self.1.on_event(time, event);
        }
    }

    #[test]
    fn every_rate_mutation_reaches_the_observer_exactly_once() {
        /// Task 1 dispatches with a rate (0 -> 2); sentinel task 2
        /// arrives mid-flight and `set_rate`s the busy core twice, the
        /// second time to the rate it already holds.
        struct Mutator;
        impl Policy for Mutator {
            fn name(&self) -> String {
                "mutator".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                if task.id == TaskId(1) {
                    sim.dispatch(0, task.id, Some(2));
                } else {
                    sim.set_rate(0, 1);
                    sim.set_rate(0, 1); // no-op: must not be reported
                }
            }
            fn on_completion(&mut self, sim: &mut dyn ExecutorView, _c: CoreId, task: &Task) {
                if task.id == TaskId(1) {
                    sim.dispatch(0, TaskId(2), None); // rate untouched
                }
            }
        }
        // An `ondemand` core: the first 1 s tick sees load 1.0 and jumps
        // to the top rate, the third source of rate mutations.
        let cfg =
            SimConfig::new(single_core_platform()).with_governor(GovernorKind::ondemand_paper());
        let recorder = Recorder(Vec::new(), Some(dvfs_trace::Ring::new(0, usize::MAX)));
        let mut engine = Engine::new(cfg, recorder);
        engine.add_tasks(&[
            Task::batch(1, 4_000_000_000).unwrap(),
            Task::online(2, 1_000, 0.5, None, TaskClass::Batch).unwrap(),
        ]);
        engine.run_to_completion(&mut Mutator);

        // Every event that carries a rate, as `(time, core, from, rate)`:
        // what a frequency actuator would be asked to write. A dispatch
        // carries no `from`; a rate change names the rate it left.
        let writes: Vec<(f64, u32, Option<u32>, u32)> = (engine.observer.0.iter())
            .filter_map(|(t, ev)| match *ev {
                EventKind::Dispatch { core, rate, .. } => Some((*t, core, None, rate)),
                EventKind::RateChange { core, from, to } => Some((*t, core, Some(from), to)),
                _ => None,
            })
            .collect();
        let done1 = engine.records().next().unwrap().completion.unwrap();
        assert_eq!(
            writes,
            vec![
                (0.0, 0, None, 2),    // dispatch-with-rate, not also a RateChange
                (0.5, 0, Some(2), 1), // effective set_rate (its repeat is silent)
                (1.0, 0, Some(1), 4), // governor tick
                (done1, 0, None, 4),  // dispatch without a rate reports the held one
            ]
        );
        // The engine's own view agrees with the last write.
        assert_eq!(engine.current_rate(0), 4);
        // And each lifecycle transition was reported exactly once too.
        let names: Vec<&str> = (engine.observer.0.iter()).map(|(_, e)| e.name()).collect();
        assert_eq!(
            names,
            [
                "dispatch",
                "rate_change",
                "rate_change",
                "complete",
                "dispatch",
                "complete"
            ]
        );
        // The trace holds exactly the events the observer was handed, in
        // order, at their times: nothing reaches it a second way.
        let lines: Vec<(f64, EventKind)> = (engine.observer.1.take())
            .expect("recording")
            .drain()
            .into_iter()
            .map(|line| (line.time, line.kind))
            .collect();
        assert_eq!(lines, engine.observer.0);
    }
}
