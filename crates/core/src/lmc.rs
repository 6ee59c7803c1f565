//! The Least Marginal Cost online scheduling policy (Section IV).
//!
//! Every core keeps a queue of non-interactive tasks in non-decreasing
//! cycle order (the optimal order of Theorem 3), maintained by a
//! [`CostLedger`] so insertion position, per-position rates, and the
//! queue's total cost are all dynamic.
//!
//! * **Interactive arrival** — the task must finish as soon as possible:
//!   pick the core minimizing the marginal cost of Equation 27,
//!   `C^M_j = Re·L·E_j(p_m) + Rt·L·T_j(p_m) + Rt·L·T_j(p_m)·N_j`,
//!   preempt any non-interactive task running there, and run the
//!   interactive task at the core's maximum frequency. The preempted task
//!   resumes once the interactive backlog drains.
//! * **Non-interactive arrival** — tentatively insert into each core's
//!   ledger and keep the insertion with the least marginal cost; the
//!   running non-interactive task's frequency is re-derived from its new
//!   backward position (`N_waiting + 1`), since per-core DVFS may adjust
//!   rates mid-task in the online mode.
//! * **Dispatch** — interactive FIFO first, then the suspended
//!   non-interactive task, then the shortest queued task, each at the
//!   rate its backward position dominates.

use crate::ledger::CostLedger;
use crate::sched::{ExecutorView, Scheduler};
use dvfs_model::{CoreId, CostParams, Platform, RateIdx, Task, TaskClass, TaskId};
use dvfs_ostree::Handle;
use dvfs_trace::EventKind;
use std::collections::{BTreeMap, VecDeque};

struct CoreQueue {
    ledger: CostLedger,
    by_handle: BTreeMap<Handle, TaskId>,
    interactive: VecDeque<TaskId>,
    suspended: Option<TaskId>,
    /// Class of the task the policy last dispatched on this core.
    running: Option<(TaskId, TaskClass)>,
}

impl CoreQueue {
    /// Non-interactive tasks waiting on this core (`N_j` in Equation 27).
    fn n_waiting(&self) -> usize {
        self.ledger.len() + usize::from(self.suspended.is_some())
    }
}

/// How interactive tasks pick their core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InteractivePlacement {
    /// Equation 27: least marginal cost, weighing the core's rate table
    /// and its queue length. The paper's rule.
    #[default]
    MarginalCost,
    /// Least `N_j` (waiting non-interactive tasks), ties to the lowest
    /// core index. The paper notes Equation 27 degenerates to this on
    /// homogeneous cores.
    LeastQueue,
    /// Round-robin, ignoring all state — the naive control.
    RoundRobin,
}

/// A placement decision's provenance, handed to
/// [`LeastMarginalCost::record_enqueue`]: the winning core and queue
/// position, the rate the cost was evaluated at, the per-core Eq. 27
/// marginal costs that were compared, and the `Rt`-weighted waiting
/// share of the winning delta.
struct EnqueueChoice {
    best: CoreId,
    position: u64,
    rate: RateIdx,
    costs: Vec<f64>,
    wait_delta: f64,
}

/// The Least Marginal Cost policy. Construct once per simulation run.
pub struct LeastMarginalCost {
    params: CostParams,
    cores: Vec<CoreQueue>,
    placement: InteractivePlacement,
    rr_next: usize,
    /// The per-core Eq. 27 costs of the arrival being placed: filled
    /// once, read by the argmin and then handed to the trace, if there
    /// is one. Kept across arrivals so the untraced path never
    /// allocates.
    costs: Vec<f64>,
}

/// The core with the least cost, ties to the lower index.
fn least(costs: &[f64]) -> CoreId {
    (0..costs.len())
        .min_by(|&a, &b| costs[a].partial_cmp(&costs[b]).expect("finite costs"))
        .expect("platform has cores")
}

impl LeastMarginalCost {
    /// Build the policy for a platform under the given cost parameters.
    #[must_use]
    pub fn new(platform: &Platform, params: CostParams) -> Self {
        let cores = platform
            .cores()
            .iter()
            .map(|c| CoreQueue {
                ledger: CostLedger::new(&c.rates, params),
                by_handle: BTreeMap::new(),
                interactive: VecDeque::new(),
                suspended: None,
                running: None,
            })
            .collect();
        LeastMarginalCost {
            params,
            cores,
            placement: InteractivePlacement::default(),
            rr_next: 0,
            costs: Vec::new(),
        }
    }

    /// Override the interactive-placement rule (ablation support).
    #[must_use]
    pub fn with_interactive_placement(mut self, placement: InteractivePlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Equation 27: marginal cost of running an interactive task with
    /// `cycles` cycles on core `j` at its maximum frequency.
    fn interactive_marginal_cost(&self, sim: &dyn ExecutorView, j: CoreId, cycles: u64) -> f64 {
        let table = sim.rate_table(j);
        let pm = sim.max_allowed_rate(j);
        let r = table.rate(pm);
        let l = cycles as f64;
        let nj = self.cores[j].n_waiting() as f64;
        self.params.re * l * r.energy_per_cycle
            + self.params.rt * l * r.time_per_cycle
            + self.params.rt * l * r.time_per_cycle * nj
    }

    /// Rate for the task that is (or is about to be) running on core `j`,
    /// from its backward position `N_waiting_in_ledger + 1`.
    fn running_rate(&self, sim: &dyn ExecutorView, j: CoreId) -> RateIdx {
        let kb = self.cores[j].ledger.len() as u64 + 1;
        self.cores[j]
            .ledger
            .rate_at(kb)
            .min(sim.max_allowed_rate(j))
    }

    /// Dispatch the next unit of work on an idle core, if any.
    fn dispatch_next(&mut self, sim: &mut dyn ExecutorView, j: CoreId) {
        debug_assert!(sim.is_idle(j));
        if let Some(tid) = self.cores[j].interactive.pop_front() {
            let pm = sim.max_allowed_rate(j);
            sim.dispatch(j, tid, Some(pm));
            self.cores[j].running = Some((tid, TaskClass::Interactive));
            return;
        }
        if let Some(tid) = self.cores[j].suspended.take() {
            let rate = self.running_rate(sim, j);
            sim.dispatch(j, tid, Some(rate));
            self.cores[j].running = Some((tid, TaskClass::NonInteractive));
            return;
        }
        if let Some(h) = self.cores[j].ledger.peek_next_dispatch() {
            let tid = self.cores[j]
                .by_handle
                .remove(&h)
                .expect("ledger handle maps to a task");
            self.cores[j].ledger.remove(h);
            let rate = self.running_rate(sim, j);
            sim.dispatch(j, tid, Some(rate));
            self.cores[j].running = Some((tid, TaskClass::NonInteractive));
            return;
        }
        self.cores[j].running = None;
    }

    /// Record the placement decision's provenance: the per-core costs
    /// that were compared, the chosen core/position, and the Eq. 27
    /// deltas split into the `Re`-weighted energy term and the
    /// `Rt`-weighted waiting terms. Reads pre-action state, so it must
    /// run before the queues mutate.
    fn record_enqueue(&self, sim: &mut dyn ExecutorView, task: &Task, choice: EnqueueChoice) {
        let EnqueueChoice {
            best,
            position,
            rate,
            costs,
            wait_delta,
        } = choice;
        let r = sim.rate_table(best).rate(rate);
        let l = task.cycles as f64;
        let energy_delta = self.params.re * l * r.energy_per_cycle;
        let now = sim.now();
        if let Some(tr) = sim.trace() {
            tr.record(
                now,
                EventKind::Enqueue {
                    task: task.id.0,
                    core: best as u32,
                    position,
                    costs,
                    energy_delta,
                    wait_delta,
                },
            );
        }
    }

    /// Sum of every core's Equation 32 queued-cost total — the
    /// marginal-cost summary a shard publishes so a cross-shard
    /// rebalancer can compare hot and cold queues without walking them.
    #[must_use]
    pub fn queued_cost(&self) -> f64 {
        self.cores.iter().map(|c| c.ledger.total_cost()).sum()
    }

    /// Non-interactive tasks resident in the per-core ledgers — the
    /// stealable population. Excludes interactive FIFOs, suspended
    /// tasks, and running tasks, none of which migrate.
    #[must_use]
    pub fn stealable_tasks(&self) -> usize {
        self.cores.iter().map(|c| c.ledger.len()).sum()
    }

    /// Remove up to `max` queued non-interactive tasks from the
    /// ledgers, longest-cycles first (Algorithm 6 deletes, `O(|P̂| +
    /// log N)` each), returning their ids in removal order. Longest
    /// first because Theorem 3 runs long tasks last: they have waited
    /// the least, so moving them forfeits the least progress toward
    /// dispatch. Ties break to the smaller task id, then the lower
    /// core, so the pick is deterministic. Each removal shrinks a
    /// queue, so the running non-interactive task's backward position
    /// moves and its rate is re-derived — the exact mirror of the
    /// insert path. The caller owns the other half of the migration:
    /// removing the same tasks from its executor.
    pub fn steal_longest(&mut self, sim: &mut dyn ExecutorView, max: usize) -> Vec<TaskId> {
        let mut out = Vec::new();
        for _ in 0..max {
            let mut pick: Option<(u64, TaskId, CoreId, Handle)> = None;
            for (j, core) in self.cores.iter().enumerate() {
                for (&h, &tid) in &core.by_handle {
                    let cycles = core.ledger.cycles(h);
                    let better = match pick {
                        None => true,
                        Some((c, t, _, _)) => cycles > c || (cycles == c && tid < t),
                    };
                    if better {
                        pick = Some((cycles, tid, j, h));
                    }
                }
            }
            let Some((_, tid, j, h)) = pick else { break };
            self.cores[j].ledger.remove(h);
            self.cores[j].by_handle.remove(&h);
            if matches!(self.cores[j].running, Some((_, TaskClass::NonInteractive))) {
                let rate = self.running_rate(sim, j);
                sim.set_rate(j, rate);
            }
            out.push(tid);
        }
        out
    }

    fn handle_interactive(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
        let tracing = sim.trace().is_some();
        self.costs.clear();
        let best = match self.placement {
            InteractivePlacement::MarginalCost => {
                for j in 0..self.cores.len() {
                    let cost = self.interactive_marginal_cost(sim, j, task.cycles);
                    self.costs.push(cost);
                }
                least(&self.costs)
            }
            InteractivePlacement::LeastQueue => (0..self.cores.len())
                .min_by_key(|&j| (self.cores[j].n_waiting(), j))
                .expect("platform has cores"),
            InteractivePlacement::RoundRobin => {
                let j = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.cores.len();
                j
            }
        };
        if tracing {
            // Interactive work joins the FIFO (position 0) and runs at
            // the core's maximum frequency; the waiting delta is the
            // `Rt·L·T(p_m)·(1 + N_j)` remainder of Eq. 27, term for
            // term.
            let pm = sim.max_allowed_rate(best);
            let r = sim.rate_table(best).rate(pm);
            let l = task.cycles as f64;
            let nj = self.cores[best].n_waiting() as f64;
            let wait_delta =
                self.params.rt * l * r.time_per_cycle + self.params.rt * l * r.time_per_cycle * nj;
            let costs = std::mem::take(&mut self.costs);
            self.record_enqueue(
                sim,
                task,
                EnqueueChoice {
                    best,
                    position: 0,
                    rate: pm,
                    costs,
                    wait_delta,
                },
            );
        }
        match self.cores[best].running {
            None => {
                debug_assert!(sim.is_idle(best));
                let pm = sim.max_allowed_rate(best);
                sim.dispatch(best, task.id, Some(pm));
                self.cores[best].running = Some((task.id, TaskClass::Interactive));
            }
            Some((_, TaskClass::Interactive)) => {
                // Already serving an interactive task; FIFO behind it.
                self.cores[best].interactive.push_back(task.id);
            }
            Some((running_tid, _)) => {
                // Preempt the lower-priority task (Section IV).
                let preempted = sim.preempt(best);
                debug_assert_eq!(preempted, running_tid);
                debug_assert!(self.cores[best].suspended.is_none());
                self.cores[best].suspended = Some(preempted);
                let pm = sim.max_allowed_rate(best);
                sim.dispatch(best, task.id, Some(pm));
                self.cores[best].running = Some((task.id, TaskClass::Interactive));
            }
        }
    }

    fn handle_non_interactive(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
        let tracing = sim.trace().is_some();
        self.costs.clear();
        for core in &mut self.cores {
            // A query: the ledger is left as it was found.
            self.costs
                .push(core.ledger.marginal_insert_cost(task.cycles));
        }
        let best = least(&self.costs);
        let h = self.cores[best].ledger.insert(task.cycles);
        self.cores[best].by_handle.insert(h, task.id);
        if tracing {
            // Theorem-3 backward position of the fresh insertion and
            // the rate that position dominates; the waiting delta is
            // whatever remains of the measured marginal cost after the
            // `Re·L·E(p_k)` energy term.
            let position = self.cores[best].ledger.backward_position(h);
            let rate = self.cores[best]
                .ledger
                .rate_at(position)
                .min(sim.max_allowed_rate(best));
            let total = self.costs[best];
            let r = sim.rate_table(best).rate(rate);
            let energy_delta = self.params.re * task.cycles as f64 * r.energy_per_cycle;
            let costs = std::mem::take(&mut self.costs);
            self.record_enqueue(
                sim,
                task,
                EnqueueChoice {
                    best,
                    position,
                    rate,
                    costs,
                    wait_delta: total - energy_delta,
                },
            );
        }
        match self.cores[best].running {
            None => {
                debug_assert!(sim.is_idle(best));
                self.dispatch_next(sim, best);
            }
            Some((_, TaskClass::NonInteractive)) => {
                // The queue grew: the running task's backward position
                // moved, so re-derive its rate (online-mode DVFS).
                let rate = self.running_rate(sim, best);
                sim.set_rate(best, rate);
            }
            Some((_, _)) => {} // interactive running at p_m; leave it
        }
    }
}

impl Scheduler for LeastMarginalCost {
    fn name(&self) -> String {
        "least-marginal-cost".into()
    }

    fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
        match task.class {
            TaskClass::Interactive => self.handle_interactive(sim, task),
            // Batch tasks entering an online system are treated as
            // non-interactive work.
            TaskClass::NonInteractive | TaskClass::Batch => {
                self.handle_non_interactive(sim, task);
            }
        }
    }

    fn on_completion(&mut self, sim: &mut dyn ExecutorView, core: CoreId, task: &Task) {
        debug_assert_eq!(self.cores[core].running.map(|(t, _)| t), Some(task.id));
        self.cores[core].running = None;
        self.dispatch_next(sim, core);
    }
}
