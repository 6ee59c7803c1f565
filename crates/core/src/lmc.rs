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
//! * **Non-interactive arrival** — ask each core's ledger what the task
//!   would add to its queue's cost (a read-only query; no ledger is
//!   touched) and insert into the one that answers least; the running
//!   non-interactive task's frequency is re-derived from its new
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
use std::cmp::Reverse;
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

    /// Every core's ledger, ascending core order.
    pub fn ledgers(&self) -> impl Iterator<Item = &CostLedger> + '_ {
        self.cores.iter().map(|c| &c.ledger)
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
            // Each ledger knows its longest task (backward position 1);
            // only a run of equal cycle counts needs the id compared.
            let pick = self
                .cores
                .iter()
                .enumerate()
                .flat_map(|(j, core)| {
                    core.ledger.longest_run().map(move |h| {
                        let tid = *core
                            .by_handle
                            .get(&h)
                            .expect("ledger handle maps to a task");
                        (Reverse(core.ledger.cycles(h)), tid, j, h)
                    })
                })
                .min();
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
        for core in &self.cores {
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

#[cfg(test)]
mod tests {
    //! The differential between the marginal-cost query and the
    //! insert/read/remove probe it replaced, run through the engine.
    use super::*;
    use crate::sched::conformance::mixed_trace;
    use crate::sched::engine::{Engine, EngineConfig, EngineEvent, EngineObserver};
    use dvfs_model::{CoreSpec, RateTable};
    use dvfs_workloads::JudgeTraceConfig;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    struct Quiet;

    impl EngineObserver for Quiet {
        fn on_event(&mut self, _time: f64, _event: EngineEvent) {}
    }

    /// An arrival the two probes would have sent to different cores.
    struct Split {
        /// How far apart the query puts the two candidates.
        gap: f64,
        /// The old probe's rounding error on them, summed.
        noise: f64,
    }

    /// LMC as it runs, with the old probe asked the same question beside
    /// it on every non-interactive arrival.
    struct Shadowed {
        lmc: LeastMarginalCost,
        splits: Vec<Split>,
    }

    impl Scheduler for Shadowed {
        fn name(&self) -> String {
            self.lmc.name()
        }

        fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
            if task.class != TaskClass::Interactive {
                let cores = &mut self.lmc.cores;
                let query: Vec<f64> = cores
                    .iter()
                    .map(|c| c.ledger.marginal_insert_cost(task.cycles))
                    .collect();
                let (old, noise): (Vec<f64>, Vec<f64>) = cores
                    .iter_mut()
                    .map(|c| c.ledger.reference_marginal_insert_cost(task.cycles))
                    .unzip();
                let (q, o) = (least(&query), least(&old));
                if q != o {
                    self.splits.push(Split {
                        gap: (query[q] - query[o]).abs(),
                        noise: noise[q] + noise[o],
                    });
                }
            }
            self.lmc.on_arrival(sim, task);
        }

        fn on_completion(&mut self, sim: &mut dyn ExecutorView, core: CoreId, task: &Task) {
            self.lmc.on_completion(sim, core, task);
        }
    }

    /// Run `tasks` on four Table II cores (the service's platform) and
    /// return every arrival the two probes split on.
    fn splits_on(tasks: &[Task]) -> Vec<Split> {
        let platform = Platform::homogeneous(4, CoreSpec::new(RateTable::i7_950_table2()))
            .expect("four cores");
        let params = CostParams::online_paper();
        let mut policy = Shadowed {
            lmc: LeastMarginalCost::new(&platform, params),
            splits: Vec::new(),
        };
        let mut engine = Engine::new(EngineConfig::new(platform), Quiet);
        engine.add_tasks(tasks);
        engine.run_to_completion(&mut policy);
        policy.splits
    }

    #[test]
    fn query_and_old_probe_agree_on_every_conformance_arrival() {
        assert!(splits_on(&mixed_trace()).is_empty());
    }

    #[test]
    fn query_and_old_probe_agree_on_every_judgegirl_arrival() {
        let trace = JudgeTraceConfig::paper(1).generate();
        assert!(trace.len() > 50_000);
        assert!(splits_on(&trace).is_empty());
    }

    #[test]
    fn on_a_deep_batch_the_probes_split_only_inside_the_old_rounding_error() {
        // sysbench's `engine_drain_deep` input: every task resident
        // before the first completion, so the totals the old probe
        // subtracted reach ~4·10^5 while the candidates differ in the
        // eleventh digit.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let batch: Vec<Task> = (0..100_000u64)
            .map(|id| {
                let cycles = rng.gen_range(1_000_000..=5_000_000u64);
                Task::online(id, cycles, 0.0, None, TaskClass::NonInteractive).expect("valid task")
            })
            .collect();
        let splits = splits_on(&batch);
        for s in &splits {
            assert!(
                s.gap <= s.noise,
                "decided differently with the candidates {} apart, rounding error {}",
                s.gap,
                s.noise
            );
        }
        let widest = |f: fn(&Split) -> f64| splits.iter().map(f).fold(0.0, f64::max);
        println!(
            "deep batch: {} of {} arrivals decided differently; widest gap {:e}, \
             widest rounding error {:e}",
            splits.len(),
            batch.len(),
            widest(|s| s.gap),
            widest(|s| s.noise),
        );
    }
}
