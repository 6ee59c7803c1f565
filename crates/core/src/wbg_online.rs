//! Online scheduling by full WBG redistribution.
//!
//! Section IV motivates Least Marginal Cost by noting that "the Workload
//! Based Greedy algorithm can be used to redistribute all tasks to cores
//! when a new task arrives. According to Theorem 5, rearranging the
//! tasks yields the minimum cost. However, because the overhead incurred
//! by the time and energy used to migrate tasks could impact the
//! performance, we need a lightweight strategy without task migration."
//!
//! [`WbgReassign`] implements that heavyweight alternative as an
//! idealized upper bound: on every non-interactive arrival it pools all
//! *waiting* non-interactive tasks (running tasks are non-migratable)
//! and redistributes them across cores with Algorithm 3 at zero
//! migration cost. Interactive tasks follow Section IV's rule, the one
//! LMC follows too (Equation 27, preemption, `p_m`; see
//! `crates/core/src/interactive.rs`), so the two differ only in where
//! non-interactive work waits. Comparing it against
//! [`crate::LeastMarginalCost`] quantifies how much cost the
//! migration-free heuristic actually gives up — the trade the paper
//! asserts but does not measure.

use crate::batch::schedule_wbg;
use crate::dominating::DominatingRanges;
use crate::interactive::{least, marginal_costs, Lane};
use crate::sched::{ExecutorView, Scheduler};
use dvfs_model::{CoreId, CostParams, Platform, RateIdx, Task, TaskClass, TaskId};
use std::collections::{BTreeMap, VecDeque};

#[derive(Default)]
struct CoreState {
    /// Waiting non-interactive tasks in execution order (front runs
    /// next), with their planned rates from the last redistribution.
    queue: VecDeque<(TaskId, RateIdx)>,
    lane: Lane,
}

/// Online policy that re-runs Workload Based Greedy over the waiting
/// pool on every non-interactive arrival (idealized: migration is free).
pub struct WbgReassign {
    platform: Platform,
    params: CostParams,
    cores: Vec<CoreState>,
    /// Per-core dominating ranges, precomputed once.
    ranges: Vec<DominatingRanges>,
    /// Cycles of every known task (WBG reschedules by original size).
    cycles: BTreeMap<TaskId, u64>,
}

impl WbgReassign {
    /// Build the policy for a platform under the given cost parameters.
    #[must_use]
    pub fn new(platform: &Platform, params: CostParams) -> Self {
        let ranges = platform
            .cores()
            .iter()
            .map(|c| DominatingRanges::compute(&c.rates, params))
            .collect();
        WbgReassign {
            platform: platform.clone(),
            params,
            cores: (0..platform.num_cores())
                .map(|_| CoreState::default())
                .collect(),
            ranges,
            cycles: BTreeMap::new(),
        }
    }

    /// Pool every waiting non-interactive task plus `extra`, rerun WBG,
    /// and replace all queues.
    fn redistribute(&mut self, extra: TaskId) {
        let waiting = self
            .cores
            .iter()
            .flat_map(|c| &c.queue)
            .map(|&(tid, _)| tid);
        let pool: Vec<Task> = waiting
            .chain([extra])
            .map(|tid| Task::batch(tid.0, self.cycles[&tid]).expect("known tasks have cycles"))
            .collect();
        let plan = schedule_wbg(&pool, &self.platform, self.params);
        for (core, seq) in self.cores.iter_mut().zip(plan.per_core) {
            core.queue = seq.into();
        }
    }

    fn dispatch_next(&mut self, sim: &mut dyn ExecutorView, j: CoreId) {
        // The resumed task's backward position: the waiting queue + itself.
        let (core, range) = (&mut self.cores[j], &self.ranges[j]);
        let kb = core.queue.len() as u64 + 1;
        let resume = |x: &dyn ExecutorView| range.rate_for(kb).min(x.max_allowed_rate(j));
        if core.lane.dispatch_urgent(sim, j, resume) {
            return;
        }
        if let Some((tid, planned_rate)) = core.queue.pop_front() {
            let rate = planned_rate.min(sim.max_allowed_rate(j));
            core.lane.run(sim, j, tid, TaskClass::NonInteractive, rate);
        }
    }
}

impl Scheduler for WbgReassign {
    fn name(&self) -> String {
        "wbg-reassign".into()
    }

    fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
        self.cycles.insert(task.id, task.cycles);
        match task.class {
            TaskClass::Interactive => {
                let cores = self.cores.iter().map(|c| (&c.lane, c.queue.len()));
                let best = least(marginal_costs(self.params, sim, task.cycles, cores));
                self.cores[best].lane.place(sim, best, task.id);
            }
            TaskClass::NonInteractive | TaskClass::Batch => {
                self.redistribute(task.id);
                // Wake any idle cores that received work.
                for j in 0..self.cores.len() {
                    let core = &self.cores[j];
                    if core.lane.running().is_none() && !core.queue.is_empty() {
                        self.dispatch_next(sim, j);
                    }
                }
            }
        }
    }

    fn on_completion(&mut self, sim: &mut dyn ExecutorView, core: CoreId, task: &Task) {
        self.cores[core].lane.complete(task.id);
        self.cycles.remove(&task.id);
        self.dispatch_next(sim, core);
    }
}
