//! Section IV's interactive rule, the one both online policies follow
//! ([`crate::LeastMarginalCost`] and [`crate::WbgReassign`]).
//!
//! An interactive task must finish as soon as possible. It goes to the
//! core the policy picks — Equation 27's least marginal cost,
//! `C^M_j = Re·L·E_j(p_m) + Rt·L·T_j(p_m) + Rt·L·T_j(p_m)·N_j`, in the
//! paper — preempts any non-interactive task running there, and runs at
//! the core's maximum frequency `p_m`; behind another interactive task
//! it waits in the core's FIFO. The preempted task is suspended and
//! resumes once the FIFO drains. A [`Lane`] holds one core's share of
//! that state — what runs, what is suspended, the FIFO — and hands out
//! the core's urgent dispatch: the FIFO first, then the suspended task.
//! What a core runs after that comes from the policy's own queue, which
//! sits beside the lane in the policy's per-core state.

use crate::sched::ExecutorView;
use dvfs_model::{CoreId, CostParams, RateIdx, TaskClass, TaskId};
use std::collections::VecDeque;

/// The core with the least cost, ties to the lower index.
pub(crate) fn least(costs: impl IntoIterator<Item = f64>) -> CoreId {
    (costs.into_iter().enumerate())
        .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite costs"))
        .map(|(j, _)| j)
        .expect("platform has cores")
}

/// Every core's Equation 27 marginal cost for an interactive task of
/// `cycles` cycles, in core order; `cores` yields each core's lane and
/// the length of its queue.
pub(crate) fn marginal_costs<'a>(
    params: CostParams,
    x: &'a dyn ExecutorView,
    cycles: u64,
    cores: impl Iterator<Item = (&'a Lane, usize)> + 'a,
) -> impl Iterator<Item = f64> + 'a {
    cores.enumerate().map(move |(j, (lane, queued))| {
        let [energy, run, wait] = lane.marginal_cost(params, x, j, cycles, queued);
        energy + run + wait
    })
}

/// One core's state under the Section IV rule.
#[derive(Default)]
pub(crate) struct Lane {
    /// The task the policy last dispatched here, while it runs.
    running: Option<(TaskId, TaskClass)>,
    /// The non-interactive task an interactive one preempted.
    suspended: Option<TaskId>,
    interactive: VecDeque<TaskId>,
}

impl Lane {
    /// The class of the task running on this core, if any.
    pub(crate) fn running(&self) -> Option<TaskClass> {
        self.running.map(|(_, class)| class)
    }

    /// `N_j` of Equation 27: the `queued` non-interactive tasks of the
    /// core's queue plus its suspended task.
    pub(crate) fn n_waiting(&self, queued: usize) -> usize {
        queued + usize::from(self.suspended.is_some())
    }

    /// Equation 27's three terms for an interactive task of `cycles`
    /// cycles on this core, `j`, at `p_m`, with `queued` tasks in the
    /// core's queue: `[Re·L·E(p_m), Rt·L·T(p_m), Rt·L·T(p_m)·N_j]`. The
    /// marginal cost is their sum, left to right.
    pub(crate) fn marginal_cost(
        &self,
        params: CostParams,
        x: &dyn ExecutorView,
        j: CoreId,
        cycles: u64,
        queued: usize,
    ) -> [f64; 3] {
        let r = x.rate_table(j).rate(x.max_allowed_rate(j));
        let l = cycles as f64;
        let wait = params.rt * l * r.time_per_cycle;
        let nj = self.n_waiting(queued) as f64;
        [params.re * l * r.energy_per_cycle, wait, wait * nj]
    }

    /// Start `task` on this idle core, `j`, at `rate`.
    pub(crate) fn run(
        &mut self,
        x: &mut dyn ExecutorView,
        j: CoreId,
        task: TaskId,
        class: TaskClass,
        rate: RateIdx,
    ) {
        debug_assert!(x.is_idle(j));
        x.dispatch(j, task, Some(rate));
        self.running = Some((task, class));
    }

    /// Place interactive `task` on this core, `j`: behind a running
    /// interactive task in the FIFO, otherwise at once at `p_m`,
    /// preempting a running non-interactive task.
    pub(crate) fn place(&mut self, x: &mut dyn ExecutorView, j: CoreId, task: TaskId) {
        match self.running {
            Some((_, TaskClass::Interactive)) => self.interactive.push_back(task),
            running => {
                if let Some((running, _)) = running {
                    let preempted = x.preempt(j);
                    debug_assert_eq!(preempted, running);
                    debug_assert!(self.suspended.is_none());
                    self.suspended = Some(preempted);
                }
                let pm = x.max_allowed_rate(j);
                self.run(x, j, task, TaskClass::Interactive, pm);
            }
        }
    }

    /// Dispatch this idle core's urgent work: the FIFO's head at `p_m`,
    /// else the suspended task at `resume_rate`. `false` when there is
    /// none, and the policy's queue goes next.
    pub(crate) fn dispatch_urgent(
        &mut self,
        x: &mut dyn ExecutorView,
        j: CoreId,
        resume_rate: impl FnOnce(&dyn ExecutorView) -> RateIdx,
    ) -> bool {
        if let Some(task) = self.interactive.pop_front() {
            let pm = x.max_allowed_rate(j);
            self.run(x, j, task, TaskClass::Interactive, pm);
        } else if let Some(task) = self.suspended.take() {
            let rate = resume_rate(x);
            self.run(x, j, task, TaskClass::NonInteractive, rate);
        } else {
            return false;
        }
        true
    }

    /// `task` completed on this core, which is idle until the next
    /// dispatch.
    pub(crate) fn complete(&mut self, task: TaskId) {
        debug_assert_eq!(self.running.map(|(t, _)| t), Some(task));
        self.running = None;
    }
}
