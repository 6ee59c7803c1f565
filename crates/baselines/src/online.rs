//! Online-mode baselines: OLB and On-demand (Section V-B).
//!
//! Both keep a per-core two-level FIFO (interactive tasks ahead of
//! non-interactive ones; no preemption of a task already running). OLB
//! places each arrival on the core with the earliest
//! ready-to-execute time and pins cores at the highest frequency;
//! On-demand places arrivals round-robin and leaves frequencies to the
//! `ondemand` governor.

use dvfs_core::sched::{ExecutorView, Scheduler};
use dvfs_model::{CoreId, Task, TaskClass, TaskId};
use std::collections::VecDeque;

#[derive(Debug, Default)]
struct PriorityFifo {
    interactive: VecDeque<(TaskId, u64)>,
    non_interactive: VecDeque<(TaskId, u64)>,
}

impl PriorityFifo {
    fn push(&mut self, id: TaskId, cycles: u64, class: TaskClass) {
        match class {
            TaskClass::Interactive => self.interactive.push_back((id, cycles)),
            _ => self.non_interactive.push_back((id, cycles)),
        }
    }

    fn pop(&mut self) -> Option<TaskId> {
        self.interactive
            .pop_front()
            .or_else(|| self.non_interactive.pop_front())
            .map(|(id, _)| id)
    }

    fn queued_cycles(&self) -> u128 {
        self.interactive
            .iter()
            .chain(self.non_interactive.iter())
            .map(|&(_, c)| u128::from(c))
            .sum()
    }
}

/// Opportunistic Load Balancing, online form: earliest-ready-core
/// placement, cores pinned at the maximum frequency.
#[derive(Debug)]
pub struct OlbOnline {
    queues: Vec<PriorityFifo>,
}

impl OlbOnline {
    /// Build for a platform with `ncores` cores.
    #[must_use]
    pub fn new(ncores: usize) -> Self {
        OlbOnline {
            queues: (0..ncores).map(|_| PriorityFifo::default()).collect(),
        }
    }

    /// Estimated seconds until core `j` would start a newly queued task.
    fn ready_time(&self, sim: &dyn ExecutorView, j: CoreId) -> f64 {
        let table = sim.rate_table(j);
        let top = sim.max_allowed_rate(j);
        let t_cycle = table.rate(top).time_per_cycle;
        let mut cycles = self.queues[j].queued_cycles() as f64;
        if let Some(running) = sim.running_task(j) {
            cycles += sim.remaining_cycles(running);
        }
        cycles * t_cycle
    }

    fn dispatch_next(&mut self, sim: &mut dyn ExecutorView, j: CoreId) {
        if let Some(tid) = self.queues[j].pop() {
            let top = sim.max_allowed_rate(j);
            sim.dispatch(j, tid, Some(top));
        }
    }
}

impl Scheduler for OlbOnline {
    fn name(&self) -> String {
        "opportunistic-load-balancing".into()
    }

    fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
        let j = (0..self.queues.len())
            .min_by(|&a, &b| {
                self.ready_time(sim, a)
                    .partial_cmp(&self.ready_time(sim, b))
                    .expect("finite ready times")
                    .then(a.cmp(&b))
            })
            .expect("has cores");
        self.queues[j].push(task.id, task.cycles, task.class);
        if sim.is_idle(j) {
            self.dispatch_next(sim, j);
        }
    }

    fn on_completion(&mut self, sim: &mut dyn ExecutorView, core: CoreId, _task: &Task) {
        self.dispatch_next(sim, core);
    }
}

/// The On-demand baseline: round-robin placement, frequencies owned by
/// the `ondemand` governor ([`OnlinePolicy::OnDemand`](crate::OnlinePolicy)
/// builds it with `GovernorKind::ondemand_paper()` on every core).
#[derive(Debug)]
pub struct OnDemandOnline {
    queues: Vec<PriorityFifo>,
    next_core: usize,
}

impl OnDemandOnline {
    /// Build for a platform with `ncores` cores.
    #[must_use]
    pub fn new(ncores: usize) -> Self {
        OnDemandOnline {
            queues: (0..ncores).map(|_| PriorityFifo::default()).collect(),
            next_core: 0,
        }
    }

    fn dispatch_next(&mut self, sim: &mut dyn ExecutorView, j: CoreId) {
        if let Some(tid) = self.queues[j].pop() {
            sim.dispatch(j, tid, None); // governor decides
        }
    }
}

impl Scheduler for OnDemandOnline {
    fn name(&self) -> String {
        "ondemand-round-robin".into()
    }

    fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
        let j = self.next_core;
        self.next_core = (self.next_core + 1) % self.queues.len();
        self.queues[j].push(task.id, task.cycles, task.class);
        if sim.is_idle(j) {
            self.dispatch_next(sim, j);
        }
    }

    fn on_completion(&mut self, sim: &mut dyn ExecutorView, core: CoreId, _task: &Task) {
        self.dispatch_next(sim, core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvfs_model::{CoreSpec, Platform, RateTable};
    use dvfs_sim::{GovernorKind, SimConfig, Simulator};

    fn quad() -> Platform {
        Platform::i7_950_quad()
    }

    fn single() -> Platform {
        Platform::homogeneous(1, CoreSpec::new(RateTable::i7_950_table2())).unwrap()
    }

    #[test]
    fn olb_completes_everything_at_max_rate() {
        let tasks: Vec<Task> = (0..20)
            .map(|i| Task::non_interactive(i, 500_000_000, i as f64 * 0.05).unwrap())
            .collect();
        let platform = quad();
        let mut policy = OlbOnline::new(platform.num_cores());
        let mut sim = Simulator::new(SimConfig::new(platform));
        sim.add_tasks(&tasks);
        let report = sim.run(&mut policy);
        assert_eq!(report.completed(), 20);
        // Max rate energy: every cycle at 7.1 nJ.
        let cycles: f64 = tasks.iter().map(|t| t.cycles as f64).sum();
        assert!((report.active_energy_joules - cycles * 7.1e-9).abs() < 1e-6);
    }

    #[test]
    fn olb_interactive_jumps_the_queue_but_does_not_preempt() {
        let tasks = vec![
            Task::non_interactive(0, 8_000_000_000, 0.0).unwrap(), // runs first
            Task::non_interactive(1, 8_000_000_000, 0.1).unwrap(), // queued
            Task::interactive(2, 100_000_000, 0.2).unwrap(),       // jumps ahead of 1
        ];
        let mut policy = OlbOnline::new(1);
        let mut sim = Simulator::new(SimConfig::new(single()));
        sim.add_tasks(&tasks);
        let report = sim.run(&mut policy);
        let c0 = report.tasks[&TaskId(0)].completion.unwrap();
        let c1 = report.tasks[&TaskId(1)].completion.unwrap();
        let c2 = report.tasks[&TaskId(2)].completion.unwrap();
        assert!(c2 > c0, "no preemption: task 0 finishes first");
        assert!(c2 < c1, "interactive overtakes the queued non-interactive");
        assert_eq!(report.tasks[&TaskId(0)].preemptions, 0);
    }

    #[test]
    fn olb_balances_across_cores() {
        // Four simultaneous arrivals spread across the four idle cores.
        let tasks: Vec<Task> = (0..4)
            .map(|i| Task::non_interactive(i, 3_000_000_000, 0.0).unwrap())
            .collect();
        let platform = quad();
        let mut policy = OlbOnline::new(4);
        let mut sim = Simulator::new(SimConfig::new(platform));
        sim.add_tasks(&tasks);
        let report = sim.run(&mut policy);
        // All four finish at the same instant: one per core.
        let spans: Vec<f64> = (0..4)
            .map(|i| report.tasks[&TaskId(i)].completion.unwrap())
            .collect();
        for s in &spans {
            assert!((s - spans[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn ondemand_round_robin_cycles_cores() {
        let tasks: Vec<Task> = (0..8)
            .map(|i| Task::non_interactive(i, 1_000_000_000, i as f64 * 2.0).unwrap())
            .collect();
        let platform = quad();
        let cfg = SimConfig::new(platform).with_governor(GovernorKind::ondemand_paper());
        let mut policy = OnDemandOnline::new(4);
        let mut sim = Simulator::new(cfg);
        sim.add_tasks(&tasks);
        let report = sim.run(&mut policy);
        assert_eq!(report.completed(), 8);
        // Arrivals spaced 2 s apart round-robin: every core runs some work.
        assert!(report.core_busy.iter().all(|&b| b > 0.0));
    }

    #[test]
    fn ondemand_is_slower_than_olb_on_bursts() {
        // A burst of simultaneous tasks: OLB runs flat-out at 3 GHz,
        // ondemand spends its first second at 1.6 GHz per core.
        let tasks: Vec<Task> = (0..8)
            .map(|i| Task::non_interactive(i, 4_000_000_000, 0.0).unwrap())
            .collect();
        let run_olb = {
            let mut policy = OlbOnline::new(4);
            let mut sim = Simulator::new(SimConfig::new(quad()));
            sim.add_tasks(&tasks);
            sim.run(&mut policy)
        };
        let run_od = {
            let cfg = SimConfig::new(quad()).with_governor(GovernorKind::ondemand_paper());
            let mut policy = OnDemandOnline::new(4);
            let mut sim = Simulator::new(cfg);
            sim.add_tasks(&tasks);
            sim.run(&mut policy)
        };
        assert!(run_od.makespan > run_olb.makespan);
    }
}
