//! LMC behavior pinned on the virtual-time executor.
//!
//! These live as integration tests (not unit tests) deliberately: the
//! policies are engine-agnostic, and `dvfs-sim` is only a
//! dev-dependency of this crate, so driving them through the simulator
//! must happen against the library build.

use dvfs_core::{InteractivePlacement, LeastMarginalCost};
use dvfs_model::{CoreSpec, CostParams, Platform, RateTable, Task, TaskId};
use dvfs_sim::{SimConfig, SimReport, Simulator};
use proptest::prelude::*;

fn quad() -> Platform {
    Platform::i7_950_quad()
}

fn run(platform: Platform, tasks: Vec<Task>) -> SimReport {
    let mut policy = LeastMarginalCost::new(&platform, CostParams::online_paper());
    let mut sim = Simulator::new(SimConfig::new(platform));
    sim.add_tasks(&tasks);
    sim.run(&mut policy)
}

#[test]
fn all_tasks_complete() {
    let tasks: Vec<Task> = (0..40)
        .map(|i| {
            if i % 3 == 0 {
                Task::interactive(i, 1_000_000, i as f64 * 0.01).unwrap()
            } else {
                Task::non_interactive(i, (i + 1) * 50_000_000, i as f64 * 0.01).unwrap()
            }
        })
        .collect();
    let report = run(quad(), tasks);
    assert_eq!(report.completed(), 40);
}

#[test]
fn interactive_preempts_running_non_interactive() {
    let platform = Platform::homogeneous(1, CoreSpec::new(RateTable::i7_950_table2())).unwrap();
    let big = Task::non_interactive(1, 16_000_000_000, 0.0).unwrap();
    let small = Task::interactive(2, 300_000_000, 1.0).unwrap();
    let report = run(platform, vec![big, small]);
    let r_int = report.tasks[&TaskId(2)];
    let r_ni = report.tasks[&TaskId(1)];
    // Interactive runs immediately at max rate: 3e8 * 0.33ns ≈ 0.099 s.
    let turnaround = r_int.turnaround().unwrap();
    assert!(
        (turnaround - 0.099).abs() < 1e-6,
        "interactive turnaround {turnaround}"
    );
    assert_eq!(r_ni.preemptions, 1);
    assert!(r_ni.completion.unwrap() > r_int.completion.unwrap());
}

#[test]
fn interactive_chooses_least_loaded_core() {
    // Two cores; core 0 gets two big non-interactive tasks first, so
    // an interactive arrival must land on core 1... but LMC will
    // spread the two NI tasks across cores. Load three NI tasks so
    // queues are (2,1) or (1,2), then check the interactive task is
    // served without waiting behind a queue.
    let platform = Platform::homogeneous(2, CoreSpec::new(RateTable::i7_950_table2())).unwrap();
    let tasks = vec![
        Task::non_interactive(1, 8_000_000_000, 0.0).unwrap(),
        Task::non_interactive(2, 8_000_000_000, 0.0).unwrap(),
        Task::interactive(3, 160_000_000, 0.5).unwrap(),
    ];
    let report = run(platform, tasks);
    let r = report.tasks[&TaskId(3)];
    // Served immediately by preemption at max rate on either core:
    // 1.6e8 cycles * 0.33 ns = 52.8 ms.
    assert!((r.turnaround().unwrap() - 0.0528).abs() < 1e-6);
}

#[test]
fn non_interactive_shortest_runs_first_within_a_core() {
    let platform = Platform::homogeneous(1, CoreSpec::new(RateTable::i7_950_table2())).unwrap();
    // Arrive together at t=0 via three arrivals at the same instant;
    // a tiny runner task is dispatched first (whichever arrives
    // first), then the queue drains shortest-first.
    let tasks = vec![
        Task::non_interactive(1, 1_000_000, 0.0).unwrap(), // dispatched at once
        Task::non_interactive(2, 9_000_000_000, 0.0).unwrap(),
        Task::non_interactive(3, 2_000_000_000, 0.0).unwrap(),
        Task::non_interactive(4, 4_000_000_000, 0.0).unwrap(),
    ];
    let report = run(platform, tasks);
    let c2 = report.tasks[&TaskId(2)].completion.unwrap();
    let c3 = report.tasks[&TaskId(3)].completion.unwrap();
    let c4 = report.tasks[&TaskId(4)].completion.unwrap();
    assert!(c3 < c4 && c4 < c2, "queue must drain shortest-first");
}

#[test]
fn back_to_back_interactive_tasks_fifo_on_same_core() {
    let platform = Platform::homogeneous(1, CoreSpec::new(RateTable::i7_950_table2())).unwrap();
    let tasks = vec![
        Task::interactive(1, 3_000_000_000, 0.0).unwrap(), // ~0.99 s at max
        Task::interactive(2, 3_000_000_000, 0.1).unwrap(),
    ];
    let report = run(platform, tasks);
    let c1 = report.tasks[&TaskId(1)].completion.unwrap();
    let c2 = report.tasks[&TaskId(2)].completion.unwrap();
    assert!((c1 - 0.99).abs() < 1e-6);
    assert!(
        (c2 - 1.98).abs() < 1e-6,
        "second runs right after the first"
    );
    assert_eq!(report.tasks[&TaskId(1)].preemptions, 0);
}

#[test]
fn suspended_task_resumes_after_interactive_burst() {
    let platform = Platform::homogeneous(1, CoreSpec::new(RateTable::i7_950_table2())).unwrap();
    let tasks = vec![
        Task::non_interactive(1, 3_200_000_000, 0.0).unwrap(),
        Task::interactive(2, 1_600_000_000, 0.5).unwrap(),
        Task::interactive(3, 1_600_000_000, 0.6).unwrap(),
    ];
    let report = run(platform, tasks);
    assert_eq!(report.completed(), 3);
    let r1 = report.tasks[&TaskId(1)];
    assert_eq!(r1.preemptions, 1, "preempted once, then resumed");
    let c2 = report.tasks[&TaskId(2)].completion.unwrap();
    let c3 = report.tasks[&TaskId(3)].completion.unwrap();
    assert!(r1.completion.unwrap() > c3.max(c2));
}

#[test]
fn heterogeneous_platform_runs_clean() {
    let platform = Platform::big_little(2, 2);
    let tasks: Vec<Task> = (0..60)
        .map(|i| {
            if i % 4 == 0 {
                Task::interactive(i, 2_000_000, i as f64 * 0.05).unwrap()
            } else {
                Task::non_interactive(i, 100_000_000 + i * 7_000_000, i as f64 * 0.05).unwrap()
            }
        })
        .collect();
    let report = run(platform, tasks);
    assert_eq!(report.completed(), 60);
    assert!(report.active_energy_joules > 0.0);
}

#[test]
fn eq27_equals_least_queue_on_homogeneous_cores() {
    // The paper: "if the cores are homogeneous, we simply choose the
    // core with the least N_j" — the two placements must produce
    // bit-identical runs.
    let tasks: Vec<Task> = (0..80)
        .map(|i| {
            if i % 3 == 0 {
                Task::interactive(i, 1_000_000 + i * 7_000, i as f64 * 0.02).unwrap()
            } else {
                Task::non_interactive(i, (i + 1) * 40_000_000, i as f64 * 0.02).unwrap()
            }
        })
        .collect();
    let platform = quad();
    let params = CostParams::online_paper();
    let run_variant = |placement: InteractivePlacement| {
        let mut policy =
            LeastMarginalCost::new(&platform, params).with_interactive_placement(placement);
        let mut sim = Simulator::new(SimConfig::new(platform.clone()));
        sim.add_tasks(&tasks);
        sim.run(&mut policy)
    };
    let a = run_variant(InteractivePlacement::MarginalCost);
    let b = run_variant(InteractivePlacement::LeastQueue);
    assert_eq!(a.active_energy_joules, b.active_energy_joules);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.total_turnaround(), b.total_turnaround());
}

#[test]
fn eq27_beats_round_robin_on_heterogeneous_cores() {
    // Sparse interactive-only arrivals on big.LITTLE: Equation 27
    // weighs each core's E/T at max rate and (under the paper's
    // energy-heavy online parameters) routes queries to the frugal
    // core; round-robin wastes every other query on the big core's
    // 8x per-cycle energy.
    let tasks: Vec<Task> = (0..40)
        .map(|i| Task::interactive(i, 100_000_000, i as f64 * 1.0).unwrap())
        .collect();
    let platform = Platform::big_little(1, 1);
    let params = CostParams::online_paper();
    let run_variant = |placement: InteractivePlacement| {
        let mut policy =
            LeastMarginalCost::new(&platform, params).with_interactive_placement(placement);
        let mut sim = Simulator::new(SimConfig::new(platform.clone()));
        sim.add_tasks(&tasks);
        sim.run(&mut policy).cost(params).total()
    };
    let eq27 = run_variant(InteractivePlacement::MarginalCost);
    let rr = run_variant(InteractivePlacement::RoundRobin);
    assert!(
        eq27 < rr * 0.75,
        "Eq. 27 placement {eq27} must clearly beat round-robin {rr} on big.LITTLE"
    );
}

#[test]
fn queue_growth_raises_running_task_rate() {
    // One core: start a long NI task (alone → slowest dominating
    // rate), then flood the queue; the running task's rate should
    // rise, finishing it sooner than the all-alone schedule would at
    // the same rate... measurable via energy: more energy per cycle.
    let platform = Platform::homogeneous(1, CoreSpec::new(RateTable::i7_950_table2())).unwrap();
    let mut tasks = vec![Task::non_interactive(0, 16_000_000_000, 0.0).unwrap()];
    for i in 1..=30 {
        tasks.push(Task::non_interactive(i, 1_000_000_000, 0.1).unwrap());
    }
    let report = run(platform.clone(), tasks);
    let solo = run(
        platform,
        vec![Task::non_interactive(0, 16_000_000_000, 0.0).unwrap()],
    );
    let flood_energy_rate = report.tasks[&TaskId(0)].energy_joules / 16.0e9;
    let solo_energy_rate = solo.tasks[&TaskId(0)].energy_joules / 16.0e9;
    assert!(
        flood_energy_rate > solo_energy_rate * 1.05,
        "rate must rise under queue pressure: {flood_energy_rate} vs {solo_energy_rate}"
    );
}

#[test]
fn steal_longest_picks_longest_first_and_lowers_the_queued_cost() {
    use dvfs_core::sched::{ExecutorView, Scheduler};
    use dvfs_model::RateIdx;

    /// Occupancy-only executor (the `dvfs-bench` idiom): enough state
    /// to drive `on_arrival` and observe the rate re-derivation that
    /// stealing must trigger.
    struct StubExec {
        table: RateTable,
        running: Vec<Option<TaskId>>,
        rates: Vec<RateIdx>,
        max_rate: RateIdx,
    }
    impl ExecutorView for StubExec {
        fn now(&self) -> f64 {
            0.0
        }
        fn num_cores(&self) -> usize {
            self.running.len()
        }
        fn rate_table(&self, _j: usize) -> &RateTable {
            &self.table
        }
        fn max_allowed_rate(&self, _j: usize) -> RateIdx {
            self.max_rate
        }
        fn current_rate(&self, j: usize) -> RateIdx {
            self.rates[j]
        }
        fn running_task(&self, j: usize) -> Option<TaskId> {
            self.running[j]
        }
        fn remaining_cycles(&self, _t: TaskId) -> f64 {
            0.0
        }
        fn set_rate(&mut self, j: usize, rate: RateIdx) {
            self.rates[j] = rate;
        }
        fn dispatch(&mut self, j: usize, task: TaskId, rate: Option<RateIdx>) {
            if let Some(r) = rate {
                self.rates[j] = r;
            }
            self.running[j] = Some(task);
        }
        fn preempt(&mut self, j: usize) -> TaskId {
            self.running[j].take().expect("preempt of idle core")
        }
    }

    let table = RateTable::i7_950_table2();
    let platform = Platform::homogeneous(1, CoreSpec::new(table.clone())).unwrap();
    let mut policy = LeastMarginalCost::new(&platform, CostParams::online_paper());
    let mut exec = StubExec {
        max_rate: table.max_rate(),
        table,
        running: vec![None],
        rates: vec![0],
    };
    // First arrival dispatches; the next three queue in the ledger.
    for (id, cycles) in [
        (1u64, 8_000_000_000u64),
        (2, 2_000_000_000),
        (3, 4_000_000_000),
        (4, 6_000_000_000),
    ] {
        policy.on_arrival(&mut exec, &Task::non_interactive(id, cycles, 0.0).unwrap());
    }
    assert_eq!(exec.running[0], Some(TaskId(1)));
    assert_eq!(policy.stealable_tasks(), 3, "one running, three queued");
    let cost_before = policy.queued_cost();
    assert!(cost_before > 0.0);
    let rate_before = exec.rates[0];

    let stolen = policy.steal_longest(&mut exec, 2);
    assert_eq!(stolen, vec![TaskId(4), TaskId(3)], "longest cycles first");
    assert_eq!(policy.stealable_tasks(), 1);
    assert!(policy.queued_cost() < cost_before);
    // The queue shrank, so the running task's backward position fell;
    // its re-derived dominating rate can only drop or hold.
    assert!(exec.rates[0] <= rate_before);

    // Asking for more than remains drains the ledger and stops.
    let rest = policy.steal_longest(&mut exec, 10);
    assert_eq!(rest, vec![TaskId(2)]);
    assert_eq!(policy.stealable_tasks(), 0);
    assert_eq!(policy.queued_cost(), 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Migration keeps both ledgers exact: arrivals into
    /// either of two engines, `steal_longest` out of the first with the
    /// stolen tasks `push_migrated` into the second, and time passing,
    /// interleaved. After every step each core's maintained Eq. 32 cost
    /// is bit for bit the one re-derived from tree queries (both sum the
    /// same exact integers) and, within rounding, the naive per-position
    /// walk. At the end every task has completed exactly once.
    #[test]
    fn steal_and_inject_keep_both_ledgers_exact(
        ops in prop::collection::vec((0u8..6, 1u64..4_000_000_000), 1..80),
    ) {
        let platform = Platform::homogeneous(2, CoreSpec::new(RateTable::i7_950_table2())).unwrap();
        let params = CostParams::online_paper();
        let mut lmc = [
            LeastMarginalCost::new(&platform, params),
            LeastMarginalCost::new(&platform, params),
        ];
        let mut sim = [
            Simulator::new(SimConfig::new(platform.clone())),
            Simulator::new(SimConfig::new(platform)),
        ];
        let mut arrived = 0u64;
        for (op, val) in ops {
            match op {
                // An arrival at either engine's now, three in four at
                // engine 0 so it has a queue to steal from; one in four
                // is a short interactive task, which preempts.
                0..=3 => {
                    let e = usize::from(op == 3);
                    let now = sim[e].now();
                    let task = if val % 4 == 0 {
                        Task::interactive(arrived, val / 100 + 1, now)
                    } else {
                        Task::non_interactive(arrived, val, now)
                    }
                    .unwrap();
                    arrived += 1;
                    sim[e].push_task(&task);
                    sim[e].step_until(&mut lmc[e], now);
                }
                // Steal up to four from engine 0 and inject them into 1.
                4 => {
                    let [from, to] = &mut sim;
                    let stolen = lmc[0].steal_longest(&mut **from, (val % 4 + 1) as usize);
                    for id in stolen {
                        let task = from.remove_ready(id).expect("a ledger-resident task is Ready");
                        to.push_migrated(&task);
                    }
                    let now = to.now();
                    to.step_until(&mut lmc[1], now);
                }
                // Time passes on both engines: up to 40 ms.
                _ => {
                    for e in 0..2 {
                        let t = sim[e].now() + val as f64 * 1e-11;
                        sim[e].step_until(&mut lmc[e], t);
                    }
                }
            }
            for ledger in lmc.iter().flat_map(LeastMarginalCost::ledgers) {
                let cost = ledger.total_cost();
                prop_assert_eq!(cost, ledger.recompute_via_queries());
                let naive = ledger.naive_cost();
                prop_assert!((cost - naive).abs() <= naive.abs() * 1e-9 + 1e-12);
            }
        }
        let mut completed = 0;
        for e in 0..2 {
            sim[e].run_to_completion(&mut lmc[e]);
            completed += sim[e].take_completions().len() as u64;
        }
        prop_assert_eq!(completed, arrived);
    }
}
