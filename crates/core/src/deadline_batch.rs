//! Deadline-constrained batch scheduling (extension).
//!
//! Section III-A proves that scheduling with deadlines under time and
//! energy budgets is NP-complete and stops there. This module adds the
//! natural practical companion: a greedy *rate-escalation* heuristic for
//! the common-deadline single-core problem —
//!
//! 1. start from the cost-optimal Longest-Task-Last plan (Algorithm 2),
//!    which ignores the deadline;
//! 2. while the plan's makespan exceeds the deadline, raise one task's
//!    rate one level, choosing the task with the least marginal-cost per
//!    second-saved ratio;
//! 3. finally re-sort by execution time (with rates fixed per *task*,
//!    shortest-processing-time-first minimizes total waiting).
//!
//! Feasibility is exact (a common deadline on one core depends only on
//! `Σ L·T(p)`, so "everything at the maximum rate" is the feasibility
//! frontier — the same criterion as the exact solver); cost optimality
//! is heuristic and the tests bound its gap against exhaustive search.

use crate::batch::SingleCorePlan;
use dvfs_model::cost::sequence_cost;
use dvfs_model::{CostParams, RateIdx, RateTable, Task, TaskId};

/// Makespan of a single-core plan with per-task rates: `Σ L·T(p)`.
fn makespan(cycles: &[u64], rates: &[RateIdx], table: &RateTable) -> f64 {
    cycles
        .iter()
        .zip(rates)
        .map(|(&c, &r)| table.exec_time(r, c))
        .sum()
}

/// Greedy rate-escalation schedule under a common deadline. Returns
/// `None` when even the all-maximum-rate plan misses the deadline
/// (which is exactly when no schedule exists).
#[must_use]
pub fn schedule_single_core_with_deadline(
    tasks: &[Task],
    table: &RateTable,
    params: CostParams,
    deadline: f64,
) -> Option<SingleCorePlan> {
    if tasks.is_empty() {
        return Some(SingleCorePlan {
            order: Vec::new(),
            predicted_cost: 0.0,
        });
    }
    // Start from the unconstrained optimum (ascending cycle order with
    // position-dominating rates).
    let base = crate::batch::schedule_single_core(tasks, table, params);
    let order_ids: Vec<TaskId> = base.order.iter().map(|&(t, _)| t).collect();
    let lookup = |tid: TaskId| tasks.iter().find(|t| t.id == tid).expect("task exists");
    let cycles: Vec<u64> = order_ids.iter().map(|&t| lookup(t).cycles).collect();
    let mut rates: Vec<RateIdx> = base.order.iter().map(|&(_, r)| r).collect();
    let n = cycles.len();

    // Feasibility frontier: everything at the top rate.
    let min_span: f64 = cycles
        .iter()
        .map(|&c| table.exec_time(table.max_rate(), c))
        .sum();
    if min_span > deadline + 1e-9 {
        return None;
    }

    while makespan(&cycles, &rates, table) > deadline + 1e-9 {
        // Cheapest speedup: least Δcost per second saved. The cost
        // delta uses the positional form C^B(k)·L with the current
        // (ascending-cycles) order; positions are fixed during
        // escalation.
        let mut best: Option<(f64, usize)> = None;
        for i in 0..n {
            let r = rates[i];
            if r >= table.max_rate() {
                continue;
            }
            let kb = (n - i) as u64; // backward position in current order
            let dt = table.exec_time(r, cycles[i]) - table.exec_time(r + 1, cycles[i]);
            let dcost = (params.c_backward(table, kb as usize, r + 1)
                - params.c_backward(table, kb as usize, r))
                * cycles[i] as f64;
            let ratio = dcost / dt;
            if best.is_none_or(|(b, _)| ratio < b) {
                best = Some((ratio, i));
            }
        }
        let (_, i) = best.expect("feasibility frontier guarantees an escalatable task");
        rates[i] += 1;
    }

    // With per-task rates fixed, SPT order minimizes total waiting.
    let mut entries: Vec<(TaskId, RateIdx, f64)> = order_ids
        .iter()
        .zip(&rates)
        .zip(&cycles)
        .map(|((&tid, &r), &c)| (tid, r, table.exec_time(r, c)))
        .collect();
    entries.sort_by(|a, b| {
        a.2.partial_cmp(&b.2)
            .expect("finite times")
            .then(a.0.cmp(&b.0))
    });
    let order: Vec<(TaskId, RateIdx)> = entries.iter().map(|&(t, r, _)| (t, r)).collect();
    let seq: Vec<(u64, RateIdx)> = order
        .iter()
        .map(|&(tid, r)| (lookup(tid).cycles, r))
        .collect();
    let predicted_cost = sequence_cost(params, table, &seq).total();
    Some(SingleCorePlan {
        order,
        predicted_cost,
    })
}

/// Total energy of a per-task rate assignment: `Σ L·E(p)`.
fn plan_energy(cycles: &[u64], rates: &[RateIdx], table: &RateTable) -> f64 {
    cycles
        .iter()
        .zip(rates)
        .map(|(&c, &r)| table.energy(r, c))
        .sum()
}

/// Greedy schedule under *both* budgets of Section III-A: a common
/// deadline and a total energy budget. This is the problem Theorem 1
/// proves NP-complete, so the greedy is necessarily incomplete: it may
/// return `None` on instances that a subset-sum-shaped assignment could
/// satisfy (e.g. the Theorem 1 gadget at exact equality). What it
/// guarantees:
///
/// * any returned plan satisfies both budgets (soundness);
/// * `None` is exact whenever one budget alone is already impossible
///   (all-max-rate time, or all-min-rate energy);
/// * with a `None` budget on either side it degenerates to the exact
///   single-budget feasibility of the respective greedy.
///
/// Strategy: start from the all-minimum-rate assignment (least energy)
/// and escalate the step saving the most time per joule added until the
/// deadline is met or the energy budget is exhausted; then, within the
/// remaining energy slack, continue escalating by least cost-per-second
/// to improve the monetary objective while both budgets keep holding.
#[must_use]
pub fn schedule_single_core_with_budgets(
    tasks: &[Task],
    table: &RateTable,
    params: CostParams,
    deadline: Option<f64>,
    energy_budget: Option<f64>,
) -> Option<SingleCorePlan> {
    if tasks.is_empty() {
        return Some(SingleCorePlan {
            order: Vec::new(),
            predicted_cost: 0.0,
        });
    }
    let deadline = deadline.unwrap_or(f64::INFINITY);
    let energy_budget = energy_budget.unwrap_or(f64::INFINITY);

    // Ascending-cycle order (Theorem 3's shape), all at the slowest rate.
    let mut refs: Vec<&Task> = tasks.iter().collect();
    refs.sort_by_key(|t| (t.cycles, t.id));
    let cycles: Vec<u64> = refs.iter().map(|t| t.cycles).collect();
    let ids: Vec<TaskId> = refs.iter().map(|t| t.id).collect();
    let n = cycles.len();
    let mut rates: Vec<RateIdx> = vec![0; n];

    // Exact one-sided infeasibility checks.
    let min_time: f64 = cycles
        .iter()
        .map(|&c| table.exec_time(table.max_rate(), c))
        .sum();
    if min_time > deadline + 1e-9 {
        return None;
    }
    if plan_energy(&cycles, &rates, table) > energy_budget + 1e-9 {
        return None;
    }

    // Phase 1: meet the deadline, spending energy as efficiently as
    // possible (max seconds saved per joule).
    while makespan(&cycles, &rates, table) > deadline + 1e-9 {
        let mut best: Option<(f64, usize)> = None;
        for i in 0..n {
            let r = rates[i];
            if r >= table.max_rate() {
                continue;
            }
            let dt = table.exec_time(r, cycles[i]) - table.exec_time(r + 1, cycles[i]);
            let de = table.energy(r + 1, cycles[i]) - table.energy(r, cycles[i]);
            let ratio = de / dt; // joules per second saved; minimize
            if best.is_none_or(|(b, _)| ratio < b) {
                best = Some((ratio, i));
            }
        }
        let (_, i) = best?;
        rates[i] += 1;
        if plan_energy(&cycles, &rates, table) > energy_budget + 1e-9 {
            return None; // greedy exhausted the budget before the deadline
        }
    }

    // Phase 2: spend remaining energy slack on cost improvements. Only
    // take escalations that *reduce* the positional cost and keep the
    // energy budget.
    loop {
        let mut best: Option<(f64, usize)> = None;
        for i in 0..n {
            let r = rates[i];
            if r >= table.max_rate() {
                continue;
            }
            let kb = n - i; // backward position
            let dcost = (params.c_backward(table, kb, r + 1) - params.c_backward(table, kb, r))
                * cycles[i] as f64;
            if dcost >= -1e-15 {
                continue;
            }
            let de = table.energy(r + 1, cycles[i]) - table.energy(r, cycles[i]);
            if plan_energy(&cycles, &rates, table) + de > energy_budget + 1e-9 {
                continue;
            }
            if best.is_none_or(|(b, _)| dcost < b) {
                best = Some((dcost, i));
            }
        }
        match best {
            Some((_, i)) => rates[i] += 1,
            None => break,
        }
    }

    // SPT order with fixed per-task rates.
    let mut entries: Vec<(TaskId, RateIdx, u64, f64)> = ids
        .iter()
        .zip(&rates)
        .zip(&cycles)
        .map(|((&tid, &r), &c)| (tid, r, c, table.exec_time(r, c)))
        .collect();
    entries.sort_by(|a, b| a.3.partial_cmp(&b.3).expect("finite").then(a.0.cmp(&b.0)));
    let order: Vec<(TaskId, RateIdx)> = entries.iter().map(|&(t, r, _, _)| (t, r)).collect();
    let seq: Vec<(u64, RateIdx)> = entries.iter().map(|&(_, r, c, _)| (c, r)).collect();
    let predicted_cost = sequence_cost(params, table, &seq).total();
    Some(SingleCorePlan {
        order,
        predicted_cost,
    })
}

/// Multi-core greedy: assign tasks with Workload Based Greedy
/// (Algorithm 3), then escalate rates per core until every core's
/// sequence meets the common deadline. Returns `None` when some core is
/// infeasible even at its top rate — note this is *heuristic*
/// infeasibility: WBG's cost-optimal assignment may overload one core
/// where a makespan-optimal assignment would fit (the underlying
/// decision problem is Theorem 2's NP-complete one, so an exact answer
/// is exponential anyway).
#[must_use]
pub fn schedule_multicore_with_deadline(
    tasks: &[Task],
    platform: &dvfs_model::Platform,
    params: CostParams,
    deadline: f64,
) -> Option<dvfs_model::BatchPlan> {
    let assignment = crate::batch::schedule_wbg(tasks, platform, params);
    let mut out = dvfs_model::BatchPlan::empty(platform.num_cores());
    for (j, seq) in assignment.per_core.iter().enumerate() {
        let table = &platform.core(j).expect("core in range").rates;
        let core_tasks: Vec<Task> = seq
            .iter()
            .map(|&(tid, _)| {
                tasks
                    .iter()
                    .find(|t| t.id == tid)
                    .expect("plan references known tasks")
                    .clone()
            })
            .collect();
        let plan = schedule_single_core_with_deadline(&core_tasks, table, params, deadline)?;
        out.per_core[j] = plan.order;
    }
    Some(out)
}

/// Makespan of a [`SingleCorePlan`] against a task set.
///
/// # Panics
/// Panics when the plan references unknown task ids.
#[must_use]
pub fn plan_makespan(plan: &SingleCorePlan, tasks: &[Task], table: &RateTable) -> f64 {
    plan.order
        .iter()
        .map(|&(tid, r)| {
            let t = tasks.iter().find(|t| t.id == tid).expect("task exists");
            table.exec_time(r, t.cycles)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::min_energy_under_deadline;
    use dvfs_model::task::batch_workload;
    use proptest::prelude::*;

    fn table() -> RateTable {
        RateTable::i7_950_table2()
    }

    #[test]
    fn loose_deadline_reduces_to_plain_ltl() {
        let tasks = batch_workload(&[5_000_000_000, 1_000_000_000, 2_000_000_000]);
        let params = CostParams::batch_paper();
        let unconstrained = crate::batch::schedule_single_core(&tasks, &table(), params);
        let constrained =
            schedule_single_core_with_deadline(&tasks, &table(), params, 1e9).unwrap();
        assert_eq!(constrained.order, unconstrained.order);
        assert!(
            (constrained.predicted_cost - unconstrained.predicted_cost).abs()
                / unconstrained.predicted_cost
                < 1e-12
        );
    }

    #[test]
    fn infeasible_deadline_returns_none() {
        let tasks = batch_workload(&[3_000_000_000]);
        // Fastest possible: 3e9 × 0.33 ns = 0.99 s.
        assert!(schedule_single_core_with_deadline(
            &tasks,
            &table(),
            CostParams::batch_paper(),
            0.5
        )
        .is_none());
        assert!(schedule_single_core_with_deadline(
            &tasks,
            &table(),
            CostParams::batch_paper(),
            1.0
        )
        .is_some());
    }

    #[test]
    fn feasibility_matches_exact_solver() {
        let cycles = [2_000_000_000u64, 1_500_000_000, 800_000_000];
        let tasks = batch_workload(&cycles);
        let params = CostParams::batch_paper();
        for deadline in [0.5f64, 1.0, 1.42, 1.45, 1.6, 2.0, 3.0] {
            let heuristic = schedule_single_core_with_deadline(&tasks, &table(), params, deadline);
            let exact = min_energy_under_deadline(&cycles, &table(), deadline);
            assert_eq!(
                heuristic.is_some(),
                exact.is_some(),
                "feasibility disagreement at deadline {deadline}"
            );
        }
    }

    #[test]
    fn schedules_meet_the_deadline() {
        let tasks = batch_workload(&[4_000_000_000, 3_000_000_000, 2_000_000_000, 500_000_000]);
        let params = CostParams::batch_paper();
        for deadline in [3.2f64, 3.6, 4.0, 5.0, 6.0] {
            if let Some(plan) =
                schedule_single_core_with_deadline(&tasks, &table(), params, deadline)
            {
                let span = plan_makespan(&plan, &tasks, &table());
                assert!(
                    span <= deadline + 1e-9,
                    "deadline {deadline} violated: makespan {span}"
                );
            }
        }
    }

    #[test]
    fn tighter_deadlines_cost_more() {
        let tasks = batch_workload(&[6_000_000_000, 2_500_000_000, 900_000_000, 4_100_000_000]);
        let params = CostParams::batch_paper();
        let mut prev = 0.0;
        // Sweep from loose to the feasibility frontier.
        for deadline in [20.0f64, 8.0, 6.5, 5.5, 5.0, 4.6] {
            let plan = schedule_single_core_with_deadline(&tasks, &table(), params, deadline)
                .expect("feasible");
            assert!(
                plan.predicted_cost >= prev - 1e-9,
                "cost must not drop as the deadline tightens"
            );
            prev = plan.predicted_cost;
        }
    }

    /// Brute-force minimum cost under a deadline: all orders × all rate
    /// assignments. Tiny instances only.
    fn brute_force(
        cycles: &[u64],
        table: &RateTable,
        params: CostParams,
        deadline: f64,
    ) -> Option<f64> {
        fn perms(v: &mut Vec<u64>, k: usize, out: &mut Vec<Vec<u64>>) {
            if k == v.len() {
                out.push(v.clone());
                return;
            }
            for i in k..v.len() {
                v.swap(k, i);
                perms(v, k + 1, out);
                v.swap(k, i);
            }
        }
        let mut orders = Vec::new();
        perms(&mut cycles.to_vec(), 0, &mut orders);
        let nrates = table.len();
        let mut best: Option<f64> = None;
        for order in &orders {
            for combo in 0..nrates.pow(order.len() as u32) {
                let mut acc = combo;
                let seq: Vec<(u64, RateIdx)> = order
                    .iter()
                    .map(|&c| {
                        let r = acc % nrates;
                        acc /= nrates;
                        (c, r)
                    })
                    .collect();
                let span: f64 = seq.iter().map(|&(c, r)| table.exec_time(r, c)).sum();
                if span > deadline + 1e-9 {
                    continue;
                }
                let cost = sequence_cost(params, table, &seq).total();
                best = Some(best.map_or(cost, |b: f64| b.min(cost)));
            }
        }
        best
    }

    #[test]
    fn heuristic_close_to_brute_force_optimum() {
        let table = RateTable::i7_950_two_rates();
        let params = CostParams::batch_paper();
        for cycles in [
            vec![2_000_000_000u64, 1_000_000_000, 3_000_000_000],
            vec![900_000_000u64, 900_000_000, 900_000_000, 900_000_000],
            vec![5_000_000_000u64, 200_000_000],
        ] {
            let tasks = batch_workload(&cycles);
            let min_span: f64 = cycles.iter().map(|&c| table.exec_time(1, c)).sum();
            let max_span: f64 = cycles.iter().map(|&c| table.exec_time(0, c)).sum();
            for frac in [1.05f64, 1.2, 1.5, 1.9] {
                let deadline = (min_span * frac).min(max_span * 1.1);
                let heuristic =
                    schedule_single_core_with_deadline(&tasks, &table, params, deadline);
                let best = brute_force(&cycles, &table, params, deadline);
                match (heuristic, best) {
                    (Some(plan), Some(opt)) => assert!(
                        plan.predicted_cost <= opt * 1.10 + 1e-12,
                        "heuristic {:.6} vs optimum {opt:.6} (deadline {deadline})",
                        plan.predicted_cost
                    ),
                    (None, None) => {}
                    other => panic!("feasibility mismatch: {other:?}"),
                }
            }
        }
    }

    fn budget_plan_energy(
        plan: &SingleCorePlan,
        tasks: &[dvfs_model::Task],
        table: &RateTable,
    ) -> f64 {
        plan.order
            .iter()
            .map(|&(tid, r)| {
                let t = tasks.iter().find(|t| t.id == tid).unwrap();
                table.energy(r, t.cycles)
            })
            .sum()
    }

    #[test]
    fn budgets_soundness_both_constraints_hold() {
        let table = table();
        let params = CostParams::batch_paper();
        let cycles = [4_000_000_000u64, 2_000_000_000, 1_000_000_000];
        let tasks = batch_workload(&cycles);
        let min_time: f64 = cycles.iter().map(|&c| table.exec_time(4, c)).sum();
        let min_energy: f64 = cycles.iter().map(|&c| table.energy(0, c)).sum();
        for dl_frac in [1.1f64, 1.5, 2.5] {
            for e_frac in [1.05f64, 1.3, 2.2] {
                let deadline = min_time * dl_frac;
                let budget = min_energy * e_frac;
                if let Some(plan) = schedule_single_core_with_budgets(
                    &tasks,
                    &table,
                    params,
                    Some(deadline),
                    Some(budget),
                ) {
                    assert!(plan_makespan(&plan, &tasks, &table) <= deadline + 1e-9);
                    assert!(budget_plan_energy(&plan, &tasks, &table) <= budget + 1e-9);
                }
            }
        }
    }

    #[test]
    fn budgets_one_sided_infeasibility_is_exact() {
        let table = table();
        let params = CostParams::batch_paper();
        let tasks = batch_workload(&[3_000_000_000]);
        // Time-impossible: below the all-max span.
        assert!(
            schedule_single_core_with_budgets(&tasks, &table, params, Some(0.5), None).is_none()
        );
        // Energy-impossible: below the all-min energy (3e9 × 3.375 nJ).
        assert!(
            schedule_single_core_with_budgets(&tasks, &table, params, None, Some(10.0)).is_none()
        );
        // Both generous: feasible.
        assert!(
            schedule_single_core_with_budgets(&tasks, &table, params, Some(10.0), Some(100.0))
                .is_some()
        );
    }

    #[test]
    fn budgets_unconstrained_equals_plain_ltl_cost() {
        let table = table();
        let params = CostParams::batch_paper();
        let tasks = batch_workload(&[6_000_000_000, 1_000_000_000, 2_500_000_000]);
        let free = schedule_single_core_with_budgets(&tasks, &table, params, None, None)
            .expect("always feasible");
        let ltl = crate::batch::schedule_single_core(&tasks, &table, params);
        assert!(
            (free.predicted_cost - ltl.predicted_cost).abs() / ltl.predicted_cost < 1e-9,
            "unconstrained budgets must recover the LTL optimum: {} vs {}",
            free.predicted_cost,
            ltl.predicted_cost
        );
    }

    #[test]
    fn budgets_tight_energy_forces_slow_rates() {
        let table = table();
        let params = CostParams::batch_paper();
        let cycles = [2_000_000_000u64, 2_000_000_000];
        let tasks = batch_workload(&cycles);
        let min_energy: f64 = cycles.iter().map(|&c| table.energy(0, c)).sum();
        let plan = schedule_single_core_with_budgets(
            &tasks,
            &table,
            params,
            None,
            Some(min_energy * 1.001),
        )
        .expect("feasible at the floor");
        assert!(
            plan.order.iter().all(|&(_, r)| r == 0),
            "near-floor budget must pin the slowest rate: {:?}",
            plan.order
        );
    }

    #[test]
    fn multicore_deadline_meets_every_core() {
        use dvfs_model::Platform;
        let platform = Platform::i7_950_quad();
        let params = CostParams::batch_paper();
        let cycles: Vec<u64> = (1..=12).map(|i| i * 800_000_000).collect();
        let tasks = batch_workload(&cycles);
        // Heaviest core carries ~19.2 Gcycles (>= 6.34 s even at 3 GHz);
        // unconstrained WBG would take ~10.5 s there, so a 7 s deadline
        // forces escalation while staying feasible.
        let plan = schedule_multicore_with_deadline(&tasks, &platform, params, 7.0)
            .expect("feasible with escalation");
        for (j, seq) in plan.per_core.iter().enumerate() {
            let table = &platform.core(j).unwrap().rates;
            let span: f64 = seq
                .iter()
                .map(|&(tid, r)| {
                    let t = tasks.iter().find(|t| t.id == tid).unwrap();
                    table.exec_time(r, t.cycles)
                })
                .sum();
            assert!(span <= 7.0 + 1e-9, "core {j} misses: {span}");
        }
        // The end-to-end replay of this plan on the simulator lives in
        // `tests/plan_replay_on_sim.rs` (integration test, so it runs
        // against the library build that dvfs-sim links).
    }

    #[test]
    fn multicore_deadline_infeasible_when_one_task_is_too_big() {
        use dvfs_model::Platform;
        let platform = Platform::i7_950_quad();
        let params = CostParams::batch_paper();
        // 9e9 cycles at 0.33 ns = 2.97 s minimum anywhere.
        let tasks = batch_workload(&[9_000_000_000, 1_000, 1_000]);
        assert!(schedule_multicore_with_deadline(&tasks, &platform, params, 2.0).is_none());
        assert!(schedule_multicore_with_deadline(&tasks, &platform, params, 3.0).is_some());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_deadline_respected_and_feasibility_exact(
            cycles in prop::collection::vec(100_000_000u64..5_000_000_000, 1..10),
            frac in 0.5f64..3.0,
        ) {
            let table = table();
            let params = CostParams::batch_paper();
            let tasks = batch_workload(&cycles);
            let min_span: f64 = cycles.iter().map(|&c| table.exec_time(table.max_rate(), c)).sum();
            let deadline = min_span * frac;
            match schedule_single_core_with_deadline(&tasks, &table, params, deadline) {
                Some(plan) => {
                    prop_assert!(plan_makespan(&plan, &tasks, &table) <= deadline + 1e-9);
                    prop_assert!(frac >= 1.0 - 1e-12);
                }
                None => prop_assert!(frac < 1.0 + 1e-9),
            }
        }
    }
}
