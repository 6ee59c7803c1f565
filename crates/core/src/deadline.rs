//! Scheduling with deadlines (Section III-A).
//!
//! The paper proves Deadline-SingleCore NP-complete by reduction from
//! Partition (Theorem 1) and extends it to Deadline-MultiCore
//! (Theorem 2). This module implements:
//!
//! * [`reduction_from_partition`] — the exact gadget of Theorem 1: two
//!   rates with `T(p_l)=2, T(p_h)=1, E(p_l)=1, E(p_h)=4`, time budget
//!   `1.5·S`, energy budget `2.5·S`;
//! * `solve_two_rate` — a pseudo-polynomial exact solver (subset-sum
//!   dynamic program) for two-rate, common-deadline instances;
//! * [`solve_partition_via_reduction`] — Partition answered through the
//!   reduction, demonstrating the equivalence both ways;
//! * [`two_core_deadline_feasible`] — the Theorem 2 instance: two unit
//!   cores, common deadline `S/2`;
//! * [`min_energy_under_deadline`] — an exact Pareto-frontier solver for
//!   the general common-deadline problem with any number of rates
//!   (exponential in the worst case; intended for small instances and
//!   for validating heuristics).

use dvfs_model::{RateIdx, RateTable};

/// A single-core instance: tasks with a *common* deadline and an energy
/// budget, to be run at per-task rates from `table`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineInstance {
    /// Cycle requirement of each task.
    pub cycles: Vec<u64>,
    /// Common absolute deadline (time budget, seconds).
    pub deadline: f64,
    /// Total energy budget (joules).
    pub energy_budget: f64,
    /// The available rates.
    pub table: RateTable,
}

/// Theorem 1's reduction: a Partition instance `a` becomes a
/// Deadline-SingleCore instance that is feasible iff `a` can be split
/// into two halves of equal sum.
#[must_use]
pub fn reduction_from_partition(a: &[u64]) -> DeadlineInstance {
    let s: u64 = a.iter().sum();
    DeadlineInstance {
        cycles: a.to_vec(),
        deadline: 1.5 * s as f64,
        energy_budget: 2.5 * s as f64,
        table: RateTable::theorem1_gadget(),
    }
}

/// Exact solver for **two-rate** common-deadline instances via a
/// subset-sum dynamic program over the cycles run at the high rate.
/// Returns per-task rate indices (into `instance.table`) when feasible.
///
/// Pseudo-polynomial: `O(n · S)` time and `O(S)` space where `S` is the
/// total cycle count.
///
/// # Panics
/// Panics unless the instance has exactly two rates.
#[must_use]
fn solve_two_rate(instance: &DeadlineInstance) -> Option<Vec<RateIdx>> {
    assert_eq!(
        instance.table.len(),
        2,
        "solve_two_rate requires a two-rate table"
    );
    let (lo, hi) = (instance.table.rate(0), instance.table.rate(1));
    let s: u64 = instance.cycles.iter().sum();
    let n = instance.cycles.len();

    // reach[h] = Some(i): subset summing to h exists, and its
    // reconstruction uses item i last (set exactly once, while
    // processing item i, with h iterated descending → no reuse).
    let mut reach: Vec<Option<usize>> = vec![None; s as usize + 1];
    reach[0] = Some(usize::MAX); // sentinel for the empty subset
    for (i, &c) in instance.cycles.iter().enumerate() {
        let c = c as usize;
        for h in (c..=s as usize).rev() {
            if reach[h].is_none() && reach[h - c].is_some() {
                reach[h] = Some(i);
            }
        }
    }

    // Feasibility at high-cycle total h:
    //   time(h)   = T_l·(S−h) + T_h·h   (decreasing in h)
    //   energy(h) = E_l·(S−h) + E_h·h   (increasing in h)
    let feasible = |h: u64| -> bool {
        let rest = (s - h) as f64;
        let h = h as f64;
        let time = lo.time_per_cycle * rest + hi.time_per_cycle * h;
        let energy = lo.energy_per_cycle * rest + hi.energy_per_cycle * h;
        time <= instance.deadline + 1e-9 && energy <= instance.energy_budget + 1e-9
    };

    let h = (0..=s).find(|&h| reach[h as usize].is_some() && feasible(h))?;

    // Reconstruct the high-rate subset.
    let mut rates = vec![0usize; n];
    let mut rem = h as usize;
    while rem > 0 {
        let i = reach[rem].expect("reachable sums have provenance");
        rates[i] = 1;
        rem -= instance.cycles[i] as usize;
    }
    Some(rates)
}

/// Answer Partition through Theorem 1's reduction: `Some(mask)` with
/// `mask[i] == true` for one half when the multiset splits evenly.
#[must_use]
pub fn solve_partition_via_reduction(a: &[u64]) -> Option<Vec<bool>> {
    let s: u64 = a.iter().sum();
    if !s.is_multiple_of(2) {
        return None;
    }
    let instance = reduction_from_partition(a);
    let rates = solve_two_rate(&instance)?;
    // The gadget admits a schedule iff the high-rate cycles total exactly
    // S/2 (Theorem 1's counting argument); the high-rate set is one half.
    let half: u64 = a
        .iter()
        .zip(&rates)
        .filter(|&(_, &r)| r == 1)
        .map(|(&c, _)| c)
        .sum();
    debug_assert_eq!(half * 2, s, "gadget forces an exact split");
    Some(rates.iter().map(|&r| r == 1).collect())
}

/// Theorem 2's instance: two identical unit-speed cores, common deadline.
/// Feasible iff the tasks partition into halves each finishing by the
/// deadline; with `deadline = S/2` this *is* Partition. Returns the
/// core-0 membership mask when feasible.
#[must_use]
pub fn two_core_deadline_feasible(cycles: &[u64], deadline: f64) -> Option<Vec<bool>> {
    let s: u64 = cycles.iter().sum();
    // Largest per-core load allowed.
    let cap = deadline.floor();
    if cap < 0.0 {
        return None;
    }
    let cap = cap as u64;
    // Need a subset with sum in [S − cap, cap].
    if (s as f64) > 2.0 * cap as f64 {
        return None;
    }
    let mut reach: Vec<Option<usize>> = vec![None; s as usize + 1];
    reach[0] = Some(usize::MAX);
    for (i, &c) in cycles.iter().enumerate() {
        let c = c as usize;
        for h in (c..=s as usize).rev() {
            if reach[h].is_none() && reach[h - c].is_some() {
                reach[h] = Some(i);
            }
        }
    }
    let lo = s.saturating_sub(cap);
    let pick = (lo..=cap.min(s)).find(|&h| reach[h as usize].is_some())?;
    let mut mask = vec![false; cycles.len()];
    let mut rem = pick as usize;
    while rem > 0 {
        let i = reach[rem].expect("reachable sums have provenance");
        mask[i] = true;
        rem -= cycles[i] as usize;
    }
    Some(mask)
}

/// Exact minimum-energy schedule for a common deadline with an arbitrary
/// rate table: enumerate the Pareto frontier of `(time, energy)` over
/// per-task rate choices (order is irrelevant under a common deadline on
/// one core). Returns the rates and the minimum energy, or `None` when
/// even the fastest rates miss the deadline.
///
/// Worst-case exponential; intended for small `n` (validation and the
/// examples), with dominance pruning that keeps typical instances tiny.
#[must_use]
pub fn min_energy_under_deadline(
    cycles: &[u64],
    table: &RateTable,
    deadline: f64,
) -> Option<(Vec<RateIdx>, f64)> {
    #[derive(Clone)]
    struct State {
        time: f64,
        energy: f64,
        choices: Vec<RateIdx>,
    }
    let mut frontier = vec![State {
        time: 0.0,
        energy: 0.0,
        choices: Vec::new(),
    }];
    for &c in cycles {
        let mut next: Vec<State> = Vec::with_capacity(frontier.len() * table.len());
        for st in &frontier {
            for r in 0..table.len() {
                let time = st.time + table.exec_time(r, c);
                if time > deadline + 1e-9 {
                    continue; // rates get faster with r; but time shrinks → do not break
                }
                let mut choices = st.choices.clone();
                choices.push(r);
                next.push(State {
                    time,
                    energy: st.energy + table.energy(r, c),
                    choices,
                });
            }
        }
        if next.is_empty() {
            return None;
        }
        // Pareto prune: sort by time, keep strictly decreasing energy.
        next.sort_by(|a, b| {
            a.time
                .partial_cmp(&b.time)
                .expect("finite")
                .then(a.energy.partial_cmp(&b.energy).expect("finite"))
        });
        let mut pruned: Vec<State> = Vec::new();
        let mut best_energy = f64::INFINITY;
        for st in next {
            if st.energy < best_energy - 1e-15 {
                best_energy = st.energy;
                pruned.push(st);
            }
        }
        frontier = pruned;
    }
    frontier
        .into_iter()
        .min_by(|a, b| a.energy.partial_cmp(&b.energy).expect("finite"))
        .map(|s| (s.choices, s.energy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Brute-force Partition for ground truth.
    fn partition_exists(a: &[u64]) -> bool {
        let s: u64 = a.iter().sum();
        if !s.is_multiple_of(2) {
            return false;
        }
        let target = s / 2;
        (0..(1u64 << a.len())).any(|mask| {
            let sum: u64 = a
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .map(|(_, &c)| c)
                .sum();
            sum == target
        })
    }

    #[test]
    fn reduction_matches_theorem_constants() {
        let inst = reduction_from_partition(&[3, 5, 8]);
        assert_eq!(inst.cycles, vec![3, 5, 8]);
        assert_eq!(inst.deadline, 24.0); // 1.5 * 16
        assert_eq!(inst.energy_budget, 40.0); // 2.5 * 16
        assert_eq!(inst.table.len(), 2);
    }

    #[test]
    fn feasible_partition_instances_solve() {
        // {3, 5, 8}: 3+5 = 8 → partitionable.
        let sol = solve_partition_via_reduction(&[3, 5, 8]).expect("partitionable");
        let s: u64 = [3u64, 5, 8]
            .iter()
            .zip(&sol)
            .filter(|&(_, &m)| m)
            .map(|(&c, _)| c)
            .sum();
        assert_eq!(s, 8);
    }

    #[test]
    fn infeasible_partition_instances_fail() {
        assert!(solve_partition_via_reduction(&[1, 2, 4]).is_none());
        assert!(solve_partition_via_reduction(&[1]).is_none());
        // Even sum but no valid split: {1, 1, 4, 6} → sum 12, target 6 =
        // 6 alone... that splits. Use {2, 2, 2, 10}: sum 16, target 8,
        // subsets: 2,4,6,10,12,14,16 → no 8.
        assert!(solve_partition_via_reduction(&[2, 2, 2, 10]).is_none());
    }

    #[test]
    fn two_rate_solver_respects_both_budgets() {
        let inst = reduction_from_partition(&[4, 4, 4, 4]);
        let rates = solve_two_rate(&inst).expect("feasible: split 8/8");
        let (lo, hi) = (inst.table.rate(0), inst.table.rate(1));
        let time: f64 = inst
            .cycles
            .iter()
            .zip(&rates)
            .map(|(&c, &r)| {
                c as f64
                    * if r == 1 {
                        hi.time_per_cycle
                    } else {
                        lo.time_per_cycle
                    }
            })
            .sum();
        let energy: f64 = inst
            .cycles
            .iter()
            .zip(&rates)
            .map(|(&c, &r)| {
                c as f64
                    * if r == 1 {
                        hi.energy_per_cycle
                    } else {
                        lo.energy_per_cycle
                    }
            })
            .sum();
        assert!(time <= inst.deadline + 1e-9);
        assert!(energy <= inst.energy_budget + 1e-9);
    }

    #[test]
    fn two_core_matches_partition() {
        // deadline = S/2 ⇔ Partition (Theorem 2).
        let a = [3u64, 5, 8];
        let mask = two_core_deadline_feasible(&a, 8.0).expect("partitionable");
        let s0: u64 = a
            .iter()
            .zip(&mask)
            .filter(|&(_, &m)| m)
            .map(|(&c, _)| c)
            .sum();
        assert_eq!(s0, 8); // both halves are 8
        assert!(two_core_deadline_feasible(&[2, 2, 2, 10], 8.0).is_none());
        // Looser deadline admits unbalanced splits.
        assert!(two_core_deadline_feasible(&[2, 2, 2, 10], 10.0).is_some());
        // Impossibly tight deadline fails.
        assert!(two_core_deadline_feasible(&[4, 4], 3.0).is_none());
    }

    #[test]
    fn min_energy_uses_slow_rates_when_deadline_is_loose() {
        let table = RateTable::i7_950_table2();
        let cycles = [1_000_000_000u64, 2_000_000_000];
        let (rates, energy) = min_energy_under_deadline(&cycles, &table, 1e9).unwrap();
        assert!(rates.iter().all(|&r| r == 0), "loose deadline → all slow");
        let expect: f64 = cycles.iter().map(|&c| table.energy(0, c)).sum();
        assert!((energy - expect).abs() < 1e-9);
    }

    #[test]
    fn min_energy_fails_when_even_max_rate_misses() {
        let table = RateTable::i7_950_table2();
        // 3e9 cycles at 0.33 ns = 0.99 s minimum; deadline 0.5 s fails.
        assert!(min_energy_under_deadline(&[3_000_000_000], &table, 0.5).is_none());
    }

    #[test]
    fn min_energy_mixes_rates_under_tight_deadline() {
        let table = RateTable::i7_950_two_rates();
        // Two 1.6e9-cycle tasks: all-slow takes 2.0 s, all-fast 1.056 s.
        // Deadline 1.6 s forces exactly one task fast (1.528 s).
        let (rates, _) = min_energy_under_deadline(&[1_600_000_000, 1_600_000_000], &table, 1.6)
            .expect("feasible with one fast task");
        let fast = rates.iter().filter(|&&r| r == 1).count();
        assert_eq!(fast, 1, "exactly one task should run fast: {rates:?}");
    }

    #[test]
    fn min_energy_matches_exhaustive_enumeration() {
        let table = RateTable::i7_950_table2();
        let cycles = [900_000_000u64, 2_500_000_000, 600_000_000];
        let deadline = 2.0;
        let got = min_energy_under_deadline(&cycles, &table, deadline);
        // Exhaustive 5^3 enumeration.
        let mut best: Option<f64> = None;
        for mask in 0..125usize {
            let mut m = mask;
            let (mut time, mut energy) = (0.0, 0.0);
            for &c in &cycles {
                let r = m % 5;
                m /= 5;
                time += table.exec_time(r, c);
                energy += table.energy(r, c);
            }
            if time <= deadline {
                best = Some(best.map_or(energy, |b: f64| b.min(energy)));
            }
        }
        match (got, best) {
            (Some((_, e)), Some(b)) => assert!((e - b).abs() < 1e-9),
            (None, None) => {}
            other => panic!("solver and enumeration disagree: {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_reduction_equivalent_to_partition(
            a in prop::collection::vec(1u64..60, 1..12),
        ) {
            let via_reduction = solve_partition_via_reduction(&a).is_some();
            prop_assert_eq!(via_reduction, partition_exists(&a));
        }

        #[test]
        fn prop_two_core_equivalent_to_partition(
            a in prop::collection::vec(1u64..60, 1..12),
        ) {
            let s: u64 = a.iter().sum();
            if s.is_multiple_of(2) {
                let feasible = two_core_deadline_feasible(&a, s as f64 / 2.0).is_some();
                prop_assert_eq!(feasible, partition_exists(&a));
            }
        }

        #[test]
        fn prop_returned_masks_are_valid(
            a in prop::collection::vec(1u64..40, 2..10),
        ) {
            if let Some(mask) = solve_partition_via_reduction(&a) {
                let s: u64 = a.iter().sum();
                let half: u64 = a.iter().zip(&mask).filter(|&(_, &m)| m).map(|(&c, _)| c).sum();
                prop_assert_eq!(half * 2, s);
            }
        }
    }
}
