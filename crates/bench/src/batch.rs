//! Batch-mode sweeps, ablations and extensions around Figs. 1–2 and
//! Section III: contention calibration, batch size, wall energy,
//! deadlines and energy budgets, the continuous-speed floor, and an
//! attack on WBG's optimality.

use crate::experiments::{run_policy, wbg_and_olb};
use crate::format::pct;
use crate::Outcome;
use dvfs_core::batch::predict_plan_cost;
use dvfs_core::deadline::min_energy_under_deadline;
use dvfs_core::deadline_batch::{
    schedule_multicore_with_deadline, schedule_single_core_with_budgets,
    schedule_single_core_with_deadline,
};
use dvfs_core::validate::{local_search, random_plan};
use dvfs_core::yds::{yds, YdsJob};
use dvfs_core::{schedule_wbg, PlanPolicy};
use dvfs_model::task::batch_workload;
use dvfs_model::{CoreSpec, CostParams, Platform, RateTable, Task};
use dvfs_power::{memory_contention, PowerMeter};
use dvfs_sim::SimConfig;
use dvfs_workloads::{spec_batch_tasks, SpecInput};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write;

/// Calibration sweep behind Fig. 1: the Sim-vs-Exp cost gap as a
/// function of the contention coefficient.
///
/// The paper reports an ≈8% gap and attributes it to shared-cache/memory
/// contention. Our "Exp" substitutes a linear contention model
/// (`1/(1 + α·(busy−1))`); this sweep shows the gap is essentially
/// linear in α and that α = 0.03 lands on the paper's number — i.e. the
/// reproduction has exactly one calibrated knob, disclosed here.
pub fn fig1_sweep(out: &mut String) -> Outcome {
    let params = CostParams::batch_paper();
    let table = RateTable::i7_950_two_rates();
    let platform =
        Platform::homogeneous(4, CoreSpec::new(table).with_idle_power(2.0)).expect("4 cores");
    let tasks = spec_batch_tasks(SpecInput::Both);
    let plan = schedule_wbg(&tasks, &platform, params);
    let predicted = predict_plan_cost(&plan, &tasks, &platform, params);

    out.push_str("Sim-vs-Exp total-cost gap vs contention coefficient α (paper: ≈ +8%)\n\n");
    writeln!(out, "{:>8} {:>12} {:>12}", "alpha", "Exp cost", "gap")?;
    for alpha in [0.0f64, 0.01, 0.02, 0.03, 0.04, 0.06, 0.08] {
        let cfg = SimConfig::new(platform.clone())
            .with_contention(memory_contention(alpha))
            .with_power_timeline();
        let report = run_policy(cfg, &tasks, &mut PlanPolicy::new(plan.clone()));
        let meter = PowerMeter::dw6091_like(1);
        let idle = platform.total_idle_power();
        let reading = meter.measure(&report.power_timeline, report.makespan, idle);
        let exp_cost =
            params.re * reading.active_energy(idle) + params.rt * report.total_turnaround();
        writeln!(
            out,
            "{:>8.2} {:>12.1} {:>11.1}%",
            alpha,
            exp_cost,
            pct(exp_cost, predicted)
        )?;
    }
    Ok(())
}

/// `times` copies of `tasks`, renumbered from 0.
fn replicate(tasks: &[Task], times: usize) -> Vec<Task> {
    let copies = tasks.iter().cycle().take(tasks.len() * times);
    (0u64..)
        .zip(copies)
        .map(|(id, t)| Task::batch(id, t.cycles).expect("positive cycles"))
        .collect()
}

/// Ablation: how the Fig. 2 comparison depends on batch size.
///
/// With 24 tasks over 4 cores, each core holds only 6 backward
/// positions, all inside the low-frequency dominating ranges of
/// Table II — so WBG's time penalty against the all-max-frequency OLB is
/// structural. Replicating the batch pushes most positions past the
/// `k ≥ 10 → 3.0 GHz` boundary and the time penalty collapses toward
/// the paper's +4% while the energy saving persists, showing where the
/// published operating point lies.
pub fn fig2_sweep(out: &mut String) -> Outcome {
    let params = CostParams::batch_paper();
    let base = spec_batch_tasks(SpecInput::Both);
    out.push_str("FIG. 2 ABLATION — WBG vs OLB as the batch grows (quad-core)\n\n");
    writeln!(
        out,
        "{:>8} {:>10} {:>14} {:>14} {:>14}",
        "batch", "tasks/core", "energy delta", "time delta", "total delta"
    )?;
    for times in [1usize, 2, 4, 8, 16, 32] {
        let tasks = replicate(&base, times);
        let platform = Platform::i7_950_quad();

        let (wbg, olb) = wbg_and_olb(&tasks, &platform, params);
        let (wbg, olb) = (wbg.cost(params), olb.cost(params));

        writeln!(
            out,
            "{:>8} {:>10} {:>13.1}% {:>13.1}% {:>13.1}%",
            24 * times,
            6 * times,
            pct(wbg.energy_cost, olb.energy_cost),
            pct(wbg.time_cost, olb.time_cost),
            pct(wbg.total(), olb.total()),
        )?;
    }
    out.push_str("\n(paper's operating point: energy −46%, time +4%, total −27%)\n");
    Ok(())
}

/// Ablation: does WBG's batch-mode win survive *wall* energy accounting?
///
/// The paper subtracts idle power before comparing (its meter measures
/// the whole box). But WBG stretches the makespan — slow heavy tasks
/// keep the machine on longer, burning idle power on every core — so
/// idle-subtracted accounting flatters it. This ablation recomputes
/// Fig. 2 charging the full wall energy (active + idle over the
/// makespan) at several per-core idle power levels.
pub fn idle_energy(out: &mut String) -> Outcome {
    let params = CostParams::batch_paper();
    let tasks = spec_batch_tasks(SpecInput::Both);

    out.push_str("FIG. 2 under wall-energy accounting (active + idle), varying idle power\n\n");
    writeln!(
        out,
        "{:>12} {:>16} {:>16} {:>14}",
        "idle W/core", "WBG wall cost", "OLB wall cost", "WBG delta"
    )?;
    for idle_w in [0.0f64, 1.0, 2.0, 5.0, 10.0, 20.0] {
        let platform = Platform::homogeneous(
            4,
            CoreSpec::new(RateTable::i7_950_table2()).with_idle_power(idle_w),
        )
        .expect("4 cores");

        let (wbg, olb) = wbg_and_olb(&tasks, &platform, params);
        let (wbg, olb) = (wbg.wall_cost(params), olb.wall_cost(params));

        writeln!(
            out,
            "{:>12.1} {:>16.2} {:>16.2} {:>13.1}%",
            idle_w,
            wbg.total(),
            olb.total(),
            pct(wbg.total(), olb.total())
        )?;
    }
    out.push_str("\n(the paper's idle-subtracted comparison corresponds to the 0 W row)\n");
    Ok(())
}

/// Extension experiment: the cost/deadline trade-off curve.
///
/// Section III-A proves deadline-constrained scheduling NP-complete and
/// moves on; this sweep shows what the greedy rate-escalation heuristic
/// (`dvfs_core::deadline_batch`) pays as a common deadline tightens on
/// the SPEC train workloads: energy rises as tasks are forced to faster
/// rates, waiting falls, and the curve ends at the all-max-rate
/// feasibility frontier.
pub fn deadline_sweep(out: &mut String) -> Outcome {
    let params = CostParams::batch_paper();
    let platform = Platform::i7_950_quad();
    let tasks = spec_batch_tasks(SpecInput::Train);

    // Feasibility frontier: the heaviest WBG core at max rate.
    out.push_str("Cost vs deadline on the 12 SPEC train workloads (quad-core)\n\n");
    writeln!(
        out,
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "deadline", "makespan", "energy (J)", "waiting (s)", "total cost"
    )?;
    for deadline in [
        1e9f64, 400.0, 300.0, 250.0, 200.0, 170.0, 150.0, 140.0, 130.0,
    ] {
        match schedule_multicore_with_deadline(&tasks, &platform, params, deadline) {
            Some(plan) => {
                let cfg = SimConfig::new(platform.clone());
                let report = run_policy(cfg, &tasks, &mut PlanPolicy::new(plan));
                let cost = report.cost(params);
                let label = if deadline >= 1e9 {
                    "inf".to_string()
                } else {
                    format!("{deadline:.0}")
                };
                writeln!(
                    out,
                    "{:>10} {:>12.1} {:>12.1} {:>12.1} {:>12.2}",
                    label,
                    report.makespan,
                    cost.energy_joules,
                    cost.waiting_seconds,
                    cost.total()
                )?;
            }
            None => {
                writeln!(out, "{deadline:>10.0} {:>12}", "infeasible")?;
            }
        }
    }
    Ok(())
}

/// Extension experiment: the feasible (deadline, energy-budget) region
/// of Section III-A, mapped by the bi-criteria greedy.
///
/// Theorem 1 proves deciding feasibility under both budgets NP-complete;
/// the greedy of `schedule_single_core_with_budgets` answers soundly
/// (never violates a budget) but incompletely. This sweep charts, for a
/// grid of (deadline, energy) budget pairs over the SPEC train tasks on
/// one core, whether the greedy finds a plan and at what cost —
/// visualizing the trade-off surface the proof only says is hard.
pub fn budget_sweep(out: &mut String) -> Outcome {
    let params = CostParams::batch_paper();
    let table = RateTable::i7_950_table2();
    let tasks = spec_batch_tasks(SpecInput::Train);

    let total_cycles: f64 = tasks.iter().map(|t| t.cycles as f64).sum();
    let min_time = total_cycles * table.rate(table.max_rate()).time_per_cycle;
    let min_energy = total_cycles * table.rate(0).energy_per_cycle;

    writeln!(
        out,
        "Greedy feasibility/cost over the (deadline, energy) budget grid\n\
         (12 SPEC train tasks, one core; deadline in multiples of the all-max\n\
         makespan {min_time:.0} s, energy in multiples of the all-min energy {min_energy:.0} J)\n"
    )?;
    write!(out, "{:>10}", "D\\E")?;
    let e_fracs = [1.02f64, 1.1, 1.3, 1.6, 2.2];
    for ef in e_fracs {
        write!(out, "{ef:>12.2}")?;
    }
    writeln!(out)?;
    for df in [1.02f64, 1.1, 1.3, 1.6, 2.0] {
        write!(out, "{df:>10.2}")?;
        for ef in e_fracs {
            let plan = schedule_single_core_with_budgets(
                &tasks,
                &table,
                params,
                Some(min_time * df),
                Some(min_energy * ef),
            );
            match plan {
                Some(p) => write!(out, "{:>12.0}", p.predicted_cost)?,
                None => write!(out, "{:>12}", "-")?,
            }
        }
        writeln!(out)?;
    }
    out.push_str("\n(numbers are the plan's total cost in cents; '-' = greedy found no plan)\n");
    Ok(())
}

/// Least-squares fit of `P(s) = c·s^a` to the table's (speed, power)
/// points, in log space.
fn fit_power(table: &RateTable) -> (f64, f64) {
    let pts: Vec<(f64, f64)> = table
        .points()
        .iter()
        .map(|r| {
            let speed = 1.0 / r.time_per_cycle;
            (speed.ln(), r.active_power_watts().ln())
        })
        .collect();
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let a = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let c = ((sy - a * sx) / n).exp();
    (c, a)
}

/// Extension experiment: the price of discrete rates and of polynomial
/// time, measured against Yao–Demers–Shenker.
///
/// For a common-deadline batch, three energy figures bracket the design
/// space:
///
/// 1. **YDS** (continuous speeds, power fitted to Table II) — the
///    information-theoretic floor;
/// 2. **exact discrete** (`min_energy_under_deadline`, Pareto DP) — the
///    best any per-core-DVFS system with Table II's five levels can do;
/// 3. **greedy escalation** (`deadline_batch`) — what the polynomial
///    heuristic achieves.
///
/// Gap 1→2 is the quantization cost of a finite rate set; gap 2→3 is the
/// heuristic's optimality loss.
pub fn yds_compare(out: &mut String) -> Outcome {
    let table = RateTable::i7_950_table2();
    let params = CostParams::batch_paper();
    let (coeff, alpha) = fit_power(&table);
    writeln!(
        out,
        "Fitted continuous power curve: P(s) = {:.3e} * s^{:.3}\n",
        coeff, alpha
    )?;

    let cycles: Vec<u64> = vec![
        2_000_000_000,
        1_500_000_000,
        800_000_000,
        3_200_000_000,
        400_000_000,
    ];
    let tasks = batch_workload(&cycles);
    let min_span: f64 = cycles
        .iter()
        .map(|&c| table.exec_time(table.max_rate(), c))
        .sum();

    writeln!(
        out,
        "{:>10} {:>14} {:>16} {:>16} {:>10} {:>10}",
        "deadline", "YDS (J)", "exact disc (J)", "heuristic (J)", "quant gap", "heur gap"
    )?;
    for frac in [2.0f64, 1.6, 1.3, 1.15, 1.05, 1.01] {
        let deadline = min_span * frac;
        // YDS floor: single critical interval at speed total/deadline.
        let jobs: Vec<YdsJob> = cycles
            .iter()
            .enumerate()
            .map(|(i, &c)| YdsJob {
                id: i as u64,
                release: 0.0,
                deadline,
                work: c as f64,
            })
            .collect();
        let continuous = yds(&jobs);
        // Continuous speeds are unbounded below; real hardware floors at
        // the slowest rate. Clamp to the table's min execution speed so
        // the floor is honest.
        let min_speed = 1.0 / table.rate(0).time_per_cycle;
        let yds_energy: f64 = continuous
            .assignments
            .iter()
            .map(|a| {
                let s = a.speed.max(min_speed);
                let w = jobs[a.id as usize].work;
                coeff * s.powf(alpha) * (w / s)
            })
            .sum();

        let exact = min_energy_under_deadline(&cycles, &table, deadline)
            .map(|(_, e)| e)
            .expect("feasible by construction");

        let heuristic = schedule_single_core_with_deadline(&tasks, &table, params, deadline)
            .expect("feasible by construction");
        let heur_energy: f64 = heuristic
            .order
            .iter()
            .map(|&(tid, r)| {
                let t = tasks.iter().find(|t| t.id == tid).expect("exists");
                table.energy(r, t.cycles)
            })
            .sum();

        writeln!(
            out,
            "{:>9.3}s {:>14.2} {:>16.2} {:>16.2} {:>9.1}% {:>9.1}%",
            deadline,
            yds_energy,
            exact,
            heur_energy,
            pct(exact, yds_energy),
            pct(heur_energy, exact),
        )?;
    }
    out.push_str(
        "\nquant gap = exact-discrete over the continuous YDS floor; small negative
values are artifacts of the least-squares power fit, which does not pass
exactly through every Table II point.
heur gap  = greedy escalation over the exact discrete optimum.
(the heuristic also optimizes waiting cost, so its energy may sit above the
 energy-only optimum even when its total cost is good)\n",
    );
    Ok(())
}

/// Empirical optimality validation of Workload Based Greedy at scale.
///
/// Theorems 4–5 are verified against exhaustive search for tiny
/// instances in the unit tests; here a randomized hill-climber attacks
/// WBG plans for hundreds of tasks on a heterogeneous platform, across
/// many seeds in parallel. Finding even one improving move would
/// falsify the optimality claim (or our implementation), and the
/// artifact fails.
pub fn validate_wbg(out: &mut String) -> Outcome {
    let (n_instances, n_tasks, moves) = (16u64, 200usize, 50_000usize);
    let params = CostParams::batch_paper();

    let results: Vec<(u64, usize, f64, f64)> = crate::par_map_seeds(n_instances, |seed| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cycles: Vec<u64> = (0..n_tasks)
            .map(|_| rng.gen_range(1..50_000_000_000))
            .collect();
        let tasks = batch_workload(&cycles);
        let platform = Platform::big_little(2, 2);
        let wbg = schedule_wbg(&tasks, &platform, params);
        let wbg_cost = predict_plan_cost(&wbg, &tasks, &platform, params);
        // Attack from WBG itself.
        let from_wbg = local_search(&wbg, &tasks, &platform, params, moves, seed + 1000);
        // And independently from a random start.
        let start = random_plan(&tasks, &platform, seed + 2000);
        let from_rand = local_search(&start, &tasks, &platform, params, moves, seed + 3000);
        (seed, from_wbg.improvements, wbg_cost, from_rand.cost)
    });

    writeln!(
        out,
        "WBG optimality attack: {n_instances} instances × {n_tasks} tasks × {moves} moves each\n"
    )?;
    writeln!(
        out,
        "{:>6} {:>18} {:>16} {:>20}",
        "seed", "improving moves", "WBG cost", "random-start best"
    )?;
    let mut falsified = 0;
    for (seed, improvements, wbg_cost, rand_best) in &results {
        writeln!(
            out,
            "{:>6} {:>18} {:>16.2} {:>19.2} ({:+.2}%)",
            seed,
            improvements,
            wbg_cost,
            rand_best,
            pct(*rand_best, *wbg_cost)
        )?;
        if *improvements > 0 || *rand_best < wbg_cost * (1.0 - 1e-9) {
            falsified += 1;
        }
    }
    writeln!(
        out,
        "\n{} of {} instances falsified WBG optimality (expected: 0).",
        falsified, n_instances
    )?;
    if falsified > 0 {
        return Err(
            format!("{falsified} of {n_instances} instances falsified WBG optimality").into(),
        );
    }
    Ok(())
}
