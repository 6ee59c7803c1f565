//! Online-mode sweeps, ablations and extensions around Fig. 3 and
//! Section IV: load, trace seeds, governors, heterogeneous cores, the
//! migration trade-off, switch latency, Eq. 27's core choice and firm
//! interactive deadlines.

use crate::experiments::{heavy_trace, run_fig3, run_online, run_policy};
use crate::format::pct;
use crate::{par_map_seeds, Outcome};
use dvfs_baselines::{OnDemandOnline, OnlinePolicy};
use dvfs_core::{InteractivePlacement, LeastMarginalCost};
use dvfs_model::{CostParams, Platform, TaskClass};
use dvfs_sim::{GovernorKind, SimConfig, SimReport};
use dvfs_workloads::JudgeTraceConfig;
use std::collections::HashMap;
use std::fmt::Write;

/// Ablation: how the Fig. 3 comparison depends on judge-server load.
///
/// The published Judgegirl trace fixes counts and duration but not the
/// per-submission CPU weight; this sweep scales the submission cycle
/// means from the light default (≈9% utilization) to heavy overload and
/// reports the LMC-vs-baseline deltas at each point. It locates the
/// crossover where LMC's time cost drops below OLB's (shortest-first
/// queueing wins once queues actually form), while LMC's total-cost win
/// holds across the whole range.
pub fn fig3_sweep(out: &mut String) -> Outcome {
    let params = CostParams::online_paper();
    let platform = Platform::i7_950_quad();
    out.push_str("FIG. 3 ABLATION — LMC deltas vs load (submission weight multiplier)\n\n");
    writeln!(
        out,
        "{:>6} {:>22} {:>22} {:>22}",
        "mult", "LMC vs OLB (E/T/total)", "LMC vs OD (E/T/total)", "utilization"
    )?;
    for mult in [1.0, 2.0, 3.0, 5.0, 8.0, 10.0, 15.0] {
        let mut cfg = JudgeTraceConfig::paper(1);
        for m in &mut cfg.submission_mean_cycles {
            *m *= mult;
        }
        let trace = cfg.generate();
        let run = |p| run_online(p, SimConfig::new(platform.clone()), &trace, params);
        let lmc = run(OnlinePolicy::Lmc);
        let (cl, co, cd) = (
            lmc.cost(params),
            run(OnlinePolicy::Olb).cost(params),
            run(OnlinePolicy::OnDemand).cost(params),
        );
        // Utilization: busy core-seconds over 4 × trace span.
        let busy: f64 = lmc.core_busy.iter().sum();
        let util = busy / (4.0 * lmc.makespan) * 100.0;
        writeln!(
            out,
            "{:>6.1} {:>6.1}/{:>6.1}/{:>6.1}% {:>6.1}/{:>6.1}/{:>6.1}% {:>15.1}%",
            mult,
            pct(cl.energy_cost, co.energy_cost),
            pct(cl.time_cost, co.time_cost),
            pct(cl.total(), co.total()),
            pct(cl.energy_cost, cd.energy_cost),
            pct(cl.time_cost, cd.time_cost),
            pct(cl.total(), cd.total()),
            util
        )?;
    }
    out.push_str("\n(paper reports: vs OLB −11/−31/−17%, vs OD −11/−46/−24%)\n");
    Ok(())
}

fn mean_sd(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Statistical robustness of the Fig. 3 comparison: the full experiment
/// across many trace seeds (in parallel, one chunk of seeds per core),
/// reporting mean ± standard deviation of every delta. A single
/// synthetic trace could be lucky; twenty aren't.
///
/// Every seed replays the full 51 293-task trace: shrinking it would
/// shrink the queueing that gives LMC its time advantage.
pub fn fig3_seeds(out: &mut String) -> Outcome {
    let (n_seeds, scale) = (20u64, 1usize);
    // Per seed, against OLB then On-demand: LMC's energy, time-cost and
    // total deltas.
    let deltas: Vec<[[f64; 3]; 2]> = par_map_seeds(n_seeds, |seed| {
        let r = run_fig3(seed, scale);
        [&r.olb, &r.od].map(|base| {
            [
                pct(r.lmc.energy_cost, base.energy_cost),
                pct(r.lmc.time_cost, base.time_cost),
                pct(r.lmc.total(), base.total()),
            ]
        })
    });

    writeln!(
        out,
        "FIG. 3 over {n_seeds} trace seeds (scale {scale}): LMC deltas, mean ± sd\n"
    )?;
    let papers = [
        ("OLB", [-11.0, -31.0, -17.0]),
        ("OD", [-11.0, -46.0, -24.0]),
    ];
    for (b, (base, paper)) in papers.iter().enumerate() {
        for (m, metric) in ["energy", "time cost", "total"].iter().enumerate() {
            let xs: Vec<f64> = deltas.iter().map(|d| d[b][m]).collect();
            let (mean, sd) = mean_sd(&xs);
            let label = format!("vs {base} {metric}");
            let paper = paper[m];
            writeln!(
                out,
                "{label:<22} {mean:>8.1}% ± {sd:>5.1}   (paper {paper:+.0}%)"
            )?;
        }
    }
    let wins = deltas
        .iter()
        .filter(|d| d[0][2] < 0.0 && d[1][2] < 0.0)
        .count();
    writeln!(
        out,
        "\nLMC wins total cost against both baselines in {wins}/{n_seeds} seeds."
    )?;
    Ok(())
}

/// Ablation: governor dynamics under the online judge workload.
///
/// Compares round-robin placement under four frequency regimes —
/// `performance` (always max), the paper's `ondemand` (jump up / step
/// down), Linux-default `conservative` (step both ways), and
/// `powersave`-style capped ondemand — quantifying how much of the
/// On-demand baseline's time-cost penalty in Fig. 3 comes from governor
/// reaction lag versus placement.
pub fn governors(out: &mut String) -> Outcome {
    let params = CostParams::online_paper();
    let platform = Platform::i7_950_quad();
    let trace = heavy_trace(1, 4).generate();

    writeln!(
        out,
        "Round-robin placement under different governors ({} tasks)\n",
        trace.len()
    )?;
    writeln!(
        out,
        "{:<14} {:>12} {:>14} {:>12} {:>12}",
        "governor", "energy (J)", "waiting (s)", "makespan", "total cost"
    )?;
    let cfg = || SimConfig::new(platform.clone());
    let regimes = [
        (
            "performance",
            cfg().with_governor(GovernorKind::Performance),
        ),
        (
            "ondemand",
            cfg().with_governor(GovernorKind::ondemand_paper()),
        ),
        (
            "conservative",
            cfg().with_governor(GovernorKind::conservative_default()),
        ),
        (
            "powersave-cap",
            cfg()
                .with_governor(GovernorKind::ondemand_paper())
                .with_rate_cap(2),
        ),
    ];
    for (name, simcfg) in regimes {
        let mut policy = OnDemandOnline::new(platform.num_cores());
        let report = run_policy(simcfg, &trace, &mut policy);
        let cost = report.cost(params);
        writeln!(
            out,
            "{:<14} {:>12.1} {:>14.1} {:>12.2} {:>12.2}",
            name,
            cost.energy_joules,
            cost.waiting_seconds,
            report.makespan,
            cost.total()
        )?;
    }
    Ok(())
}

/// Extension experiment: the online schedulers on a heterogeneous
/// big.LITTLE platform (2× i7-class + 2× Exynos-class cores, the CPUs
/// Section II-B cites). The paper's formulation supports heterogeneous
/// cores (`C_j(k)`, Theorem 5); its evaluation only exercised the
/// homogeneous i7. This runs the Fig. 3 comparison on the mixed
/// platform, where LMC's per-core marginal costs also weigh core
/// efficiency, not just queue length.
pub fn hetero_online(out: &mut String) -> Outcome {
    let params = CostParams::online_paper();
    let platform = Platform::big_little(2, 2);
    let mut cfg = heavy_trace(1, 4);
    // Halve weights: the little cores contribute less capacity.
    for m in &mut cfg.submission_mean_cycles {
        *m *= 0.5;
    }
    let trace = cfg.generate();

    writeln!(
        out,
        "Online scheduling on big.LITTLE (2× i7 + 2× Exynos), {} tasks\n",
        trace.len()
    )?;
    for (name, policy) in [
        ("LMC", OnlinePolicy::Lmc),
        ("OLB", OnlinePolicy::Olb),
        ("On-demand", OnlinePolicy::OnDemand),
    ] {
        let r = run_online(policy, SimConfig::new(platform.clone()), &trace, params);
        let c = r.cost(params);
        writeln!(
            out,
            "{:<12} energy {:>9.1} J   waiting {:>10.1} s   total {:>9.2}   busy big {:>6.0}s/{:>6.0}s little {:>6.0}s/{:>6.0}s",
            name,
            c.energy_joules,
            c.waiting_seconds,
            c.total(),
            r.core_busy[0],
            r.core_busy[1],
            r.core_busy[2],
            r.core_busy[3]
        )?;
    }
    Ok(())
}

/// Ablation: the migration trade-off of Section IV.
///
/// The paper argues LMC exists because full WBG redistribution on every
/// arrival "yields the minimum cost" but migration overhead makes it
/// impractical — without ever quantifying the gap. This measures it:
/// LMC (no migration) against `WbgReassign` (full redistribution at
/// *zero* migration cost — the most favorable case for redistribution)
/// on the Judgegirl-style trace across load levels. The trace is cut to
/// an eighth, since WBG reassign is O(Q log Q) per arrival.
pub fn lmc_vs_wbg_online(out: &mut String) -> Outcome {
    let params = CostParams::online_paper();
    let platform = Platform::i7_950_quad();

    out.push_str("LMC vs zero-cost-migration WBG redistribution (Section IV trade-off)\n\n");
    writeln!(
        out,
        "{:>6} {:>14} {:>14} {:>16}",
        "mult", "LMC total", "WBG-RA total", "LMC overhead"
    )?;
    for mult in [1.0f64, 3.0, 5.0, 10.0] {
        let mut cfg = JudgeTraceConfig::paper_scaled(1, 8);
        for m in &mut cfg.submission_mean_cycles {
            *m *= mult;
        }
        let trace = cfg.generate();
        let total = |p| {
            let r = run_online(p, SimConfig::new(platform.clone()), &trace, params);
            r.cost(params).total()
        };
        let (lmc, wbg) = (total(OnlinePolicy::Lmc), total(OnlinePolicy::Wbg));
        writeln!(
            out,
            "{:>6.1} {:>14.2} {:>14.2} {:>15.2}%",
            mult,
            lmc,
            wbg,
            pct(lmc, wbg)
        )?;
    }
    writeln!(
        out,
        "\n'LMC overhead' = extra cost of the migration-free heuristic relative to\n\
         an idealized redistributor; the paper asserts this is worth paying to\n\
         avoid migration overhead."
    )?;
    Ok(())
}

/// Ablation: does DVFS transition latency erode LMC's advantage?
///
/// The paper's model assumes frequency changes are free; real per-core
/// DVFS transitions cost tens of microseconds of stalled execution. LMC
/// changes the running task's frequency whenever its queue grows, so it
/// switches far more often than OLB (which pins the maximum). This sweep
/// replays the Fig. 3 trace (cut to a quarter) with increasing
/// transition latency and reports the LMC-vs-OLB total-cost delta —
/// locating the latency at which the paper's conclusion would flip.
pub fn switch_latency(out: &mut String) -> Outcome {
    let params = CostParams::online_paper();
    let platform = Platform::i7_950_quad();
    let trace = heavy_trace(1, 4).generate();

    writeln!(
        out,
        "LMC vs OLB total cost as DVFS transition latency grows ({} tasks)\n",
        trace.len()
    )?;
    writeln!(
        out,
        "{:>12} {:>14} {:>14} {:>12}",
        "latency", "LMC total", "OLB total", "LMC delta"
    )?;
    for latency_us in [0.0f64, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 20000.0] {
        let total = |p| {
            let cfg = SimConfig::new(platform.clone()).with_switch_latency(latency_us * 1e-6);
            run_online(p, cfg, &trace, params).cost(params).total()
        };
        let (lmc, olb) = (total(OnlinePolicy::Lmc), total(OnlinePolicy::Olb));
        writeln!(
            out,
            "{:>9} µs {:>14.2} {:>14.2} {:>11.1}%",
            latency_us,
            lmc,
            olb,
            pct(lmc, olb)
        )?;
    }
    out.push_str("\n(negative delta = LMC still wins; OLB also pays switch stalls on dispatch)\n");
    Ok(())
}

/// Ablation: how much does Equation 27 itself matter?
///
/// LMC's interactive placement rule (Eq. 27) weighs a core's per-cycle
/// energy/time at max frequency against its queue length. This ablation
/// swaps in two simpler rules — least-queue (which the paper notes is
/// equivalent on homogeneous cores) and blind round-robin — on both the
/// homogeneous quad and the big.LITTLE platform, under the judge trace.
/// It also surfaces an honest second-order finding: under dense
/// interactive bursts on homogeneous cores, round-robin can *match or
/// slightly beat* Eq. 27, because interactive tasks preempt
/// non-interactive work anyway and the real contention is other
/// interactive tasks, which `N_j` does not count.
pub fn lmc_variants(out: &mut String) -> Outcome {
    let params = CostParams::online_paper();
    let trace = heavy_trace(1, 4).generate();

    for (label, platform) in [
        ("homogeneous quad (i7)", Platform::i7_950_quad()),
        ("big.LITTLE (2 i7 + 2 Exynos)", Platform::big_little(2, 2)),
    ] {
        writeln!(out, "--- {label}, {} tasks ---", trace.len())?;
        writeln!(
            out,
            "{:<16} {:>12} {:>14} {:>12} {:>14}",
            "placement", "energy (J)", "waiting (s)", "total cost", "interactive p99"
        )?;
        for (name, placement) in [
            ("eq27", InteractivePlacement::MarginalCost),
            ("least-queue", InteractivePlacement::LeastQueue),
            ("round-robin", InteractivePlacement::RoundRobin),
        ] {
            let mut policy =
                LeastMarginalCost::new(&platform, params).with_interactive_placement(placement);
            let report = run_policy(SimConfig::new(platform.clone()), &trace, &mut policy);
            let cost = report.cost(params);
            let p99 = report
                .turnaround_percentile(TaskClass::Interactive, 99.0)
                .unwrap_or(f64::NAN);
            writeln!(
                out,
                "{:<16} {:>12.1} {:>14.1} {:>12.2} {:>13.4}s",
                name,
                cost.energy_joules,
                cost.waiting_seconds,
                cost.total(),
                p99
            )?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Extension experiment: interactive QoS under firm deadlines.
///
/// Section II-A defines interactive tasks as having "early and firm
/// deadlines", but Fig. 3 only reports aggregate cost. This experiment
/// attaches a firm relative deadline to every interactive query and
/// reports the *miss rate* per scheduler across deadline tightness —
/// the metric an online-judge operator actually watches.
pub fn qos_misses(out: &mut String) -> Outcome {
    let params = CostParams::online_paper();
    let platform = Platform::i7_950_quad();
    out.push_str("Interactive deadline-miss rates under firm relative deadlines\n\n");
    writeln!(
        out,
        "{:>10} {:>14} {:>14} {:>14}",
        "deadline", "LMC misses", "OLB misses", "OD misses"
    )?;
    for rel_deadline in [5.0f64, 1.0, 0.3, 0.1, 0.03] {
        let trace = heavy_trace(1, 4)
            .with_interactive_deadline(rel_deadline)
            .generate();
        let deadlines: HashMap<_, _> = trace
            .iter()
            .filter_map(|t| t.deadline.map(|d| (t.id, d)))
            .collect();
        let n_interactive = trace
            .iter()
            .filter(|t| t.class == TaskClass::Interactive)
            .count();
        let rate = |p| {
            let r: SimReport = run_online(p, SimConfig::new(platform.clone()), &trace, params);
            100.0 * r.deadline_misses(&deadlines) as f64 / n_interactive as f64
        };
        writeln!(
            out,
            "{:>9.2}s {:>13.2}% {:>13.2}% {:>13.2}%",
            rel_deadline,
            rate(OnlinePolicy::Lmc),
            rate(OnlinePolicy::Olb),
            rate(OnlinePolicy::OnDemand)
        )?;
    }
    out.push_str(
        "\n(LMC preempts for interactive work; OLB/OD only prioritize within the queue)\n",
    );
    Ok(())
}
