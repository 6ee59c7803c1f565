//! The paper's own tables and figures (Section V), and the Markdown
//! summary EXPERIMENTS.md quotes.

use crate::experiments::{run_fig1, run_fig2, run_fig3, CostRow};
use crate::format::{absolute_table, normalized_table, pct_change};
use crate::Outcome;
use dvfs_core::DominatingRanges;
use dvfs_model::{CostParams, RateTable};
use dvfs_workloads::spec::{cycles_from_seconds, SPEC2006INT};
use std::fmt::{self, Write};

/// Table I: average execution times of the SPEC2006int workloads (train
/// and ref inputs) and the derived cycle estimates.
pub fn table1(out: &mut String) -> Outcome {
    out.push_str("TABLE I — AVERAGE EXECUTION TIMES OF THE WORKLOADS (SECONDS)\n");
    writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>16} {:>16}",
        "Benchmark", "train input", "ref. input", "train cycles", "ref cycles"
    )?;
    for row in &SPEC2006INT {
        writeln!(
            out,
            "{:<12} {:>12.3} {:>12.3} {:>16} {:>16}",
            row.name,
            row.train_s,
            row.ref_s,
            cycles_from_seconds(row.train_s),
            cycles_from_seconds(row.ref_s)
        )?;
    }
    let total_train: f64 = SPEC2006INT.iter().map(|r| r.train_s).sum();
    let total_ref: f64 = SPEC2006INT.iter().map(|r| r.ref_s).sum();
    writeln!(
        out,
        "{:<12} {:>12.3} {:>12.3}",
        "TOTAL", total_train, total_ref
    )?;
    out.push_str("\n(cycles = seconds x 1.6 GHz, the paper's Section V-A.1 estimation)\n");
    Ok(())
}

/// Table II: the batch-mode processing-rate parameters of the Intel
/// i7-950 platform, plus the derived active power and the dominating
/// position ranges they induce under the paper's batch cost parameters.
pub fn table2(out: &mut String) -> Outcome {
    let table = RateTable::i7_950_table2();
    out.push_str("TABLE II — PARAMETERS IN BATCH MODE\n");
    writeln!(
        out,
        "{:<10} {:>12} {:>12} {:>14}",
        "p (GHz)", "E(p) nJ/cyc", "T(p) ns/cyc", "power (W)"
    )?;
    for r in table.points() {
        writeln!(
            out,
            "{:<10.1} {:>12.3} {:>12.3} {:>14.2}",
            r.freq_hz / 1e9,
            r.energy_per_cycle * 1e9,
            r.time_per_cycle * 1e9,
            r.active_power_watts()
        )?;
    }

    let params = CostParams::batch_paper();
    let dr = DominatingRanges::compute(&table, params);
    writeln!(
        out,
        "\nDominating position ranges (Algorithm 1) at Re = {} ¢/J, Rt = {} ¢/s:",
        params.re, params.rt
    )?;
    for e in dr.entries() {
        let rate_ghz = table.rate(e.rate).freq_hz / 1e9;
        let ub = e.ub.map_or_else(|| "inf".to_string(), |ub| ub.to_string());
        writeln!(
            out,
            "  {rate_ghz:>4.1} GHz dominates backward positions [{}, {ub})",
            e.lb
        )?;
    }
    Ok(())
}

/// Fig. 1: the analytic cost model ("Sim") against the measured
/// execution on the contended platform with a sampled power meter
/// ("Exp").
pub fn fig1(out: &mut String) -> Outcome {
    let r = run_fig1(1);
    out.push_str("FIG. 1 — MODEL VERIFICATION (Sim vs Exp), normalized to Sim\n\n");
    writeln!(out, "{}", normalized_table(&[&r.sim, &r.exp], &r.sim))?;
    writeln!(
        out,
        "Exp total cost is {:+.1}% vs the model (paper: ≈ +8%)",
        pct_change(r.exp.total(), r.sim.total())
    )?;
    writeln!(
        out,
        "  energy {:+.1}%   time {:+.1}%",
        pct_change(r.exp.energy_cost, r.sim.energy_cost),
        pct_change(r.exp.time_cost, r.sim.time_cost)
    )?;
    Ok(())
}

/// Fig. 2: batch-mode cost comparison of Workload Based Greedy against
/// Opportunistic Load Balancing and Power Saving on the 24 SPEC2006int
/// workloads.
pub fn fig2(out: &mut String) -> Outcome {
    let r = run_fig2();
    cost_comparison(
        out,
        "FIG. 2 — COST COMPARISON OF SCHEDULING METHODS (batch mode)",
        [&r.wbg, &r.olb, &r.ps],
        [
            ("WBG vs OLB:", &r.olb, "−46%, +4%, −27%"),
            ("WBG vs PS:", &r.ps, "−27%, −13%, n/a"),
        ],
    )
}

/// Fig. 3: online-mode cost comparison of Least Marginal Cost against
/// Opportunistic Load Balancing and On-demand on a synthesized
/// Judgegirl-style trace (768 non-interactive + 50525 interactive tasks
/// over half an hour).
pub fn fig3(out: &mut String) -> Outcome {
    let r = run_fig3(1, 1);
    cost_comparison(
        out,
        &format!(
            "FIG. 3 — COST COMPARISON OF SCHEDULING METHODS (online mode, {} tasks)",
            r.num_tasks
        ),
        [&r.lmc, &r.olb, &r.od],
        [
            ("LMC vs OLB:", &r.olb, "−11%, −31%, −17%"),
            ("LMC vs OD:", &r.od, "−11%, −46%, −24%"),
        ],
    )
}

/// A cost figure: its rows normalized to the second (OLB), then
/// absolute, then the first row's change against each baseline beside
/// the paper's figures.
fn cost_comparison(
    out: &mut String,
    title: &str,
    rows: [&CostRow; 3],
    baselines: [(&str, &CostRow, &str); 2],
) -> Outcome {
    writeln!(out, "{title}\n")?;
    out.push_str("normalized to OLB:\n");
    writeln!(out, "{}", normalized_table(&rows, rows[1]))?;
    out.push_str("absolute:\n");
    writeln!(out, "{}", absolute_table(&rows))?;
    let ours = rows[0];
    for (label, base, paper) in baselines {
        writeln!(
            out,
            "{label:<13}energy {:+.1}%  time-cost {:+.1}%  total {:+.1}%   (paper: {paper})",
            pct_change(ours.energy_cost, base.energy_cost),
            pct_change(ours.time_cost, base.time_cost),
            pct_change(ours.total(), base.total()),
        )?;
    }
    Ok(())
}

/// The full evaluation suite (Fig. 1, Fig. 2, Fig. 3) as a
/// paper-vs-measured summary in Markdown, ready for EXPERIMENTS.md.
pub fn summary(out: &mut String) -> Outcome {
    out.push_str(
        "# Experiment summary (generated by `cargo run -p dvfs-bench --bin experiments`)\n\n",
    );
    let f1 = run_fig1(1);
    let (sim, exp) = (&f1.sim, &f1.exp);
    markdown_table(
        out,
        "## Fig. 1 — model verification",
        "quantity",
        &[
            ("Exp/Sim total-cost gap", "≈ +8%", exp.total(), sim.total()),
            (
                "Exp/Sim energy gap",
                "positive",
                exp.energy_cost,
                sim.energy_cost,
            ),
            ("Exp/Sim time gap", "positive", exp.time_cost, sim.time_cost),
        ],
    )?;
    writeln!(out)?;
    let f2 = run_fig2();
    let (wbg, olb, ps) = (&f2.wbg, &f2.olb, &f2.ps);
    markdown_table(
        out,
        "## Fig. 2 — batch mode (WBG vs OLB vs Power Saving)",
        "comparison",
        &[
            (
                "WBG vs OLB energy",
                "−46%",
                wbg.energy_cost,
                olb.energy_cost,
            ),
            ("WBG vs OLB time cost", "+4%", wbg.time_cost, olb.time_cost),
            ("WBG vs OLB total cost", "−27%", wbg.total(), olb.total()),
            ("WBG vs PS energy", "−27%", wbg.energy_cost, ps.energy_cost),
            ("WBG vs PS time cost", "−13%", wbg.time_cost, ps.time_cost),
        ],
    )?;
    writeln!(out)?;
    let f3 = run_fig3(1, 1);
    let (lmc, olb, od) = (&f3.lmc, &f3.olb, &f3.od);
    markdown_table(
        out,
        &format!(
            "## Fig. 3 — online mode (LMC vs OLB vs On-demand), {} tasks",
            f3.num_tasks
        ),
        "comparison",
        &[
            (
                "LMC vs OLB energy",
                "−11%",
                lmc.energy_cost,
                olb.energy_cost,
            ),
            ("LMC vs OLB time cost", "−31%", lmc.time_cost, olb.time_cost),
            ("LMC vs OLB total cost", "−17%", lmc.total(), olb.total()),
            ("LMC vs OD energy", "−11%", lmc.energy_cost, od.energy_cost),
            ("LMC vs OD time cost", "−46%", lmc.time_cost, od.time_cost),
            ("LMC vs OD total cost", "−24%", lmc.total(), od.total()),
        ],
    )?;
    Ok(())
}

/// One summary section: `heading`, then a row per `(label, paper's
/// figure, measured, baseline)` with the measured change in percent.
fn markdown_table(
    out: &mut String,
    heading: &str,
    first_column: &str,
    rows: &[(&str, &str, f64, f64)],
) -> fmt::Result {
    writeln!(out, "{heading}")?;
    writeln!(out, "| {first_column} | paper | measured |")?;
    out.push_str("|---|---|---|\n");
    for &(label, paper, measured, baseline) in rows {
        writeln!(
            out,
            "| {label} | {paper} | {:+.1}% |",
            pct_change(measured, baseline)
        )?;
    }
    Ok(())
}
