//! Statistical robustness of the Fig. 3 comparison: the full experiment
//! across many trace seeds (in parallel, one chunk of seeds per core), reporting mean ±
//! standard deviation of every delta. A single synthetic trace could be
//! lucky; twenty aren't.
//!
//! Usage: `fig3_seeds [n_seeds] [scale]`

use dvfs_bench::{par_map_seeds, run_fig3};

struct Deltas {
    olb_energy: f64,
    olb_time: f64,
    olb_total: f64,
    od_energy: f64,
    od_time: f64,
    od_total: f64,
}

fn mean_sd(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n_seeds: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(20);
    // Scale 1 = the full 51 293-task trace; larger scales shrink the
    // trace and with it the queueing that gives LMC its time advantage.
    let scale: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);

    let deltas: Vec<Deltas> = par_map_seeds(n_seeds, |seed| {
        let r = run_fig3(seed, scale);
        let pct = |a: f64, b: f64| (a / b - 1.0) * 100.0;
        Deltas {
            olb_energy: pct(r.lmc.energy_cost, r.olb.energy_cost),
            olb_time: pct(r.lmc.time_cost, r.olb.time_cost),
            olb_total: pct(r.lmc.total(), r.olb.total()),
            od_energy: pct(r.lmc.energy_cost, r.od.energy_cost),
            od_time: pct(r.lmc.time_cost, r.od.time_cost),
            od_total: pct(r.lmc.total(), r.od.total()),
        }
    });

    println!("FIG. 3 over {n_seeds} trace seeds (scale {scale}): LMC deltas, mean ± sd\n");
    let report = |label: &str, xs: Vec<f64>, paper: f64| {
        let (m, sd) = mean_sd(&xs);
        println!("{label:<22} {m:>8.1}% ± {sd:>5.1}   (paper {paper:+.0}%)");
    };
    report(
        "vs OLB energy",
        deltas.iter().map(|d| d.olb_energy).collect(),
        -11.0,
    );
    report(
        "vs OLB time cost",
        deltas.iter().map(|d| d.olb_time).collect(),
        -31.0,
    );
    report(
        "vs OLB total",
        deltas.iter().map(|d| d.olb_total).collect(),
        -17.0,
    );
    report(
        "vs OD energy",
        deltas.iter().map(|d| d.od_energy).collect(),
        -11.0,
    );
    report(
        "vs OD time cost",
        deltas.iter().map(|d| d.od_time).collect(),
        -46.0,
    );
    report(
        "vs OD total",
        deltas.iter().map(|d| d.od_total).collect(),
        -24.0,
    );

    let wins = deltas
        .iter()
        .filter(|d| d.olb_total < 0.0 && d.od_total < 0.0)
        .count();
    println!("\nLMC wins total cost against both baselines in {wins}/{n_seeds} seeds.");
}
