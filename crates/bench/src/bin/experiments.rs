//! Regenerates every evaluation artifact: the paper's tables and
//! figures, their sweeps, and the extension experiments, one file each.
//!
//! Usage: `experiments [DIR]` (default `results`). Every artifact runs
//! at the parameters its file records. The run exits non-zero, after
//! writing every file, when an artifact's own check fails.

use dvfs_bench::{batch, online, paper, Artifact};
use std::path::PathBuf;
use std::process::ExitCode;

/// Every artifact: its file name and the function that writes its text.
const ARTIFACTS: &[(&str, Artifact)] = &[
    // The paper's tables and figures.
    ("table1.txt", paper::table1),
    ("table2.txt", paper::table2),
    ("fig1.txt", paper::fig1),
    ("fig2.txt", paper::fig2),
    ("fig3.txt", paper::fig3),
    ("experiments.md", paper::summary),
    // Sweeps and robustness.
    ("fig1_sweep.txt", batch::fig1_sweep),
    ("fig2_sweep.txt", batch::fig2_sweep),
    ("fig3_sweep.txt", online::fig3_sweep),
    ("fig3_seeds.txt", online::fig3_seeds),
    // Extension experiments.
    ("lmc_vs_wbg_online.txt", online::lmc_vs_wbg_online),
    ("switch_latency.txt", online::switch_latency),
    ("idle_energy.txt", batch::idle_energy),
    ("governors.txt", online::governors),
    ("hetero_online.txt", online::hetero_online),
    ("deadline_sweep.txt", batch::deadline_sweep),
    ("budget_sweep.txt", batch::budget_sweep),
    ("yds_compare.txt", batch::yds_compare),
    ("validate_wbg.txt", batch::validate_wbg),
    ("lmc_variants.txt", online::lmc_variants),
    ("qos_misses.txt", online::qos_misses),
];

fn main() -> std::io::Result<ExitCode> {
    let dir = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| "results".into()));
    std::fs::create_dir_all(&dir)?;
    let mut status = ExitCode::SUCCESS;
    for (file, write) in ARTIFACTS {
        let mut text = String::new();
        let outcome = write(&mut text);
        let path = dir.join(file);
        std::fs::write(&path, text)?;
        match outcome {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("wrote {}, and it FAILED: {e}", path.display());
                status = ExitCode::FAILURE;
            }
        }
    }
    Ok(status)
}
