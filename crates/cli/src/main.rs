//! `dvfs-sched` — command-line front end for the DVFS scheduling suite.
//!
//! ```text
//! dvfs-sched generate-trace --out trace.jsonl [--seed N] [--scale N] [--heavy]
//! dvfs-sched schedule-batch --cycles 8e9,1e9,3.5e9 [--cores N] [--re X --rt Y]
//! dvfs-sched simulate --trace trace.jsonl --policy lmc|wbg|olb|ondemand
//!            [--cores N] [--re X --rt Y] [--report out.json]
//! dvfs-sched ranges [--re X --rt Y]
//! ```

#![forbid(unsafe_code)]

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
