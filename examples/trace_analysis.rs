//! Post-mortem analysis of a scheduling run: record the lifecycle
//! trace, reconstruct the Gantt chart, and inspect frequency residency
//! and interactive latency percentiles.
//!
//! ```text
//! cargo run --release --example trace_analysis [seed]
//! ```

use dvfs_suite::core::LeastMarginalCost;
use dvfs_suite::model::{CostParams, Platform, TaskClass};
use dvfs_suite::sim::{gantt, queue_depth_series, SimConfig, Simulator};
use dvfs_suite::trace::EventKind;
use dvfs_suite::workloads::JudgeTraceConfig;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let mut cfg = JudgeTraceConfig::paper_heavy(seed);
    cfg.non_interactive /= 16;
    cfg.interactive /= 16;
    let trace = cfg.generate();

    let platform = Platform::i7_950_quad();
    let params = CostParams::online_paper();
    let mut policy = LeastMarginalCost::new(&platform, params);
    let mut sim = Simulator::new(SimConfig::new(platform.clone()));
    sim.record_trace();
    sim.add_tasks(&trace);
    let report = sim.run(&mut policy);
    let events = sim.take_trace();

    println!(
        "Run: {} tasks, makespan {:.1} s, cost {:.2}",
        report.completed(),
        report.makespan,
        report.cost(params).total()
    );

    // Frequency residency per core.
    let table = &platform.core(0).expect("in range").rates;
    println!("\nBusy-time frequency residency:");
    for j in 0..platform.num_cores() {
        match report.residency_fractions(j) {
            Some(f) => {
                let cells: Vec<String> = f
                    .iter()
                    .enumerate()
                    .map(|(r, x)| {
                        format!("{:.1}GHz {:>4.1}%", table.rate(r).freq_hz / 1e9, x * 100.0)
                    })
                    .collect();
                println!("  core {j}: {}", cells.join("  "));
            }
            None => println!("  core {j}: idle the whole run"),
        }
    }

    // Gantt reconstruction from the trace.
    let segments = gantt(&events);
    println!(
        "\nLifecycle trace: {} events → {} Gantt segments, {} mid-run rate changes",
        events.len(),
        segments.len(),
        (events.iter())
            .filter(|e| matches!(e.kind, EventKind::RateChange { .. }))
            .count()
    );
    println!("First segments on core 0:");
    for s in segments.iter().filter(|s| s.core == 0).take(5) {
        println!(
            "  j{} ran {:.3}s–{:.3}s at {:.1} GHz",
            s.task,
            s.start,
            s.end,
            table.rate(s.rate as usize).freq_hz / 1e9
        );
    }

    // Backlog over time; the arrivals are the task records'.
    let arrivals: Vec<f64> = report.tasks.values().map(|rec| rec.arrival).collect();
    let depth = queue_depth_series(&events, &arrivals);
    let peak = depth
        .iter()
        .max_by_key(|&&(_, d)| d)
        .copied()
        .unwrap_or((0.0, 0));
    println!(
        "\nPeak waiting-queue depth: {} tasks at t = {:.1} s",
        peak.1, peak.0
    );

    // Interactive latency distribution.
    println!("\nInteractive turnaround percentiles:");
    for p in [50.0, 95.0, 99.0, 100.0] {
        if let Some(v) = report.turnaround_percentile(TaskClass::Interactive, p) {
            println!("  p{p:<5} {v:.4} s");
        }
    }
}
