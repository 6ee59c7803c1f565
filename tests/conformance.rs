//! The executor conformance harness: every [`ExecutorView`]
//! implementation in the workspace must replay the pinned
//! [`conformance::mixed_trace`] bit-identically to the virtual-time
//! simulator.
//!
//! The pins themselves (trace, normalized [`Outcome`], exact-equality
//! assertions) live in `dvfs_core::sched::conformance`, which knows no
//! executor. This harness supplies the adapters:
//!
//! * the **simulator** (`dvfs-sim`) — the reference schedule;
//! * the bare **wall-clock executor** (`dvfs-serve`'s
//!   [`RealTimeExecutor`]) driven directly;
//! * the **worker-backed service** ([`Scheduler`]) — per-shard worker
//!   threads behind the message-passing boundary — at shards 1, 2,
//!   and 4.
//!
//! Since the simulator and the executor became two drivers of one
//! engine, "executor ≡ simulator" no longer cross-checks the
//! arithmetic; `conformance::golden` does — bits captured while two
//! independent engines still agreed on them.
//!
//! The trace's ids are all multiples of 4, so every task hashes to
//! shard 0 at each swept shard count and the sharded schedules must
//! coincide exactly with the single-engine reference.
//!
//! [`ExecutorView`]: dvfs_suite::core::sched::ExecutorView
//! [`Outcome`]: conformance::Outcome

use dvfs_suite::core::sched::conformance::{self, Outcome};
use dvfs_suite::core::LeastMarginalCost;
use dvfs_suite::model::CostParams;
use dvfs_suite::serve::service::service_platform;
use dvfs_suite::serve::{RealTimeExecutor, Registry, Scheduler, SchedulerConfig};
use dvfs_suite::sim::{SimConfig, Simulator};
use std::sync::Arc;

const CORES: usize = 2;

/// The reference outcome: the pinned trace through the virtual-time
/// simulator under LMC.
fn simulator_outcome(params: CostParams) -> Outcome {
    let trace = conformance::mixed_trace();
    let platform = service_platform(CORES);
    let mut policy = LeastMarginalCost::new(&platform, params);
    let mut sim = Simulator::new(SimConfig::new(platform));
    sim.add_tasks(&trace);
    let report = sim.run(&mut policy);
    Outcome::new(
        sim.completed_records().collect(),
        report.active_energy_joules,
        report.total_turnaround(),
        report.makespan,
    )
}

/// The same trace through the wall-clock executor, driven directly
/// (no service, no workers, no sharding).
fn bare_executor_outcome(params: CostParams) -> Outcome {
    let trace = conformance::mixed_trace();
    let platform = service_platform(CORES);
    let mut policy = LeastMarginalCost::new(&platform, params);
    let mut exec = RealTimeExecutor::new(platform);
    for t in &trace {
        exec.push_task(t);
    }
    exec.run_to_completion(&mut policy);
    let report = exec.round_report();
    Outcome::new(
        report.records,
        report.active_energy_joules,
        report.total_turnaround_s,
        report.makespan_s,
    )
}

/// The same trace through the full worker-backed service: submissions
/// cross the admission queues, shard workers own the engines, and the
/// drain barrier collects per-shard reports in ascending order.
fn service_outcome(params: CostParams, shards: usize) -> Outcome {
    let trace = conformance::mixed_trace();
    let scheduler = Scheduler::new(
        SchedulerConfig {
            cores: CORES,
            shards,
            params,
            ..SchedulerConfig::default()
        },
        Arc::new(Registry::new()),
    );
    for t in &trace {
        let r = scheduler.submit(Some(t.id.0), t.cycles, t.class, Some(t.arrival));
        assert!(r.is_ok(), "submit failed: {r:?}");
    }
    let report = scheduler.drain_round();
    Outcome::new(
        report.records,
        report.active_energy_joules,
        report.total_turnaround_s,
        report.makespan_s,
    )
}

#[test]
fn bare_real_time_executor_conforms_to_the_simulator() {
    let params = CostParams::online_paper();
    let want = simulator_outcome(params);
    let got = bare_executor_outcome(params);
    conformance::assert_identical(&want, &got, params, "RealTimeExecutor");
}

#[test]
fn worker_backed_service_conforms_at_shards_1_2_4() {
    let params = CostParams::online_paper();
    let want = simulator_outcome(params);
    for shards in [1usize, 2, 4] {
        let got = service_outcome(params, shards);
        conformance::assert_identical(&want, &got, params, &format!("Scheduler[shards={shards}]"));
    }
}

#[test]
fn the_reference_itself_is_self_consistent() {
    // Two independent simulator runs of the pinned trace must agree —
    // a canary for nondeterminism sneaking into the reference side of
    // the suite (RNG seeding, map iteration order, and the like).
    let params = CostParams::online_paper();
    let a = simulator_outcome(params);
    let b = simulator_outcome(params);
    conformance::assert_identical(&a, &b, params, "Simulator(second run)");
}

#[test]
fn the_engine_reproduces_the_golden_bits() {
    // Independent of which driver runs the engine: the literals were
    // captured before the two engines were merged.
    use conformance::golden;
    let params = CostParams::online_paper();
    for (label, got) in [
        ("Simulator", simulator_outcome(params)),
        ("RealTimeExecutor", bare_executor_outcome(params)),
    ] {
        let completions: Vec<(u64, u64)> = got
            .completion_order
            .iter()
            .map(|id| (id.0, got.records[id].completion.expect("done").to_bits()))
            .collect();
        assert_eq!(completions, golden::COMPLETIONS, "{label}: completions");
        assert_eq!(
            got.active_energy_joules.to_bits(),
            golden::ACTIVE_ENERGY_BITS,
            "{label}: active energy"
        );
        assert_eq!(
            got.total_turnaround_s.to_bits(),
            golden::TOTAL_TURNAROUND_BITS,
            "{label}: turnaround sum"
        );
        assert_eq!(
            got.makespan_s.to_bits(),
            golden::MAKESPAN_BITS,
            "{label}: makespan"
        );
    }
}
