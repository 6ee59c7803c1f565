//! Executor-agnostic replay-determinism conformance suite.
//!
//! The repo's determinism contract says everything that executes a
//! trace — the engine under its virtual-time and wall-clock drivers,
//! the worker-backed sharded service, any third-party
//! [`super::ExecutorView`] — must produce the *same schedule* for the
//! same trace: identical completion order and bit-identical (`==`, no
//! epsilon) per-task and aggregate floats.
//!
//! The module is deliberately executor-free: it defines the pinned
//! workload ([`mixed_trace`]), its [`golden`] bits, a normalized run
//! summary ([`Outcome`]), and the exact-equality assertion
//! ([`assert_identical`]). Harnesses (the workspace's
//! `tests/conformance.rs`) adapt each concrete executor's report into
//! an [`Outcome`] and compare; keeping the adapters out of this crate
//! means `dvfs-core` depends on neither the simulator nor the service.

use dvfs_model::{CostParams, Task, TaskClass, TaskId, TaskRecord};
use std::collections::BTreeMap;

/// The pinned conformance workload: interleaved interactive /
/// non-interactive tasks with staggered arrivals and unequal sizes,
/// enough to force non-trivial LMC decisions on two cores. Ids are
/// multiples of 4 so the whole trace hashes to shard 0 at every shard
/// count CI sweeps (1, 2, 4) — the schedule must not depend on the
/// shard count.
///
/// # Panics
/// Never in practice — every generated task is model-valid.
#[must_use]
pub fn mixed_trace() -> Vec<Task> {
    (0..10u64)
        .map(|i| {
            let class = if i % 3 == 0 {
                TaskClass::Interactive
            } else {
                TaskClass::NonInteractive
            };
            Task::online(i * 4, (i + 1) * 50_000_000, i as f64 * 0.02, None, class)
                .expect("valid synthetic task")
        })
        .collect()
}

/// The bits [`mixed_trace`] must produce under LMC with
/// `CostParams::online_paper()` on two homogeneous Table II cores.
/// Captured where two independently written engines (the former
/// simulator and service executor) agreed on every one of them, so the
/// pin cross-checks the single engine's arithmetic against something
/// other than itself.
pub mod golden {
    /// `f64::to_bits` of the total active energy in joules.
    pub const ACTIVE_ENERGY_BITS: u64 = 0x402a_c1eb_851e_b851;
    /// `f64::to_bits` of the turnaround sum in seconds.
    pub const TOTAL_TURNAROUND_BITS: u64 = 0x4004_a6e9_78d4_fdf3;
    /// `f64::to_bits` of the makespan in seconds.
    pub const MAKESPAN_BITS: u64 = 0x3fe8_5604_1893_74bc;
    /// `(task id, f64::to_bits of its completion time)`, in completion
    /// order.
    pub const COMPLETIONS: [(u64, u64); 10] = [
        (0, 0x3f90_e560_4189_374b),
        (4, 0x3fb5_1eb8_51eb_851f),
        (12, 0x3fc0_20c4_9ba5_e354),
        (24, 0x3fce_24dd_2f1a_9fbe),
        (8, 0x3fd2_ac08_3126_e979),
        (36, 0x3fd6_147a_e147_ae14),
        (16, 0x3fdc_9fbe_76c8_b439),
        (20, 0x3fde_ac08_3126_e979),
        (28, 0x3fe6_4fdf_3b64_5a1c),
        (32, 0x3fe8_5604_1893_74bc),
    ];
}

/// A normalized run summary: what every executor must agree on.
///
/// Build one from each executor's native report via [`Outcome::new`]
/// (records must be supplied **in completion order** — the order is
/// part of the contract) and compare with [`assert_identical`].
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Task ids in the order they completed.
    pub completion_order: Vec<TaskId>,
    /// Per-task lifecycle records, keyed by id.
    pub records: BTreeMap<TaskId, TaskRecord>,
    /// Total active energy in joules.
    pub active_energy_joules: f64,
    /// Sum of turnaround times in seconds.
    pub total_turnaround_s: f64,
    /// Time the last task completed.
    pub makespan_s: f64,
}

impl Outcome {
    /// Build an outcome from completion-ordered records plus the run's
    /// aggregate totals.
    #[must_use]
    pub fn new(
        completions: Vec<TaskRecord>,
        active_energy_joules: f64,
        total_turnaround_s: f64,
        makespan_s: f64,
    ) -> Self {
        let completion_order = completions.iter().map(|r| r.id).collect();
        let records = completions.into_iter().map(|r| (r.id, r)).collect();
        Outcome {
            completion_order,
            records,
            active_energy_joules,
            total_turnaround_s,
            makespan_s,
        }
    }
}

/// Assert `got` reproduces `want` exactly: same completion order, and
/// per task bit-equal completion time, first start, energy, preemption
/// count, and monetary cost (`re·E + rt·turnaround`, computed the way
/// the service's histograms charge it), plus bit-equal aggregate
/// energy, turnaround sum, and makespan. `label` names the executor
/// under test in failure messages.
///
/// # Panics
/// Panics (test-style assertion) on the first divergence.
pub fn assert_identical(want: &Outcome, got: &Outcome, params: CostParams, label: &str) {
    assert_eq!(
        got.completion_order, want.completion_order,
        "{label}: completion order diverged"
    );
    for (id, rec) in &got.records {
        let reference = &want.records[id];
        assert_eq!(rec.completion, reference.completion, "{label}: task {id}");
        assert_eq!(rec.first_start, reference.first_start, "{label}: task {id}");
        assert_eq!(
            rec.energy_joules, reference.energy_joules,
            "{label}: task {id}"
        );
        assert_eq!(rec.preemptions, reference.preemptions, "{label}: task {id}");
        let got_cost =
            params.re * rec.energy_joules + params.rt * rec.turnaround().expect("completed task");
        let want_cost = params.re * reference.energy_joules
            + params.rt * reference.turnaround().expect("completed task");
        assert_eq!(got_cost, want_cost, "{label}: task {id} cost");
    }
    assert_eq!(
        got.active_energy_joules, want.active_energy_joules,
        "{label}: active energy diverged"
    );
    assert_eq!(
        got.total_turnaround_s, want.total_turnaround_s,
        "{label}: turnaround sum diverged"
    );
    assert_eq!(
        got.makespan_s, want.makespan_s,
        "{label}: makespan diverged"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_trace_is_pinned_and_shard0_pure() {
        let trace = mixed_trace();
        assert_eq!(trace.len(), 10);
        for (i, t) in trace.iter().enumerate() {
            let i = i as u64;
            assert_eq!(t.id.0, i * 4, "ids are multiples of 4");
            assert_eq!(t.id.0 % 4, 0, "hashes to shard 0 at shards 1/2/4");
            assert_eq!(t.cycles, (i + 1) * 50_000_000);
            assert_eq!(t.arrival, i as f64 * 0.02);
        }
        let interactive = trace
            .iter()
            .filter(|t| t.class == TaskClass::Interactive)
            .count();
        assert_eq!(interactive, 4, "i % 3 == 0 for i in 0..10");
    }

    fn record(id: u64, completion: f64) -> TaskRecord {
        TaskRecord {
            id: TaskId(id),
            class: TaskClass::NonInteractive,
            cycles: 1,
            arrival: 0.0,
            first_start: Some(0.0),
            completion: Some(completion),
            energy_joules: 1.5,
            preemptions: 0,
        }
    }

    #[test]
    fn identical_outcomes_pass() {
        let make = || Outcome::new(vec![record(0, 1.0), record(1, 2.0)], 3.0, 3.0, 2.0);
        assert_identical(&make(), &make(), CostParams::online_paper(), "self");
    }

    #[test]
    #[should_panic(expected = "completion order diverged")]
    fn reordered_completions_fail() {
        let want = Outcome::new(vec![record(0, 1.0), record(1, 2.0)], 3.0, 3.0, 2.0);
        let got = Outcome::new(vec![record(1, 2.0), record(0, 1.0)], 3.0, 3.0, 2.0);
        assert_identical(&want, &got, CostParams::online_paper(), "reordered");
    }

    #[test]
    #[should_panic(expected = "active energy diverged")]
    fn an_energy_ulp_off_fails() {
        let want = Outcome::new(vec![record(0, 1.0)], 3.0, 1.0, 1.0);
        let got = Outcome::new(
            vec![record(0, 1.0)],
            f64::from_bits(3.0f64.to_bits() + 1),
            1.0,
            1.0,
        );
        assert_identical(&want, &got, CostParams::online_paper(), "ulp");
    }
}
