//! `dvfs-trace`: per-task lifecycle tracing with decision provenance.
//!
//! The paper's contribution is a *decision procedure* — LMC picks the
//! core with least marginal cost (Eq. 27) and inserts at the Theorem-3
//! position — so the observability question is never "how busy was the
//! system" but "why did task 4711 land on core 2 at rate p3, and what
//! did that decision cost?". This crate records the full lifecycle
//!
//! ```text
//! submit → admit/shed → enqueue(core, position k) → dispatch(rate p)
//!        → preempt → rate_change → complete
//! ```
//!
//! where the `enqueue` event carries the provenance of the placement
//! decision (the per-core marginal costs that were compared, the chosen
//! core, the insertion position, and the predicted energy / waiting
//! cost deltas) and the `dispatch` event carries the executor's own
//! predicted energy and time for the remaining work — computed with the
//! *same floating-point expressions* the integrator will use, so in
//! drain mode the prediction can be diffed bit-exactly against the
//! measured round report.
//!
//! This crate has **zero dependencies** and sits at the bottom of the
//! workspace layering: `dvfs-core → dvfs-trace` is the only edge
//! policies need, and `dvfs-trace` itself depends on nothing (enforced
//! by the layering check in `scripts/ci.sh`, over `cargo tree`).
//!
//! Determinism contract: events are timestamped with *engine seconds*
//! (sim time), never wall clock, and the record paths in this file and
//! [`ring`] must not read `Instant::now` or build strings (`format!`,
//! `.to_string()`, `String`) — the crate's `clippy.toml` disallows
//! them. Rendering lives in [`export`], off the record path, which is
//! why its `mod` line below is the one excused.

#![forbid(unsafe_code)]

#[expect(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "exporters render at drain time, off the record path"
)]
pub mod export;
pub mod ring;

pub use ring::{Ring, SharedRing};

/// Task class tag. A mirror of the model crate's `TaskClass`,
/// re-declared here so the trace crate stays dependency-free; callers
/// convert at the recording site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassTag {
    /// Latency-critical work (the paper's interactive class).
    Interactive,
    /// Throughput work scheduled by marginal cost.
    NonInteractive,
    /// Background batch work.
    Batch,
}

impl ClassTag {
    /// Stable wire name (`"interactive"`, `"non_interactive"`,
    /// `"batch"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ClassTag::Interactive => "interactive",
            ClassTag::NonInteractive => "non_interactive",
            ClassTag::Batch => "batch",
        }
    }

    /// Inverse of [`ClassTag::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<ClassTag> {
        match s {
            "interactive" => Some(ClassTag::Interactive),
            "non_interactive" => Some(ClassTag::NonInteractive),
            "batch" => Some(ClassTag::Batch),
            _ => None,
        }
    }
}

/// One lifecycle event. Variants that represent a *decision* carry its
/// provenance; variants that represent *measurement* carry the
/// integrator's own numbers so predictions can be diffed against them.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A task entered the service's submission path.
    Submit {
        /// Task id.
        task: u64,
        /// Task class at submission.
        class: ClassTag,
        /// Requested work in cycles.
        cycles: u64,
    },
    /// Admission control accepted the task.
    Admit {
        /// Task id.
        task: u64,
        /// Queue depth including this task.
        depth: u64,
    },
    /// Admission control refused the task (backpressure).
    Shed {
        /// Task id.
        task: u64,
        /// Class of the refused task (sheds are class-aware).
        class: ClassTag,
    },
    /// The placement decision: LMC compared per-core marginal costs
    /// (Eq. 27) and inserted the task into the chosen core's queue at
    /// the Theorem-3 backward position.
    Enqueue {
        /// Task id.
        task: u64,
        /// Chosen core.
        core: u32,
        /// Theorem-3 backward position `k` in the chosen core's queue
        /// (0 for interactive FIFO placement).
        position: u64,
        /// The per-core marginal costs that were compared, in core
        /// order; `costs[core]` is the winning (minimal) cost. Empty
        /// when the placement rule did not compare costs (e.g.
        /// round-robin interactive placement).
        costs: Vec<f64>,
        /// Predicted energy-cost delta `Re · L_k · E(p_k)` of this
        /// insertion at the position's rate.
        energy_delta: f64,
        /// Predicted waiting-cost delta (the `Rt`-weighted remainder of
        /// the marginal cost after the energy term).
        wait_delta: f64,
    },
    /// A task started (or resumed) running on a core.
    Dispatch {
        /// Task id.
        task: u64,
        /// Core it runs on.
        core: u32,
        /// Rate index it runs at.
        rate: u32,
        /// Energy the executor predicts the remaining work will draw if
        /// it runs to completion undisturbed — computed with the same
        /// expressions the integrator uses, so drain-mode replay can
        /// check it bit-exactly.
        predicted_energy_j: f64,
        /// Predicted remaining run time at this rate, in seconds.
        predicted_time_s: f64,
    },
    /// A running task was preempted off its core.
    Preempt {
        /// Task id.
        task: u64,
        /// Core it was removed from.
        core: u32,
    },
    /// A core's DVFS rate changed.
    RateChange {
        /// Core whose rate changed.
        core: u32,
        /// Previous rate index.
        from: u32,
        /// New rate index.
        to: u32,
    },
    /// The rebalancer moved a queued (not-yet-dispatched) task between
    /// shards; recorded by the *receiving* shard's ring at its engine
    /// time, with the marginal-cost gap that justified the move.
    Migrate {
        /// Task id.
        task: u64,
        /// Shard the task was stolen from (the hot shard).
        from_shard: u32,
        /// Shard the task was re-enqueued on (this ring's shard).
        to_shard: u32,
        /// Hot shard's Eq. 32 queued-cost total when the rebalancer
        /// decided to move work.
        from_cost: f64,
        /// Cold shard's queued-cost total at the same decision point.
        to_cost: f64,
    },
    /// A task finished; carries the integrator's measured totals.
    Complete {
        /// Task id.
        task: u64,
        /// Core it completed on.
        core: u32,
        /// Measured active energy the task drew, in joules.
        energy_j: f64,
        /// Measured turnaround (completion − arrival), in seconds.
        turnaround_s: f64,
    },
}

impl EventKind {
    /// Stable wire name of the event (`"submit"`, `"dispatch"`, …).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Submit { .. } => "submit",
            EventKind::Admit { .. } => "admit",
            EventKind::Shed { .. } => "shed",
            EventKind::Enqueue { .. } => "enqueue",
            EventKind::Dispatch { .. } => "dispatch",
            EventKind::Preempt { .. } => "preempt",
            EventKind::RateChange { .. } => "rate_change",
            EventKind::Migrate { .. } => "migrate",
            EventKind::Complete { .. } => "complete",
        }
    }
}

/// A recorded event: engine-seconds timestamp, the shard whose ring
/// captured it, a per-ring monotonic sequence number, and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Engine time in seconds (sim time — never wall clock).
    pub time: f64,
    /// Shard whose ring recorded the event.
    pub shard: u32,
    /// Per-ring monotonic sequence number (never reset, counts
    /// overwritten events too).
    pub seq: u64,
    /// The event payload.
    pub kind: EventKind,
}

/// Where executors and policies send lifecycle events.
///
/// `dvfs_core::sched::ExecutorView` exposes an optional sink with a
/// no-op default, so tracing disabled costs one virtual call returning
/// `None` and policies need no feature flags. Implementations must be
/// lock-cheap: [`Ring`] records under no lock at all, [`SharedRing`]
/// under one leaf mutex.
pub trait TraceSink: std::fmt::Debug {
    /// Record one event at engine time `time` (seconds).
    fn record(&mut self, time: f64, kind: EventKind);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_tag_names_round_trip() {
        for tag in [
            ClassTag::Interactive,
            ClassTag::NonInteractive,
            ClassTag::Batch,
        ] {
            assert_eq!(ClassTag::parse(tag.name()), Some(tag));
        }
        assert_eq!(ClassTag::parse("nope"), None);
    }

    #[test]
    fn event_names_are_stable() {
        let ev = EventKind::RateChange {
            core: 0,
            from: 1,
            to: 2,
        };
        assert_eq!(ev.name(), "rate_change");
        assert_eq!(
            EventKind::Submit {
                task: 1,
                class: ClassTag::Batch,
                cycles: 10,
            }
            .name(),
            "submit"
        );
        assert_eq!(
            EventKind::Migrate {
                task: 7,
                from_shard: 2,
                to_shard: 0,
                from_cost: 1.5,
                to_cost: 0.25,
            }
            .name(),
            "migrate"
        );
    }
}
