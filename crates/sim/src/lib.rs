//! # dvfs-sim
//!
//! The virtual-time simulator, built as the experimental substrate for
//! the ICPP 2014 scheduler reproduction. The paper evaluates on a
//! quad-core Intel i7-950 with individually tunable core frequencies;
//! this crate substitutes that testbed with a simulation of the same
//! execution model:
//!
//! * each core runs at one of its discrete rates `p ∈ P`, executing
//!   `p` cycles per second and drawing `E(p)/T(p)` watts while busy;
//! * a [`Policy`] — the engine-agnostic `dvfs_core::sched::Scheduler`
//!   trait — decides task placement, ordering, preemption, and per-core
//!   frequency through the abstract `ExecutorView`;
//! * frequency *governors* (Linux `ondemand`-style) can own a core's
//!   frequency instead of the policy, for the baseline comparisons;
//! * an optional **contention model** dilates execution when several
//!   cores are busy, reproducing the sim-vs-experiment gap of Fig. 1;
//! * per-task metrics, active/idle energy, and a platform power
//!   timeline that `dvfs-power` can "measure" the way the paper's
//!   DW-6091 power meter does.
//!
//! The event loop itself is not here: [`Simulator`] is a thin
//! virtual-time driver over `dvfs_core::sched::engine::Engine` — the
//! same engine the wall-clock executor in `dvfs-serve` drives, which is
//! why a replayed trace costs the same bits on both. See that module
//! for the execution semantics (continuous cycles, per-core epochs,
//! event ordering). Its observer here is an optional `dvfs_trace`
//! ring ([`Simulator::record_trace`]): the simulator writes the same
//! lifecycle lines a traced `dvfs-serve` shard does. This crate adds
//! the [`SimReport`] and the offline [`analysis`] of such a trace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod engine;
pub mod metrics;

pub use analysis::{gantt, queue_depth_series, GanttSegment};
pub use dvfs_core::sched::governor::{self, GovernorKind};
pub use engine::{SimConfig, Simulator};
pub use metrics::{SimReport, TaskRecord};

/// The engine-agnostic policy trait this executor drives. An alias for
/// [`dvfs_core::sched::Scheduler`]; the former `dvfs_sim::{plan,
/// policy}` re-export modules are gone — import `BatchPlan` from
/// `dvfs_model` and `PlanPolicy`/`ExecutorView` from `dvfs_core`.
pub use dvfs_core::sched::Scheduler as Policy;
