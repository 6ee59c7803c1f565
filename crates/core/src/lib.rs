//! # dvfs-core
//!
//! The primary contribution of the ICPP 2014 paper *"An Energy-efficient
//! Task Scheduler for Multi-core Platforms with per-core DVFS Based on
//! Task Characteristics"*:
//!
//! * [`dominating`] — Algorithm 1: the Θ(|P|) computation of **dominating
//!   position ranges**, the partition of backward queue positions among
//!   processing rates via a lower convex hull in the dual space.
//! * [`batch`] — Section III: **Longest Task Last** single-core ordering
//!   (Algorithm 2), the round-robin optimal schedule for homogeneous
//!   multi-cores (Theorem 4), and **Workload Based Greedy** for
//!   heterogeneous multi-cores (Algorithm 3 / Theorem 5).
//! * [`ledger`] — Section IV-A: the **dynamic cost ledger** supporting
//!   task insertion/deletion in `O(|P̂| + log N)` with Θ(1) total-cost
//!   retrieval (Algorithms 4–6), built on `dvfs-ostree`.
//! * [`sched`] — the engine-agnostic scheduling interface: the
//!   [`sched::Scheduler`] event hooks over an abstract
//!   [`sched::ExecutorView`], and [`sched::engine::Engine`], the one
//!   event-driven engine implementing it, which the virtual-time
//!   simulator (`dvfs-sim`) and the wall-clock service executor
//!   (`dvfs-serve`) both drive.
//! * [`lmc`] — Section IV: the **Least Marginal Cost** online scheduling
//!   policy for mixed interactive / non-interactive workloads,
//!   implemented against the [`sched`] interface.
//! * [`deadline`] — Section III-A: the NP-completeness reduction from
//!   Partition (Theorems 1–2) and exact solvers for the constructed
//!   instances plus small general instances.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod deadline;
pub mod deadline_batch;
pub mod dominating;
pub mod ledger;
pub mod lmc;
pub mod sched;
pub mod validate;
pub mod wbg_online;
pub mod yds;

pub use batch::{schedule_homogeneous, schedule_single_core, schedule_wbg, SingleCorePlan};
pub use dominating::{DominatingRanges, RangeEntry};
pub use ledger::CostLedger;
pub use lmc::{InteractivePlacement, LeastMarginalCost};
pub use sched::{ExecutorView, PlanPolicy, Scheduler};
pub use wbg_online::WbgReassign;

#[cfg(clippy)]
#[expect(
    clippy::disallowed_types,
    reason = "canary: fails clippy if this crate's clippy.toml stops applying"
)]
const _: fn() -> usize = || std::collections::HashSet::<u8>::new().len();
