//! # dvfs-model
//!
//! Shared models for energy-efficient task scheduling on multi-core
//! platforms with per-core dynamic voltage and frequency scaling (DVFS),
//! following Section II of *"An Energy-efficient Task Scheduler for
//! Multi-core Platforms with per-core DVFS Based on Task Characteristics"*
//! (ICPP 2014).
//!
//! The crate defines:
//!
//! * [`Task`] — a task `j_k = (L_k, A_k, D_k)` with a cycle requirement,
//!   an arrival time, an optional deadline, and a class (batch,
//!   interactive, or non-interactive).
//! * [`RateTable`] — the non-empty set `P` of discrete processing rates a
//!   core can use, each with its per-cycle energy `E(p)` and per-cycle
//!   time `T(p)`.
//! * [`CostParams`] — the monetary constants `Re` (cost of a joule) and
//!   `Rt` (cost of a second of user waiting), plus the position-dependent
//!   cost functions `C(k, p)` and `C^B(k, p)` from Equations 12 and 20.
//! * [`Platform`] — a set of cores, each with a rate table and idle power,
//!   with homogeneous and heterogeneous presets.
//! * [`BatchPlan`] — per-core `(task, rate)` execution sequences: the
//!   output of the batch algorithms, replayable by any executor.
//! * [`TaskRecord`] — the per-task lifecycle measurement every executor
//!   reports.
//!
//! All cycle counts are exact integers (`u64`); all times are seconds and
//! all energies joules, carried as `f64`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod error;
pub mod plan;
pub mod platform;
pub mod rates;
pub mod record;
pub mod task;

pub use cost::{CostBreakdown, CostParams};
pub use error::ModelError;
pub use plan::{predict_plan_cost, BatchPlan};
pub use platform::{CoreId, CoreSpec, Platform};
pub use rates::{RateIdx, RatePoint, RateTable};
pub use record::TaskRecord;
pub use task::{Task, TaskClass, TaskId};

#[cfg(clippy)]
#[expect(
    clippy::disallowed_types,
    reason = "canary: fails clippy if this crate's clippy.toml stops applying"
)]
const _: fn() -> usize = || std::collections::HashSet::<u8>::new().len();
