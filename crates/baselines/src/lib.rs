//! # dvfs-baselines
//!
//! The comparison schedulers of the paper's evaluation:
//!
//! * **Opportunistic Load Balancing (OLB)** — "schedules a task on the
//!   core with the earliest ready-to-execute time ... keeps the
//!   processing frequency of each core at the highest level". Provided
//!   in batch form ([`batch::olb_assignment`]) and online form
//!   ([`online::OlbOnline`]).
//! * **Power Saving** — the Linux on-demand governor restricted to the
//!   lower half of the frequency range (batch comparison of Fig. 2);
//!   realized as an OLB-style placement executed under a capped
//!   `ondemand` governor ([`batch::power_saving_config`]).
//! * **On-demand** — round-robin task placement with frequencies left
//!   entirely to the Linux `ondemand` governor (online comparison of
//!   Fig. 3, [`online::OnDemandOnline`]).
//!
//! In OLB and On-demand, interactive tasks have priority over
//! non-interactive ones, and equal-priority tasks run FIFO, exactly as
//! Section V-B specifies. [`OnlinePolicy`] builds these baselines and the
//! paper's own online schedulers by the names the CLI takes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod online;
pub mod policy;

pub use batch::{olb_assignment, power_saving_config, GovernedPlanPolicy};
pub use online::{OlbOnline, OnDemandOnline};
pub use policy::OnlinePolicy;
