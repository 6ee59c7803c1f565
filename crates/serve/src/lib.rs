//! `dvfs-serve` — a long-running scheduler service around the paper's
//! Least-Marginal-Cost policy.
//!
//! The library crates schedule workloads that are handed over whole;
//! this crate turns them into a daemon that accepts task submissions
//! over a newline-delimited-JSON wire protocol (Unix-domain socket or
//! TCP), admits them through a bounded queue with class-aware shedding,
//! and runs the policy on a **wall-clock executor** — a thin driver
//! over `dvfs_core::sched::engine`, the engine the virtual-time
//! simulator in `dvfs-sim` also drives. The executor is paced against
//! the wall clock or run as-fast-as-possible on `drain`, applies every
//! frequency decision to the `dvfs-sysfs` actuator as it is made, and
//! the service publishes counters, gauges,
//! and log-bucketed latency/cost histograms through a metrics registry
//! queryable over the wire (`stats`, `health`).
//!
//! The service is **sharded and threaded**: [`SchedulerConfig::shards`]
//! engine instances run side by side, each on its shard's worker
//! thread (the `worker` module says how it owns it) and fed through its
//! own admission queue. A router assigns submissions to shards —
//! explicit ids hash (`id % shards`, reproducible for replays),
//! auto-assigned ids go to the least-loaded shard for the task's class
//! — and `tick`/`drain`/`shutdown` broadcast commands to every worker
//! over bounded channels, collecting the one-shot replies and merging
//! the per-shard [`RoundReport`]s in deterministic ascending shard
//! order. `stats` and `health` ask no worker: each worker publishes its
//! engine's resting state after every command, and they read that.
//! With `shards = 1` the service is bit-identical to the
//! single-engine path (and to the simulator on replayed traces); with
//! `shards = N` on an N-core host the scheduling rounds genuinely run
//! in parallel. Networking and threading are `std`'s alone (no async
//! runtime), so the service adds no dependency of its own.
//!
//! Module map:
//!
//! * [`protocol`] — wire request/response types and encoding; requests
//!   are decoded, and submit acks encoded, by the crate-private `codec`
//!   (a borrowed pull decoder that builds no JSON tree, a preformatted
//!   integer encoder).
//! * [`admission`] — the bounded queue and shed policy.
//! * [`clock`] — the wall-clock seam (the only raw `Instant::now`) and
//!   the engine clock the scheduler and its workers share: wall time
//!   when paced, a virtual clock left at zero in replay.
//! * [`metrics`] — counters, gauges, histograms, the registry.
//! * [`executor`] — the wall-clock driver of the shared engine, its
//!   observer (rate actuator + the shard's trace ring), and the
//!   per-round report.
//! * [`stage`] — the per-request stage clock feeding stage-level
//!   latency attribution histograms (the runtime health plane).
//! * [`config`] — [`SchedulerConfig`], [`Mode`], [`SubmitItem`].
//! * [`service`] — the [`Scheduler`] façade: submit (shard router,
//!   admission), tick, the drain round barrier, shutdown. Each decision
//!   it relies on sits behind one crate-private module: `ids` (the
//!   round's id namespace: reserve / release / reset), [`rebalance`]
//!   (hot→cold migration), `tracestore` (retained trace events, the
//!   `trace_stream` cursor and the `--trace-out` file cursor; its
//!   [`parse_jsonl`] reads a trace back),
//!   `report` (the `drain`/`stats`/`health`/`trace` wire documents),
//!   `supervise` (stall detection).
//! * `worker` (crate-private) — the per-shard worker thread that owns
//!   its engine (executor + policy + trace ring) and processes the
//!   command channel.
//! * [`server`] — listeners, the one `dvfs_net::Handler` implementation
//!   both wire drivers call (the `dvfs-net` epoll reactor, or an accept
//!   loop running `dvfs_net::blocking::serve` per connection, behind
//!   the [`NetBackend`] seam), graceful shutdown.
//! * [`client`] — the wire client: one NDJSON connection, and a trace
//!   replay that submits with explicit ids and arrivals, then drains.

#![forbid(unsafe_code)]

pub mod admission;
pub mod client;
pub mod clock;
pub(crate) mod codec;
pub mod config;
pub mod executor;
pub(crate) mod ids;
pub mod metrics;
pub mod protocol;
pub mod rebalance;
pub(crate) mod report;
pub mod server;
pub mod service;
pub mod stage;
pub(crate) mod supervise;
pub(crate) mod tracestore;
pub(crate) mod worker;

pub use admission::{AdmissionPolicy, AdmissionQueue, ShedReason};
pub use executor::{ActuatorKind, RateActuator, RealTimeExecutor, RoundReport, SimulatedActuator};
pub use metrics::{shard_metric, Counter, Gauge, Histogram, Registry};
pub use protocol::{ErrorKind, Request, Response};
pub use server::{
    serve, Endpoint, NetBackend, ServerConfig, ServerHandle, DEFAULT_MAX_CONNECTIONS,
    MAX_LINE_BYTES,
};
pub use service::{
    service_platform, Mode, RebalanceConfig, Scheduler, SchedulerConfig, SubmitItem,
};
pub use stage::{
    REQUEST_E2E, STAGE_ADMIT, STAGE_CMD_DEQUEUE, STAGE_ENGINE, STAGE_FRAME, STAGE_QUEUE,
    STAGE_SERVICE, TELESCOPE_STAGES,
};
pub use tracestore::{parse_jsonl, parse_jsonl_line};
