//! Wire documents: the `drain`, `stats`, `health`, `trace` and
//! `trace_stream` responses, encoded from what the scheduler collected.
//!
//! Pure encoders — nothing here sends a worker command or takes a
//! scheduler lock (`stats` and `health` read what the workers
//! publish), so a document's field list and order (which the
//! byte-identical-across-backends and across-shard-counts tests pin)
//! is decided in exactly one place.

use crate::executor::RoundReport;
use crate::metrics::{shard_metric, Registry};
use crate::protocol::{field_f64, field_u64, ErrorKind, Response};
use crate::stage::{REQUEST_E2E, STAGE_CMD_DEQUEUE, TELESCOPE_STAGES};
use crate::tracestore::TraceChunk;
use crate::worker::ShardShared;
use dvfs_model::CostParams;
use serde::Value;
use std::sync::Arc;

fn json_lines(lines: Vec<String>) -> (String, Value) {
    (
        "events".to_string(),
        Value::Array(lines.into_iter().map(Value::String).collect()),
    )
}

/// The error both trace commands answer when `trace_capacity` is 0.
pub(crate) fn tracing_disabled() -> Response {
    Response::err(
        ErrorKind::BadRequest,
        "tracing is disabled (start the server with --trace-cap)",
    )
}

/// `trace`: the accumulated trace as an array of JSONL strings plus
/// the ring-drop counter.
pub(crate) fn trace(lines: Vec<String>, dropped: u64) -> Response {
    Response::Ok(vec![
        field_u64("count", lines.len() as u64),
        field_u64("dropped", dropped),
        json_lines(lines),
    ])
}

/// `trace_stream`: one chunk, with the running streamed total.
pub(crate) fn trace_stream(chunk: TraceChunk, dropped: u64) -> Response {
    Response::Ok(vec![
        field_u64("count", chunk.lines.len() as u64),
        field_u64("dropped", dropped),
        field_u64("streamed", chunk.streamed_total),
        json_lines(chunk.lines),
    ])
}

/// `drain`: the merged round report plus the per-shard reports, in
/// ascending shard order.
pub(crate) fn drain(params: CostParams, reports: &[RoundReport]) -> Response {
    let merged = RoundReport::merge(reports);
    let shard_reports: Vec<Value> = reports
        .iter()
        .enumerate()
        .map(|(k, r)| {
            Value::Object(vec![
                field_u64("shard", k as u64),
                field_u64("completed", r.completed),
                field_f64("total_cost", r.total_cost(params)),
                field_f64("active_energy_joules", r.active_energy_joules),
                field_f64("total_turnaround_s", r.total_turnaround_s),
                field_f64("makespan_s", r.makespan_s),
            ])
        })
        .collect();
    Response::Ok(vec![
        field_u64("completed", merged.completed),
        field_f64("total_cost", merged.total_cost(params)),
        field_f64("active_energy_joules", merged.active_energy_joules),
        field_f64("total_turnaround_s", merged.total_turnaround_s),
        field_f64("makespan_s", merged.makespan_s),
        field_u64("shards", reports.len() as u64),
        ("shard_reports".to_string(), Value::Array(shard_reports)),
    ])
}

/// `stats`: registry snapshot plus per-shard depths, pending counts and
/// clocks — the admission queues live, the rest as each worker last
/// published it.
pub(crate) fn stats(shards: &[Arc<ShardShared>], metrics: &Registry) -> Response {
    let mut shard_stats = Vec::with_capacity(shards.len());
    let mut depth_total = 0u64;
    let mut pending_total = 0u64;
    let mut now_max = 0.0f64;
    for sh in shards {
        // Waiting work wherever it sits: admission depth plus the
        // engine backlog — the same combined load the router and
        // the rebalancer score shards by.
        let depth = (sh.queue.depth() + sh.backlog()) as u64;
        let pending = sh.pending() as u64;
        let now = sh.engine_now();
        depth_total += depth;
        pending_total += pending;
        now_max = now_max.max(now);
        let out = metrics
            .counter(&shard_metric("migrations_out", sh.index))
            .get();
        let inn = metrics
            .counter(&shard_metric("migrations_in", sh.index))
            .get();
        let admitted = sh.admitted.get();
        shard_stats.push(Value::Object(vec![
            field_u64("shard", sh.index as u64),
            field_u64("queue_depth", depth),
            field_u64("pending_tasks", pending),
            field_f64("sim_now_s", now),
            field_u64("migrations_out", out),
            field_u64("migrations_in", inn),
            field_f64(
                "migration_rate",
                (out + inn) as f64 / admitted.max(1) as f64,
            ),
        ]));
    }
    let migrations = metrics.counter("migrations").get();
    let admitted_total = metrics.counter("admitted").get();
    Response::Ok(vec![
        ("metrics".to_string(), metrics.snapshot()),
        field_u64("queue_depth", depth_total),
        field_u64("pending_tasks", pending_total),
        field_f64("sim_now_s", now_max),
        field_u64("shards", shards.len() as u64),
        field_u64("migrations", migrations),
        field_f64(
            "migration_rate",
            migrations as f64 / admitted_total.max(1) as f64,
        ),
        field_u64(
            "worker_send_failed",
            metrics.counter("worker_send_failed").get(),
        ),
        field_u64("worker_stalled", metrics.counter("worker_stalled").get()),
        ("shard_stats".to_string(), Value::Array(shard_stats)),
    ])
}

/// `health`: the runtime health plane as one JSON document — per-shard
/// worker heartbeats, the stage-attribution histograms, reactor loop
/// stats, and trace-ring drop counts. Deliberately computed from
/// lock-free heartbeat slots and leaf-locked metrics only (no worker
/// fan-out, no engine access), so the reactor can serve it inline on
/// the fast path even while every worker is mid-round. The trace
/// plane contributes its ring-drop and streamed-and-forgotten counts.
pub(crate) fn health(
    shards: &[Arc<ShardShared>],
    metrics: &Registry,
    telemetry: bool,
    trace_dropped: u64,
    trace_streamed: u64,
) -> Response {
    let heartbeats: Vec<Value> = shards
        .iter()
        .map(|sh| {
            let snap = sh.hb.snapshot();
            Value::Object(vec![
                field_u64("shard", sh.index as u64),
                field_f64("last_progress_age_s", snap.last_progress_age_s),
                field_u64("cmd_depth", snap.cmd_depth),
                field_u64("dequeue_age_us", snap.dequeue_age_us),
                field_u64("tick_us", snap.tick_us),
                field_u64("drain_us", snap.drain_us),
                field_u64("steal_us", snap.steal_us),
                field_u64("inject_us", snap.inject_us),
                field_u64("queue_depth", sh.queue.depth() as u64),
                field_u64("backlog", sh.backlog() as u64),
            ])
        })
        .collect();
    let stages: Vec<(String, Value)> = TELESCOPE_STAGES
        .iter()
        .chain([&STAGE_CMD_DEQUEUE, &REQUEST_E2E])
        .map(|name| ((*name).to_string(), metrics.histogram(name).to_value()))
        .collect();
    let counter = |name: &str| metrics.counter(name).get();
    let reactor = Value::Object(vec![
        field_u64("wakeups", counter("net_wakeups")),
        field_u64("wait_micros", counter("net_wait_micros")),
        field_u64("work_micros", counter("net_work_micros")),
        (
            "events_per_wakeup".to_string(),
            metrics.histogram("net_events_per_wakeup").to_value(),
        ),
        (
            "batch_lines".to_string(),
            metrics.histogram("net_batch_lines").to_value(),
        ),
        field_u64("backpressure_stalls", counter("net_backpressure_stalls")),
        field_u64(
            "backpressure_stall_micros",
            counter("net_backpressure_stall_micros"),
        ),
    ]);
    Response::Ok(vec![
        field_u64("degraded", u64::from(metrics.gauge("degraded").get() != 0)),
        field_u64("worker_stalled", counter("worker_stalled")),
        field_u64("worker_send_failed", counter("worker_send_failed")),
        field_u64("shards", shards.len() as u64),
        field_u64("telemetry", u64::from(telemetry)),
        ("heartbeats".to_string(), Value::Array(heartbeats)),
        ("stages".to_string(), Value::Object(stages)),
        ("reactor".to_string(), reactor),
        field_u64("trace_dropped", trace_dropped),
        field_u64("trace_streamed", trace_streamed),
        field_u64(
            "rebalance_pass_us",
            u64::try_from(metrics.gauge("rebalance_pass_us").get()).unwrap_or(0),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use crate::protocol::{value_f64, value_u64};
    use crate::service::{Scheduler, SchedulerConfig};
    use crate::stage::{REQUEST_E2E, STAGE_CMD_DEQUEUE, TELESCOPE_STAGES};
    use crate::Registry;
    use dvfs_model::TaskClass;
    use serde::Value;
    use std::sync::Arc;

    fn sharded(shards: usize, capacity: usize) -> Scheduler {
        Scheduler::new(
            SchedulerConfig {
                cores: 2,
                queue_capacity: capacity,
                shards,
                ..SchedulerConfig::default()
            },
            Arc::new(Registry::new()),
        )
    }

    #[test]
    fn stats_reports_per_shard_fields() {
        let s = sharded(2, 64);
        assert!(s
            .submit(Some(0), 1_000, TaskClass::NonInteractive, Some(0.0))
            .is_ok());
        let stats = s.stats();
        assert_eq!(value_u64(stats.field("shards").unwrap()), Some(2));
        assert_eq!(value_u64(stats.field("queue_depth").unwrap()), Some(1));
        let Some(Value::Array(shard_stats)) = stats.field("shard_stats") else {
            panic!("stats must carry a shard_stats array");
        };
        assert_eq!(shard_stats.len(), 2);
        let depth0 = shard_stats[0]
            .get("queue_depth")
            .and_then(value_u64)
            .unwrap();
        assert_eq!(depth0, 1, "task with id 0 sits on shard 0");
    }

    /// The health-plane counters exist from construction and are pinned
    /// to their names in the `stats` document: top-level fields for the
    /// counters, and `degraded` among the snapshot's gauges, so
    /// dashboards can alert on them before the first failure ever
    /// happens.
    #[test]
    fn stall_counters_are_pinned_in_the_stats_document() {
        let s = sharded(2, 64);
        let stats = s.stats();
        assert_eq!(
            value_u64(stats.field("worker_send_failed").unwrap()),
            Some(0)
        );
        assert_eq!(value_u64(stats.field("worker_stalled").unwrap()), Some(0));
        let metrics = stats.field("metrics").unwrap();
        for (kind, name) in [
            ("counters", "worker_send_failed"),
            ("counters", "worker_stalled"),
            ("gauges", "degraded"),
        ] {
            let value = metrics.get(kind).and_then(|m| m.get(name));
            assert_eq!(value.and_then(value_u64), Some(0), "{kind}.{name}");
        }
    }

    /// `health` is served from heartbeat slots and leaf metrics only;
    /// its document carries every advertised section with sane values
    /// on a live sharded service.
    #[test]
    fn health_reports_heartbeats_stages_and_reactor_sections() {
        let s = sharded(2, 64);
        for id in 0..4u64 {
            assert!(s
                .submit(Some(id), 20_000_000, TaskClass::NonInteractive, Some(0.0))
                .is_ok());
        }
        s.tick();
        let health = s.health();
        assert_eq!(value_u64(health.field("shards").unwrap()), Some(2));
        assert_eq!(value_u64(health.field("degraded").unwrap()), Some(0));
        assert_eq!(value_u64(health.field("telemetry").unwrap()), Some(1));
        let Some(Value::Array(beats)) = health.field("heartbeats") else {
            panic!("health must carry a heartbeats array");
        };
        assert_eq!(beats.len(), 2);
        for (k, beat) in beats.iter().enumerate() {
            assert_eq!(beat.get("shard").and_then(value_u64), Some(k as u64));
            assert_eq!(
                beat.get("cmd_depth").and_then(value_u64),
                Some(0),
                "an idle worker has no commands outstanding"
            );
            let age = beat.get("last_progress_age_s").and_then(value_f64).unwrap();
            assert!(
                (0.0..60.0).contains(&age),
                "fresh progress stamp, got {age}"
            );
            assert!(beat.get("tick_us").and_then(value_u64).is_some());
        }
        let Some(Value::Object(stages)) = health.field("stages") else {
            panic!("health must carry a stages object");
        };
        let mut want: Vec<&str> = TELESCOPE_STAGES.to_vec();
        want.push(STAGE_CMD_DEQUEUE);
        want.push(REQUEST_E2E);
        for name in want {
            let stage = stages
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("health stages must include {name}"));
            assert!(stage.get("count").and_then(value_u64).is_some());
        }
        let Some(reactor) = health.field("reactor") else {
            panic!("health must carry a reactor section");
        };
        assert_eq!(reactor.get("wakeups").and_then(value_u64), Some(0));
        assert_eq!(value_u64(health.field("trace_dropped").unwrap()), Some(0));
    }
}
