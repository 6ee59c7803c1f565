//! End-to-end tests for `dvfs-trace` through the service: the drained
//! lifecycle trace must be **bit-identical** across runs and shard
//! counts (timestamps are engine seconds, never wall time), the wire
//! `trace` command and the `--trace-out` file must serve the same
//! bytes, and every `dispatch` event's predicted energy/time must match
//! the measured values exactly when a task runs uncontended to
//! completion in drain mode.
//!
//! The determinism tests honour `DVFS_SERVE_SHARDS` (default 1) like
//! `serve_e2e.rs`, but also sweep explicit shard counts in process:
//! the pinned trace's ids all hash to shard 0 at 1, 2, and 4 shards,
//! so the drained event stream must not depend on the shard count.

use dvfs_serve::client::{self, Connection};
use dvfs_serve::protocol::{encode_command, value_u64};
use dvfs_serve::{serve, Endpoint, Registry, Response, SchedulerConfig, ServerConfig};
use dvfs_suite::model::{Task, TaskClass};
use dvfs_suite::serve::parse_jsonl;
use dvfs_suite::trace::export::chrome_trace;
use dvfs_suite::trace::EventKind;
use serde_json::Value;
use std::path::PathBuf;
use std::sync::Arc;

/// Shard count under test, from `DVFS_SERVE_SHARDS` (default 1).
fn env_shards() -> usize {
    std::env::var("DVFS_SERVE_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

fn scratch(name: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dvfs-trace-e2e-{}-{name}.{ext}",
        std::process::id()
    ))
}

/// Same pinned workload as `serve_e2e::mixed_trace`: ids are multiples
/// of 4 so every task routes to shard 0 at shard counts 1, 2, and 4.
fn mixed_trace() -> Vec<Task> {
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

/// Submit the pinned trace to a fresh traced scheduler, drain, and
/// return the drained trace as JSONL lines.
fn traced_run(shards: usize) -> Vec<String> {
    let scheduler = dvfs_serve::Scheduler::new(
        SchedulerConfig {
            cores: 2,
            shards,
            trace_capacity: 4096,
            ..SchedulerConfig::default()
        },
        Arc::new(Registry::new()),
    );
    for t in &mixed_trace() {
        let r = scheduler.submit(Some(t.id.0), t.cycles, t.class, Some(t.arrival));
        assert!(r.is_ok(), "submit failed: {r:?}");
    }
    scheduler.drain_round();
    assert_eq!(scheduler.trace_dropped(), 0, "ring must not overflow");
    scheduler.trace_lines()
}

#[test]
fn drained_trace_is_bit_identical_across_runs_and_shard_counts() {
    let reference = traced_run(env_shards());
    assert!(!reference.is_empty(), "trace must record the run");
    // Re-running the identical workload must reproduce the identical
    // bytes — no wall-clock, allocation order, or thread interleaving
    // may leak into the stream.
    assert_eq!(reference, traced_run(env_shards()), "re-run differs");
    // The pinned ids all hash to shard 0, so the stream is also
    // invariant under the shard count.
    for shards in [1usize, 2, 4] {
        assert_eq!(
            reference,
            traced_run(shards),
            "trace differs at shards={shards}"
        );
    }
    // The full lifecycle is present.
    let events = parse_jsonl(&reference.join("\n")).expect("drained trace parses back");
    assert_eq!(events.len(), reference.len());
    let has = |name: &str| {
        events.iter().any(|e| match &e.kind {
            EventKind::Submit { .. } => name == "submit",
            EventKind::Admit { .. } => name == "admit",
            EventKind::Enqueue { .. } => name == "enqueue",
            EventKind::Dispatch { .. } => name == "dispatch",
            EventKind::Complete { .. } => name == "complete",
            _ => false,
        })
    };
    for name in ["submit", "admit", "enqueue", "dispatch", "complete"] {
        assert!(has(name), "missing {name} events");
    }
    // Ten tasks in, ten completions out.
    let completes = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Complete { .. }))
        .count();
    assert_eq!(completes, 10);
}

#[test]
fn wire_trace_and_trace_out_file_serve_the_same_bytes() {
    let sock = scratch("wire", "sock");
    let trace_path = scratch("wire", "jsonl");
    std::fs::remove_file(&trace_path).ok();
    let cfg = ServerConfig {
        scheduler: SchedulerConfig {
            cores: 2,
            shards: env_shards(),
            trace_capacity: 4096,
            ..SchedulerConfig::default()
        },
        trace_out: Some(trace_path.clone()),
        ..ServerConfig::new(Endpoint::Unix(sock))
    };
    let handle = serve(cfg).expect("server binds");

    let report = client::replay(handle.endpoint(), &mixed_trace()).expect("replay succeeds");
    assert_eq!(report.shed, 0);
    assert_eq!(report.errors, 0);

    // Fetch the trace over the wire.
    let mut conn = Connection::open(handle.endpoint()).expect("client connects");
    let resp = conn
        .round_trip(&encode_command("trace"))
        .expect("trace round-trips");
    let Response::Ok(_) = &resp else {
        panic!("trace failed: {resp:?}");
    };
    let count = resp.field("count").and_then(value_u64).expect("count");
    let dropped = resp.field("dropped").and_then(value_u64).expect("dropped");
    assert_eq!(dropped, 0);
    let Some(Value::Array(items)) = resp.field("events") else {
        panic!("trace response carries an events array");
    };
    assert_eq!(items.len() as u64, count);
    let wire_lines: Vec<&str> = items
        .iter()
        .map(|v| match v {
            Value::String(s) => s.as_str(),
            other => panic!("event is not a string: {other:?}"),
        })
        .collect();
    assert!(!wire_lines.is_empty());

    handle.shutdown();
    handle.wait();

    // The file the server flushed must hold the byte-identical stream.
    let file = std::fs::read_to_string(&trace_path).expect("trace file written");
    let mut want = wire_lines.join("\n");
    want.push('\n');
    assert_eq!(file, want, "file and wire trace diverge");

    // And the stream round-trips through the parser into a Perfetto-
    // loadable Chrome trace with one named track per shard×core.
    let events = parse_jsonl(&file).expect("trace file parses");
    let chrome = chrome_trace(&events);
    assert!(chrome.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(chrome.contains("\"ph\":\"X\""), "no duration spans");
    assert!(chrome.contains("\"name\":\"process_name\""));
    assert!(chrome.contains("\"name\":\"thread_name\""));

    std::fs::remove_file(&trace_path).ok();
}

/// Decode a `trace`/`trace_stream` response's events array as owned
/// strings.
fn event_lines(resp: &Response) -> Vec<String> {
    let Some(Value::Array(items)) = resp.field("events") else {
        panic!("response carries an events array: {resp:?}");
    };
    items
        .iter()
        .map(|v| match v {
            Value::String(s) => s.clone(),
            other => panic!("event is not a string: {other:?}"),
        })
        .collect()
}

#[test]
fn trace_stream_chunks_and_file_match_the_one_shot_trace() {
    // Reference: the identical workload against a one-shot `trace`.
    let reference = traced_run(env_shards());
    assert!(!reference.is_empty());

    let sock = scratch("stream", "sock");
    let trace_path = scratch("stream", "jsonl");
    std::fs::remove_file(&trace_path).ok();
    let cfg = ServerConfig {
        scheduler: SchedulerConfig {
            cores: 2,
            shards: env_shards(),
            trace_capacity: 4096,
            ..SchedulerConfig::default()
        },
        trace_out: Some(trace_path.clone()),
        ..ServerConfig::new(Endpoint::Unix(sock))
    };
    let handle = serve(cfg).expect("server binds");

    let report = client::replay(handle.endpoint(), &mixed_trace()).expect("replay succeeds");
    assert_eq!(report.shed, 0);
    assert_eq!(report.errors, 0);

    // First stream drains everything retained...
    let mut conn = Connection::open(handle.endpoint()).expect("client connects");
    let resp = conn
        .round_trip(&encode_command("trace_stream"))
        .expect("trace_stream round-trips");
    let Response::Ok(_) = &resp else {
        panic!("trace_stream failed: {resp:?}");
    };
    assert_eq!(resp.field("dropped").and_then(value_u64), Some(0));
    let chunk1 = event_lines(&resp);
    assert_eq!(
        resp.field("count").and_then(value_u64),
        Some(chunk1.len() as u64)
    );
    assert_eq!(
        resp.field("streamed").and_then(value_u64),
        Some(chunk1.len() as u64)
    );

    // ... and the second chunk is empty: drain-and-forget, with the
    // cumulative streamed cursor standing still.
    let resp2 = conn
        .round_trip(&encode_command("trace_stream"))
        .expect("second trace_stream round-trips");
    let chunk2 = event_lines(&resp2);
    assert!(chunk2.is_empty(), "stream must forget drained events");
    assert_eq!(
        resp2.field("streamed").and_then(value_u64),
        Some(chunk1.len() as u64)
    );

    // Byte identity: the concatenated chunks are the one-shot trace the
    // in-process reference produced for the same workload.
    let streamed: Vec<String> = chunk1.into_iter().chain(chunk2).collect();
    assert_eq!(streamed, reference, "streamed chunks diverge from trace");

    handle.shutdown();
    handle.wait();

    // The append-only file saw exactly the streamed bytes once — the
    // stream's file append and the shutdown flush share one cursor, so
    // nothing is duplicated or lost.
    let file = std::fs::read_to_string(&trace_path).expect("trace file written");
    let mut want = streamed.join("\n");
    want.push('\n');
    assert_eq!(file, want, "file and streamed trace diverge");
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn trace_command_errors_when_tracing_is_disabled() {
    let sock = scratch("disabled", "sock");
    let handle = serve(ServerConfig::new(Endpoint::Unix(sock))).expect("server binds");
    let mut conn = Connection::open(handle.endpoint()).expect("client connects");
    let resp = conn
        .round_trip(&encode_command("trace"))
        .expect("round-trips");
    assert!(
        matches!(resp, Response::Err { .. }),
        "expected an error, got {resp:?}"
    );
    handle.shutdown();
    handle.wait();
}

#[test]
fn dispatch_predictions_match_measured_costs_exactly_in_drain_mode() {
    // Four single-core shards, one task each, all arriving at t=0:
    // every task is dispatched once at its arrival, runs uncontended at
    // one rate, and completes — so the dispatch-time prediction
    // (remaining/eff, power·time) and the measured accrual are the
    // *same* float expressions and must agree bit-for-bit, not just
    // within an epsilon.
    let scheduler = dvfs_serve::Scheduler::new(
        SchedulerConfig {
            cores: 1,
            shards: 4,
            trace_capacity: 1024,
            ..SchedulerConfig::default()
        },
        Arc::new(Registry::new()),
    );
    for id in 0..4u64 {
        let r = scheduler.submit(
            Some(id),
            (id + 1) * 50_000_000,
            TaskClass::NonInteractive,
            Some(0.0),
        );
        assert!(r.is_ok(), "submit failed: {r:?}");
    }
    let round = scheduler.drain_round();
    assert_eq!(round.records.len(), 4);

    let events = parse_jsonl(&scheduler.trace_lines().join("\n")).expect("trace parses");
    let mut checked = 0;
    for id in 0..4u64 {
        let (pe, pt) = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Dispatch {
                    task,
                    predicted_energy_j,
                    predicted_time_s,
                    ..
                } if *task == id => Some((*predicted_energy_j, *predicted_time_s)),
                _ => None,
            })
            .expect("dispatch event for task");
        let (me, mt) = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Complete {
                    task,
                    energy_j,
                    turnaround_s,
                    ..
                } if *task == id => Some((*energy_j, *turnaround_s)),
                _ => None,
            })
            .expect("complete event for task");
        // Bit-exact: `==` on f64, no epsilon.
        assert_eq!(pe, me, "task {id}: predicted energy != measured");
        assert_eq!(pt, mt, "task {id}: predicted time != measured turnaround");
        // The drain report charges the same joules.
        let rec = round
            .records
            .iter()
            .find(|r| r.id.0 == id)
            .expect("record for task");
        assert_eq!(rec.energy_joules, me, "task {id}: report disagrees");
        checked += 1;
    }
    assert_eq!(checked, 4);
}
