//! End-to-end tests for `dvfs-trace` through the service: the drained
//! lifecycle trace must be **bit-identical** across runs and shard
//! counts (timestamps are engine seconds, never wall time), the wire
//! `trace` command and the `--trace-out` file must serve the same
//! bytes, and every `dispatch` event's predicted energy/time must match
//! the measured values exactly when a task runs uncontended to
//! completion in drain mode.
//!
//! The determinism tests run in every cell of `cells::CELLS`, like
//! `serve_e2e.rs`, and sweep the shard counts in process too: the
//! pinned trace's ids all hash to shard 0 at 1, 2, and 4 shards, so the
//! drained event stream must not depend on the shard count. The
//! Chrome-trace export is held to valid JSON whatever numbers the
//! events carry, a `trace_stream` reply rendered in pieces is the
//! one-shot bytes, and a multi-megabyte trace reply answered beside a
//! `shutdown` reaches the client whole on both backends.

mod cells;

use cells::{BACKENDS, CELLS, SHARDS};
use dvfs_net::{Caller, Handler, Output};
use dvfs_serve::client::{self, Connection};
use dvfs_serve::protocol::{encode_command, value_u64};
use dvfs_serve::{serve, Endpoint, Registry, Response, SchedulerConfig, ServerConfig};
use dvfs_suite::model::{Task, TaskClass};
use dvfs_suite::serve::parse_jsonl;
use dvfs_suite::trace::export::{chrome_trace, PIECE_EVENTS};
use dvfs_suite::trace::{EventKind, TraceEvent};
use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

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
    let reference = traced_run(1);
    assert!(!reference.is_empty(), "trace must record the run");
    // Re-running the identical workload must reproduce the identical
    // bytes — no wall-clock, allocation order, or thread interleaving
    // may leak into the stream. The pinned ids all hash to shard 0, so
    // the stream is also invariant under the shard count.
    for shards in SHARDS {
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
    for (net, shards) in CELLS {
        let sock = scratch("wire", "sock");
        let trace_path = scratch("wire", "jsonl");
        std::fs::remove_file(&trace_path).ok();
        let cfg = ServerConfig {
            net,
            scheduler: SchedulerConfig {
                cores: 2,
                shards,
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
    for (net, shards) in CELLS {
        // Reference: the identical workload against a one-shot `trace`.
        let reference = traced_run(shards);
        assert!(!reference.is_empty());

        let sock = scratch("stream", "sock");
        let trace_path = scratch("stream", "jsonl");
        std::fs::remove_file(&trace_path).ok();
        let cfg = ServerConfig {
            net,
            scheduler: SchedulerConfig {
                cores: 2,
                shards,
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
}

/// A round rendered in several pieces — at least three of
/// `PIECE_EVENTS` — gets a `trace_stream` reply whose bytes are a
/// one-shot render of the same round into a `Vec`, in every cell: the
/// threads backend spills the pieces as they are rendered, the reactor
/// keeps them whole. The ids are multiples of 4, so the round is the
/// same at every shard count.
#[test]
fn a_trace_stream_reply_in_pieces_is_the_one_shot_bytes() {
    const TASKS: u64 = 10_000;
    let tasks: Vec<Task> = (0..TASKS)
        .map(|i| {
            let class = [
                TaskClass::Interactive,
                TaskClass::NonInteractive,
                TaskClass::Batch,
            ];
            let class = class[i as usize % 3];
            Task::online(
                4 * i,
                20_000_000 + 7_000 * (i % 97),
                i as f64 * 1e-3,
                None,
                class,
            )
            .expect("valid synthetic task")
        })
        .collect();
    let config = |shards| SchedulerConfig {
        cores: 4,
        shards,
        // Split over the shards: room for every task on shard 0 at 4.
        queue_capacity: 8 * TASKS as usize,
        trace_capacity: 1 << 17,
        ..SchedulerConfig::default()
    };
    let one_shot = {
        let scheduler = dvfs_serve::Scheduler::new(config(1), Arc::new(Registry::new()));
        for t in &tasks {
            let r = scheduler.submit(Some(t.id.0), t.cycles, t.class, Some(t.arrival));
            assert!(r.is_ok(), "submit failed: {r:?}");
        }
        scheduler.drain_round();
        assert!(scheduler.trace_lines().len() >= 3 * PIECE_EVENTS);
        let mut out = Vec::new();
        let request = [encode_command("trace_stream").into()];
        let output = &mut Output::new(&mut out, None);
        Handler::answer(
            &scheduler,
            &request,
            Instant::now(),
            output,
            Caller::MayWait,
        );
        out
    };
    for (net, shards) in CELLS {
        let sock = scratch(&format!("pieces-{}-{shards}", net.name()), "sock");
        let cfg = ServerConfig {
            net,
            scheduler: config(shards),
            ..ServerConfig::new(Endpoint::Unix(sock.clone()))
        };
        let handle = serve(cfg).expect("server binds");
        let report = client::replay(handle.endpoint(), &tasks).expect("replay succeeds");
        assert_eq!((report.shed, report.errors), (0, 0));
        let mut stream = UnixStream::connect(&sock).expect("client connects");
        stream
            .write_all(b"{\"cmd\":\"trace_stream\"}\n")
            .expect("request sent");
        let mut reply = Vec::new();
        BufReader::new(stream)
            .read_until(b'\n', &mut reply)
            .expect("reply read");
        assert!(
            reply == one_shot,
            "{} x {shards}: {} bytes, the one-shot render {}",
            net.name(),
            reply.len(),
            one_shot.len()
        );
        handle.shutdown();
        handle.wait();
    }
}

#[test]
fn trace_command_errors_when_tracing_is_disabled() {
    for net in BACKENDS {
        let sock = scratch("disabled", "sock");
        let cfg = ServerConfig {
            net,
            ..ServerConfig::new(Endpoint::Unix(sock))
        };
        let handle = serve(cfg).expect("server binds");
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

/// A Chrome trace is JSON whatever the events carry: a span, instant
/// or counter sample whose timestamp, duration or value is NaN or ±inf
/// is left out (`NaN` and `inf` are not JSON, and Perfetto refuses the
/// file), and the finite rest is kept. A non-finite `energy_j` adds
/// nothing to the cumulative energy counter.
#[test]
fn chrome_trace_leaves_out_non_finite_numbers() {
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let event = |time: f64, kind: EventKind| TraceEvent {
        time,
        shard: 0,
        seq: 0,
        kind,
    };
    let dispatch = |task| EventKind::Dispatch {
        task,
        core: 0,
        rate: 3,
        predicted_energy_j: 1.0,
        predicted_time_s: 1.0,
    };
    let complete = |task, energy_j| EventKind::Complete {
        task,
        core: 0,
        energy_j,
        turnaround_s: 1.0,
    };
    let events = [
        event(0.0, dispatch(1)),
        event(1.0, complete(1, 2.0)),
        // Spans from or to a non-finite time.
        event(-inf, dispatch(2)),
        event(2.0, complete(2, 1.0)),
        event(3.0, dispatch(3)),
        event(inf, complete(3, 1.0)),
        // Finite spans whose energy is not.
        event(5.0, dispatch(5)),
        event(6.0, complete(5, nan)),
        event(7.0, dispatch(6)),
        event(8.0, complete(6, inf)),
        event(9.0, dispatch(7)),
        event(10.0, complete(7, -inf)),
        event(11.0, dispatch(8)),
        event(12.0, complete(8, 0.5)),
        // Counter samples and instants at non-finite times.
        event(nan, EventKind::Admit { task: 9, depth: 1 }),
        event(
            nan,
            EventKind::RateChange {
                core: 1,
                from: 0,
                to: 2,
            },
        ),
        event(
            inf,
            EventKind::Migrate {
                task: 9,
                from_shard: 1,
                to_shard: 0,
                from_cost: 1.0,
                to_cost: 0.0,
            },
        ),
    ];
    let chrome = chrome_trace(&events);
    let doc = serde_json::from_str(&chrome).unwrap_or_else(|e| panic!("{e}: {chrome}"));
    let Some(Value::Array(items)) = doc.get("traceEvents") else {
        panic!("traceEvents array: {chrome}");
    };
    let named = |name: &str| {
        let is = |e: &&Value| e.get("name").and_then(Value::as_str) == Some(name);
        items.iter().filter(is).collect::<Vec<_>>()
    };
    for task in [1, 5, 6, 7, 8] {
        assert_eq!(
            named(&format!("task {task}")).len(),
            1,
            "task {task}: {chrome}"
        );
    }
    for task in [2, 3] {
        assert!(
            named(&format!("task {task}")).is_empty(),
            "task {task}: {chrome}"
        );
    }
    for name in ["queue depth", "core 1 rate", "rate 0->2", "migrate task 9"] {
        assert!(named(name).is_empty(), "{name}: {chrome}");
    }
    let joules: Vec<f64> = named("energy (J)")
        .iter()
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("joules"))
                .and_then(Value::as_f64)
        })
        .collect::<Option<_>>()
        .expect("every energy sample carries its joules");
    assert_eq!(joules, [2.0, 3.0, 3.5], "{chrome}");
}

/// A `trace` reply of several megabytes — far past a Unix socket's
/// buffer — asked for in one write with a `shutdown` reaches the
/// client whole, followed by the shutdown's ack: the reactor writes out
/// what it has queued before it closes, as the threads backend does.
/// The client reads nothing for [`READ_AFTER`], long enough for the
/// stop to be under way, so a server that wrote only what fit the
/// buffer at the stop has closed the connection by then.
#[test]
fn a_trace_reply_beside_a_shutdown_leaves_whole() {
    const TASKS: u64 = 6_000;
    const READ_AFTER: std::time::Duration = std::time::Duration::from_millis(500);
    for net in BACKENDS {
        let sock = scratch(&format!("whole-{}", net.name()), "sock");
        let cfg = ServerConfig {
            net,
            scheduler: SchedulerConfig {
                cores: 2,
                queue_capacity: 2 * TASKS as usize,
                trace_capacity: 1 << 16,
                ..SchedulerConfig::default()
            },
            ..ServerConfig::new(Endpoint::Unix(sock.clone()))
        };
        let handle = serve(cfg).expect("server binds");
        let tasks: Vec<Task> = (0..TASKS)
            .map(|i| {
                Task::online(
                    i,
                    50_000_000,
                    i as f64 * 1e-3,
                    None,
                    TaskClass::NonInteractive,
                )
                .expect("valid synthetic task")
            })
            .collect();
        let report = client::replay(handle.endpoint(), &tasks).expect("replay succeeds");
        assert_eq!((report.shed, report.errors), (0, 0));

        let mut stream = UnixStream::connect(&sock).expect("client connects");
        stream
            .write_all(b"{\"cmd\":\"trace\"}\n{\"cmd\":\"shutdown\"}\n")
            .expect("both requests sent");
        std::thread::sleep(READ_AFTER);
        let mut got = String::new();
        stream.read_to_string(&mut got).expect("read to the close");
        handle.wait();

        let lines: Vec<&str> = got.lines().collect();
        let [trace, ack] = lines[..] else {
            panic!("{}: {} bytes, not two whole lines", net.name(), got.len());
        };
        assert!(
            got.len() > 4 << 20,
            "a {} byte reply is too small",
            got.len()
        );
        let trace = Response::decode(trace).expect("the trace reply decodes");
        let count = trace.field("count").and_then(value_u64).expect("count");
        assert_eq!(event_lines(&trace).len() as u64, count, "{}", net.name());
        assert!(Response::decode(ack).expect("the ack decodes").is_ok());
    }
}
