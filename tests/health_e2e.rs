//! End-to-end tests for the runtime health plane: the `health` wire
//! command served by a real server on a real socket.
//!
//! Two properties are pinned. **Shape**: `health` returns the per-shard
//! worker heartbeats, the stage-attribution histograms, and the reactor
//! loop stats as one JSON document, with one heartbeat per shard.
//! **Attribution**: on a paced server driven over the wire, the
//! per-stage latency sums telescope to the observed end-to-end latency
//! within clock-seam tolerance — the stage clock accounts for the whole
//! request, it does not invent or lose time.
//!
//! Like `serve_e2e.rs`, both run in every cell of `cells::CELLS`.

mod cells;

use cells::CELLS;
use dvfs_serve::client::{self, Connection};
use dvfs_serve::protocol::{encode_command, encode_submit, value_f64, value_u64, Response};
use dvfs_serve::{
    serve, Endpoint, Mode, NetBackend, SchedulerConfig, ServerConfig, REQUEST_E2E, TELESCOPE_STAGES,
};
use dvfs_suite::model::{Task, TaskClass};
use serde_json::Value;
use std::path::PathBuf;

fn scratch(name: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dvfs-health-e2e-{}-{name}.{ext}",
        std::process::id()
    ))
}

/// Ids are multiples of 4 so the trace pins to shard 0 at 1, 2, and 4
/// shards — same shape as `serve_e2e::mixed_trace`.
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

/// Histogram sub-field of a `health` stages/reactor object.
fn hist_field(obj: &Value, name: &str, key: &str) -> Option<f64> {
    obj.get(name).and_then(|h| h.get(key)).and_then(value_f64)
}

fn hist_count(obj: &Value, name: &str) -> u64 {
    obj.get(name)
        .and_then(|h| h.get("count"))
        .and_then(value_u64)
        .unwrap_or(0)
}

#[test]
fn health_serves_heartbeats_stages_and_reactor_over_the_wire() {
    for (net, shards) in CELLS {
        let sock = scratch("shape", "sock");
        let cfg = ServerConfig {
            net,
            scheduler: SchedulerConfig {
                cores: 2,
                shards,
                ..SchedulerConfig::default()
            },
            ..ServerConfig::new(Endpoint::Unix(sock))
        };
        let handle = serve(cfg).expect("server binds");

        let report = client::replay(handle.endpoint(), &mixed_trace()).expect("replay succeeds");
        assert_eq!(report.shed, 0);
        assert_eq!(report.errors, 0);

        let mut conn = Connection::open(handle.endpoint()).expect("client connects");
        let resp = conn
            .round_trip(&encode_command("health"))
            .expect("health round-trips");
        let Response::Ok(_) = &resp else {
            panic!("health failed: {resp:?}");
        };

        // Top-level flags and counters.
        assert_eq!(resp.field("degraded").and_then(value_u64), Some(0));
        assert_eq!(resp.field("worker_stalled").and_then(value_u64), Some(0));
        assert_eq!(
            resp.field("worker_send_failed").and_then(value_u64),
            Some(0)
        );
        assert_eq!(
            resp.field("shards").and_then(value_u64),
            Some(shards as u64)
        );
        assert_eq!(resp.field("telemetry").and_then(value_u64), Some(1));

        // One heartbeat per shard, each with the full slot set.
        let Some(Value::Array(beats)) = resp.field("heartbeats") else {
            panic!("health carries a heartbeats array");
        };
        assert_eq!(beats.len(), shards);
        for (k, hb) in beats.iter().enumerate() {
            assert_eq!(hb.get("shard").and_then(value_u64), Some(k as u64));
            for key in [
                "last_progress_age_s",
                "cmd_depth",
                "dequeue_age_us",
                "tick_us",
                "drain_us",
                "steal_us",
                "inject_us",
                "queue_depth",
                "backlog",
            ] {
                assert!(hb.get(key).is_some(), "heartbeat {k} missing {key}");
            }
            // The replay round just finished: every worker progressed
            // recently and owes no commands.
            assert_eq!(hb.get("cmd_depth").and_then(value_u64), Some(0));
            let age = hb
                .get("last_progress_age_s")
                .and_then(value_f64)
                .expect("progress age");
            assert!(age < 60.0, "shard {k} progress age {age}");
        }

        // Stage histograms: every telescope stage recorded one sample per
        // request (the trace fully drained), and the e2e series matches.
        let stages = resp.field("stages").expect("health carries stages");
        let n = mixed_trace().len() as u64;
        for name in TELESCOPE_STAGES {
            assert_eq!(hist_count(stages, name), n, "stage {name} count");
        }
        assert_eq!(hist_count(stages, REQUEST_E2E), n);
        assert!(hist_field(stages, REQUEST_E2E, "p50").unwrap_or(-1.0) >= 0.0);

        // Reactor section: present with the loop counters. Under the
        // threads backend they stay zero; under the reactor the wakeup
        // counter must have moved.
        let reactor = resp.field("reactor").expect("health carries reactor");
        for key in [
            "wakeups",
            "wait_micros",
            "work_micros",
            "backpressure_stalls",
            "backpressure_stall_micros",
        ] {
            assert!(reactor.get(key).is_some(), "reactor missing {key}");
        }
        let wakeups = reactor.get("wakeups").and_then(value_u64);
        match net {
            NetBackend::Reactor => assert!(wakeups > Some(0), "reactor backend must count wakeups"),
            NetBackend::Threads => assert_eq!(wakeups, Some(0), "threads backend has no loop"),
        }

        handle.shutdown();
        handle.wait();
    }
}

#[test]
fn stage_sums_telescope_to_e2e_latency_over_the_wire() {
    for (net, shards) in CELLS {
        let sock = scratch("telescope", "sock");
        let cfg = ServerConfig {
            net,
            scheduler: SchedulerConfig {
                cores: 1,
                shards,
                mode: Mode::Paced { speed: 50.0 },
                ..SchedulerConfig::default()
            },
            ..ServerConfig::new(Endpoint::Unix(sock))
        };
        let handle = serve(cfg).expect("server binds");

        // Four sizeable tasks (~0.5 engine-seconds each at full rate), all
        // pinned to shard 0 so a multi-shard sweep still serializes them on
        // one engine. The paced ticker completes them in real time.
        let n = 4u64;
        let mut conn = Connection::open(handle.endpoint()).expect("client connects");
        for i in 0..n {
            let line = encode_submit(Some(i * 4), 1_600_000_000, TaskClass::NonInteractive, None);
            let resp = conn.round_trip(&line).expect("submit round-trips");
            assert!(matches!(resp, Response::Ok(_)), "submit failed: {resp:?}");
        }

        // Poll health until every request's end-to-end window has closed.
        let mut health = None;
        for _ in 0..1000 {
            let resp = conn
                .round_trip(&encode_command("health"))
                .expect("health round-trips");
            let Response::Ok(_) = &resp else {
                panic!("health failed: {resp:?}");
            };
            let done = resp
                .field("stages")
                .map(|s| hist_count(s, REQUEST_E2E) >= n)
                .unwrap_or(false);
            if done {
                health = Some(resp);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let health = health.expect("paced server completed the tasks in time");
        let stages = health.field("stages").expect("stages section");

        // Every telescope stage saw every request.
        for name in TELESCOPE_STAGES {
            assert_eq!(hist_count(stages, name), n, "stage {name} count");
        }

        // The invariant: stage sums telescope to the observed end-to-end
        // latency. The seams are closed by different clock reads (and the
        // engine stages are paced-tick quantized), so each request tolerates
        // up to a tick period of seam overlap plus a proportional slack.
        let stage_total: f64 = TELESCOPE_STAGES
            .iter()
            .map(|name| hist_field(stages, name, "sum").unwrap_or(0.0))
            .sum();
        let e2e_total = hist_field(stages, REQUEST_E2E, "sum").expect("e2e sum");
        assert!(e2e_total > 0.0, "e2e histogram recorded nothing");
        let tol = 0.30 * e2e_total + 0.02 * n as f64;
        assert!(
            (stage_total - e2e_total).abs() <= tol,
            "stage sums {stage_total} vs e2e {e2e_total} (tol {tol})"
        );

        handle.shutdown();
        handle.wait();
    }
}
