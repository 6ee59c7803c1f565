//! End-to-end tests for `dvfs-serve`: a real server on a real socket,
//! driven by its wire client over the NDJSON protocol.
//!
//! The headline property is *determinism*: a replay-mode server fed a
//! trace over a Unix-domain socket must serve exactly the schedule the
//! library produces for the same trace in process — same total cost,
//! same makespan. The rest pins the operational contract: malformed
//! input cannot crash the server, queue overflow sheds with an explicit
//! `overloaded` error, and the wire `shutdown` command drains the
//! backlog.
//!
//! The determinism tests replay the same pinned trace in every cell of
//! `cells::CELLS` (reactor at 1, 2 and 4 shards, threads at 2), and
//! because the trace's explicit ids all hash to shard 0, every shard
//! count must produce the bit-identical schedule. The rest run on both
//! backends.

mod cells;

use cells::{BACKENDS, CELLS, SHARDS};
use dvfs_serve::client::{self, Connection};
use dvfs_serve::protocol::{
    encode_command, encode_submit, value_f64, value_u64, ErrorKind, Response,
};
use dvfs_serve::service::service_platform;
use dvfs_serve::{serve, Endpoint, Registry, SchedulerConfig, ServerConfig};
use dvfs_suite::core::LeastMarginalCost;
use dvfs_suite::model::{Task, TaskClass};
use dvfs_suite::sim::{SimConfig, Simulator};
use std::path::PathBuf;

/// A collision-free scratch path per test (the process id keeps
/// parallel `cargo test` invocations apart; the name keeps tests within
/// one run apart).
fn scratch(name: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dvfs-serve-e2e-{}-{name}.{ext}",
        std::process::id()
    ))
}

/// A small mixed trace: interleaved interactive / non-interactive tasks
/// with staggered arrivals and unequal sizes, enough to force
/// non-trivial LMC decisions on two cores. Ids are multiples of 4 so
/// the whole trace hashes to shard 0 at every swept shard count (1, 2,
/// 4) — the schedule must not depend on the shard count.
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

/// The books as one object: `stats` and `health` each carry `books`,
/// every field equal to the counter of its name (`in_flight` to
/// admitted − completed), and `balanced` is 1 — the replay drained.
fn assert_books_balanced(conn: &mut Connection, metrics: &Registry) {
    let counter = |name: &str| metrics.counter(name).get();
    for cmd in ["stats", "health"] {
        let resp = conn.round_trip(&encode_command(cmd)).expect(cmd);
        let books = resp
            .field("books")
            .unwrap_or_else(|| panic!("{cmd}: {resp:?}"));
        let field = |name: &str| books.get(name).and_then(value_u64);
        for name in [
            "submitted",
            "admitted",
            "completed",
            "shed",
            "shed_worker_behind",
            "rejected_invalid",
            "rejected_duplicate_id",
            "rejected_shutting_down",
        ] {
            assert_eq!(field(name), Some(counter(name)), "{cmd}: books.{name}");
        }
        let in_flight = counter("admitted") - counter("completed");
        assert_eq!(field("in_flight"), Some(in_flight), "{cmd}");
        assert_eq!(field("balanced"), Some(1), "{cmd}: {books:?}");
    }
}

#[test]
fn replay_over_unix_socket_matches_in_process_lmc() {
    for (net, shards) in CELLS {
        replay_matches_in_process_lmc(net, shards);
    }
}

fn replay_matches_in_process_lmc(net: dvfs_serve::NetBackend, shards: usize) {
    let cell = format!("{} x {shards}", net.name());
    let sock = scratch("replay", "sock");
    let cfg = ServerConfig {
        net,
        scheduler: SchedulerConfig {
            cores: 2,
            shards,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::new(Endpoint::Unix(sock))
    };
    let cores = cfg.scheduler.cores;
    let params = cfg.scheduler.params;
    let handle = serve(cfg).expect("server binds");

    let trace = mixed_trace();
    let report = client::replay(handle.endpoint(), &trace).expect("replay succeeds");
    let mut conn = Connection::open(handle.endpoint()).expect("client connects");
    assert_books_balanced(&mut conn, &handle.metrics());

    handle.shutdown();
    handle.wait();

    assert_eq!(report.sent, trace.len() as u64, "{cell}");
    assert_eq!(report.admitted, trace.len() as u64, "{cell}: nothing shed");
    assert_eq!(report.shed, 0, "{cell}");
    assert_eq!(report.errors, 0, "{cell}");

    // Reference: the identical trace through the library, in process.
    let platform = service_platform(cores);
    let mut policy = LeastMarginalCost::new(&platform, params);
    let mut sim = Simulator::new(SimConfig::new(platform));
    sim.add_tasks(&trace);
    let want = sim.run(&mut policy);

    let served = |name| {
        (report.drain.field(name))
            .and_then(value_f64)
            .unwrap_or_else(|| panic!("drain reports {name}"))
    };
    assert_eq!(
        report.drain.field("completed").and_then(value_u64),
        Some(trace.len() as u64)
    );
    assert!(
        (served("total_cost") - want.cost(params).total()).abs() < 1e-12,
        "{cell}: served cost {} != library cost {}",
        served("total_cost"),
        want.cost(params).total()
    );
    assert!(
        (served("makespan_s") - want.makespan).abs() < 1e-12,
        "{cell}: served makespan {} != library makespan {}",
        served("makespan_s"),
        want.makespan
    );
    assert!(
        (served("active_energy_joules") - want.active_energy_joules).abs() < 1e-12,
        "{cell}: served energy {} != library energy {}",
        served("active_energy_joules"),
        want.active_energy_joules
    );
}

#[test]
fn real_time_executor_replay_is_bit_identical_to_the_simulator() {
    // The strong form of the determinism contract: the service's
    // wall-clock executor must reproduce the simulator's schedule not
    // just in the totals the wire reports, but task by task — exact
    // (`==`, no epsilon) energy, turnaround, per-task cost, and the
    // same completion order.
    let params = dvfs_suite::model::CostParams::online_paper();
    let trace = mixed_trace();

    // Library reference on the virtual-time executor.
    let platform = service_platform(2);
    let mut policy = LeastMarginalCost::new(&platform, params);
    let mut sim = Simulator::new(SimConfig::new(platform));
    sim.add_tasks(&trace);
    let want = sim.run(&mut policy);
    let want_order: Vec<_> = sim.take_completions().iter().map(|r| r.id).collect();

    // The same trace through the service's submission path and the
    // real-time executor, at every swept shard count.
    for shards in SHARDS {
        let scheduler = dvfs_serve::Scheduler::new(
            SchedulerConfig {
                cores: 2,
                shards,
                ..SchedulerConfig::default()
            },
            std::sync::Arc::new(Registry::new()),
        );
        for t in &trace {
            let r = scheduler.submit(Some(t.id.0), t.cycles, t.class, Some(t.arrival));
            assert!(r.is_ok(), "submit failed at {shards} shards: {r:?}");
        }
        let got = scheduler.drain_round();
        let got_order: Vec<_> = got.records.iter().map(|r| r.id).collect();
        assert_eq!(got_order, want_order, "completion order at {shards} shards");
        assert_matches_simulator(&got, &want, params);
    }
}

/// Task by task and in total, `got` is `want` bit for bit.
fn assert_matches_simulator(
    got: &dvfs_serve::RoundReport,
    want: &dvfs_suite::sim::SimReport,
    params: dvfs_suite::model::CostParams,
) {
    for rec in &got.records {
        let reference = want.tasks[&rec.id];
        assert_eq!(rec.completion, reference.completion, "task {}", rec.id);
        assert_eq!(rec.first_start, reference.first_start, "task {}", rec.id);
        assert_eq!(
            rec.energy_joules, reference.energy_joules,
            "task {}",
            rec.id
        );
        assert_eq!(rec.preemptions, reference.preemptions, "task {}", rec.id);
        // Per-task monetary cost, computed the way the service's
        // histograms charge it: bit-equal, not merely close.
        let got_cost =
            params.re * rec.energy_joules + params.rt * rec.turnaround().expect("completed task");
        let want_cost = params.re * reference.energy_joules
            + params.rt * reference.turnaround().expect("completed task");
        assert_eq!(got_cost, want_cost, "task {}", rec.id);
    }
    assert_eq!(got.active_energy_joules, want.active_energy_joules);
    assert_eq!(got.total_turnaround_s, want.total_turnaround());
    assert_eq!(got.makespan_s, want.makespan);
    assert_eq!(got.total_cost(params), want.cost(params).total());
}

#[test]
fn malformed_input_cannot_crash_the_server() {
    for net in BACKENDS {
        let sock = scratch("malformed", "sock");
        let cfg = ServerConfig {
            net,
            ..ServerConfig::new(Endpoint::Unix(sock))
        };
        let handle = serve(cfg).expect("server binds");
        let mut conn = Connection::open(handle.endpoint()).expect("client connects");

        for garbage in [
            "this is not json",
            "{\"cmd\":\"submit\"}",              // missing cycles
            "{\"cmd\":\"no-such-command\"}",     // unknown cmd
            "[1,2,3]",                           // not an object
            "{\"cmd\":\"submit\",\"cycles\":0}", // zero cycles rejected by the model
        ] {
            let resp = conn.round_trip(garbage).expect("server keeps answering");
            match resp {
                Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest, "{garbage}"),
                Response::Ok(_) => panic!("garbage accepted: {garbage}"),
            }
        }

        // The connection — and the server — are still fully functional.
        let pong = conn
            .round_trip(&encode_command("ping"))
            .expect("ping round-trips");
        assert!(pong.is_ok());
        let submit = conn
            .round_trip(&encode_submit(
                None,
                1_000_000,
                TaskClass::Interactive,
                None,
            ))
            .expect("submit round-trips");
        assert!(submit.is_ok());
        assert!(handle.metrics().counter("malformed_requests").get() >= 5);

        handle.shutdown();
        handle.wait();
    }
}

#[test]
fn queue_overflow_sheds_with_explicit_overloaded_error() {
    for net in BACKENDS {
        let sock = scratch("overflow", "sock");
        let cfg = ServerConfig {
            net,
            scheduler: SchedulerConfig {
                // Capacity 2 with one slot reserved for interactive tasks:
                // the second non-interactive submission must shed. Pinned
                // to one shard — more shards would split the capacity and
                // route the second submission to an empty sibling.
                queue_capacity: 2,
                shards: 1,
                ..SchedulerConfig::default()
            },
            ..ServerConfig::new(Endpoint::Unix(sock))
        };
        let handle = serve(cfg).expect("server binds");
        let mut conn = Connection::open(handle.endpoint()).expect("client connects");

        let admit = conn
            .round_trip(&encode_submit(None, 1_000, TaskClass::NonInteractive, None))
            .expect("first submit round-trips");
        assert!(admit.is_ok());

        let shed = conn
            .round_trip(&encode_submit(None, 1_000, TaskClass::NonInteractive, None))
            .expect("second submit round-trips");
        match shed {
            Response::Err { kind, message } => {
                assert_eq!(kind, ErrorKind::Overloaded);
                assert!(message.contains("queue full"), "message: {message}");
            }
            Response::Ok(_) => panic!("expected overloaded shed"),
        }

        // The reserve still admits interactive work under pressure.
        let reserved = conn
            .round_trip(&encode_submit(None, 1_000, TaskClass::Interactive, None))
            .expect("interactive submit round-trips");
        assert!(reserved.is_ok());
        assert_eq!(handle.metrics().counter("shed").get(), 1);
        // Two admitted, one shed: once drained, the books balance.
        let drained = conn
            .round_trip(&encode_command("drain"))
            .expect("drain round-trips");
        assert_eq!(drained.field("completed").and_then(value_u64), Some(2));
        assert!(handle.books_balanced(), "{:?}", handle.metrics().snapshot());

        handle.shutdown();
        handle.wait();
    }
}

#[test]
fn wire_shutdown_drains_the_backlog() {
    for (net, shards) in CELLS {
        let sock = scratch("shutdown", "sock");
        let cfg = ServerConfig {
            net,
            scheduler: SchedulerConfig {
                shards,
                ..SchedulerConfig::default()
            },
            ..ServerConfig::new(Endpoint::Unix(sock))
        };
        let handle = serve(cfg).expect("server binds");
        let metrics = handle.metrics();
        let mut conn = Connection::open(handle.endpoint()).expect("client connects");

        let admit = conn
            .round_trip(&encode_submit(
                Some(7),
                40_000_000,
                TaskClass::NonInteractive,
                Some(0.0),
            ))
            .expect("submit round-trips");
        assert!(admit.is_ok());

        let bye = conn
            .round_trip(&encode_command("shutdown"))
            .expect("shutdown acknowledged before the socket closes");
        assert!(bye.is_ok());
        // A second shutdown, behind the wire's, returns once the one
        // drain has run — it waits for the front end's if that has
        // begun, or runs it itself — and never drains twice.
        handle.shutdown();
        handle.wait();

        // Graceful shutdown drained the admitted backlog.
        assert_eq!(metrics.counter("completed").get(), 1, "backlog drained");
    }
}

#[test]
fn shard_counts_1_2_4_replay_a_shard0_trace_bit_identically() {
    // Every id in `mixed_trace` is a multiple of 4, so the whole trace
    // hashes to shard 0 at 1, 2, and 4 shards. The sibling shards
    // contribute empty reports, and the merge must leave the totals and
    // the task-by-task records bit-identical (`==`, no epsilon) across
    // shard counts.
    let trace = mixed_trace();
    let mut rounds = Vec::new();
    for shards in [1usize, 2, 4] {
        let scheduler = dvfs_serve::Scheduler::new(
            SchedulerConfig {
                cores: 2,
                shards,
                ..SchedulerConfig::default()
            },
            std::sync::Arc::new(dvfs_serve::Registry::new()),
        );
        for t in &trace {
            let r = scheduler.submit(Some(t.id.0), t.cycles, t.class, Some(t.arrival));
            assert!(r.is_ok(), "submit failed at {shards} shards: {r:?}");
        }
        rounds.push((shards, scheduler.drain_round()));
    }
    let (_, reference) = &rounds[0];
    for (shards, round) in &rounds[1..] {
        assert_eq!(
            round.records.len(),
            reference.records.len(),
            "{shards} shards"
        );
        for (got, want) in round.records.iter().zip(&reference.records) {
            assert_eq!(got.id, want.id, "{shards} shards");
            assert_eq!(got.completion, want.completion, "{shards} shards");
            assert_eq!(got.energy_joules, want.energy_joules, "{shards} shards");
        }
        assert_eq!(
            round.active_energy_joules, reference.active_energy_joules,
            "{shards} shards"
        );
        assert_eq!(
            round.total_turnaround_s, reference.total_turnaround_s,
            "{shards} shards"
        );
        assert_eq!(round.makespan_s, reference.makespan_s, "{shards} shards");
    }
}

#[test]
fn multi_shard_drain_completes_disjoint_trace_and_merges_totals() {
    for net in BACKENDS {
        // A trace whose ids cover both shards of a 2-shard server: every
        // admitted task must complete, and the top-level drain totals must
        // equal the fold of the per-shard reports (sum for completed,
        // energy, and turnaround; max for makespan).
        let sock = scratch("disjoint", "sock");
        let cfg = ServerConfig {
            net,
            scheduler: SchedulerConfig {
                cores: 2,
                shards: 2,
                ..SchedulerConfig::default()
            },
            ..ServerConfig::new(Endpoint::Unix(sock))
        };
        let handle = serve(cfg).expect("server binds");
        let mut conn = Connection::open(handle.endpoint()).expect("client connects");

        let n_tasks = 12u64;
        for id in 0..n_tasks {
            let class = if id % 2 == 0 {
                TaskClass::Interactive
            } else {
                TaskClass::NonInteractive
            };
            let resp = conn
                .round_trip(&encode_submit(
                    Some(id),
                    (id + 1) * 30_000_000,
                    class,
                    Some(id as f64 * 0.01),
                ))
                .expect("submit round-trips");
            assert!(resp.is_ok(), "submit {id}: {resp:?}");
            // Explicit ids route by id % shards.
            assert_eq!(
                resp.field("shard").and_then(value_u64),
                Some(id % 2),
                "task {id}"
            );
        }

        let drained = conn
            .round_trip(&encode_command("drain"))
            .expect("drain round-trips");
        assert_eq!(drained.field("shards").and_then(value_u64), Some(2));
        assert_eq!(
            drained.field("completed").and_then(value_u64),
            Some(n_tasks),
            "every admitted task completes"
        );

        let reports = drained
            .field("shard_reports")
            .and_then(|v| v.as_array())
            .expect("drain carries shard_reports");
        assert_eq!(reports.len(), 2);
        let sum = |name: &str| -> f64 {
            reports
                .iter()
                .map(|r| r.get(name).and_then(value_f64).expect("report field"))
                .sum()
        };
        let completed_sum: u64 = reports
            .iter()
            .map(|r| r.get("completed").and_then(value_u64).expect("completed"))
            .sum();
        assert_eq!(completed_sum, n_tasks);
        assert!(
            reports
                .iter()
                .all(|r| r.get("completed").and_then(value_u64) == Some(n_tasks / 2)),
            "even/odd ids split evenly across 2 shards"
        );
        let merged_energy = drained
            .field("active_energy_joules")
            .and_then(value_f64)
            .unwrap();
        let merged_turnaround = drained
            .field("total_turnaround_s")
            .and_then(value_f64)
            .unwrap();
        let merged_makespan = drained.field("makespan_s").and_then(value_f64).unwrap();
        let max_makespan = reports
            .iter()
            .map(|r| r.get("makespan_s").and_then(value_f64).expect("makespan"))
            .fold(0.0f64, f64::max);
        assert_eq!(merged_energy, sum("active_energy_joules"));
        assert_eq!(merged_turnaround, sum("total_turnaround_s"));
        assert_eq!(merged_makespan, max_makespan);

        handle.shutdown();
        handle.wait();
    }
}

#[test]
fn tcp_endpoint_serves_the_same_protocol() {
    for net in BACKENDS {
        let cfg = ServerConfig {
            net,
            ..ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".to_string()))
        };
        let handle = serve(cfg).expect("server binds an ephemeral port");
        // Port 0 resolves to the actual bound address.
        match handle.endpoint() {
            Endpoint::Tcp(addr) => assert!(!addr.ends_with(":0"), "resolved addr: {addr}"),
            Endpoint::Unix(_) => panic!("expected a TCP endpoint"),
        }
        let mut conn = Connection::open(handle.endpoint()).expect("client connects over TCP");
        assert!(conn
            .round_trip(&encode_command("ping"))
            .expect("ping round-trips")
            .is_ok());
        assert!(conn
            .round_trip(&encode_submit(None, 2_000_000, TaskClass::Batch, None))
            .expect("submit round-trips")
            .is_ok());
        let drained = conn
            .round_trip(&encode_command("drain"))
            .expect("drain round-trips");
        assert_eq!(
            drained
                .field("completed")
                .and_then(dvfs_serve::protocol::value_u64),
            Some(1)
        );
        assert!(value_f64(drained.field("total_cost").expect("cost field")).is_some());

        handle.shutdown();
        handle.wait();
    }
}
