//! Concurrency stress for the worker-backed service (CI runs it with
//! `-- --ignored`, repeatedly, across both net backends and shard
//! counts): burst submitters race a drain loop and a final wire
//! shutdown, and the books must still balance — every admitted task is
//! completed by exactly one drained round, per-shard counts sum to the
//! round totals, and nothing panics, wedges, or leaks a worker.
//!
//! Unlike the replay pins this makes no determinism claim (arrivals
//! are stamped from the paced wall clock mid-race); it is purely an
//! interleaving shaker for the command-channel protocol: submissions
//! landing in admission queues while drain barriers broadcast, collect
//! in ascending shard order, and reset the round.

use dvfs_serve::client::Connection;
use dvfs_serve::protocol::{encode_command, encode_submit, value_u64, ErrorKind, Response};
use dvfs_serve::{serve, Endpoint, Mode, RebalanceConfig, SchedulerConfig, ServerConfig};
use dvfs_suite::model::TaskClass;
use serde::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn env_shards() -> usize {
    std::env::var("DVFS_SERVE_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dvfs-stress-{}-{name}.sock", std::process::id()))
}

/// Completed count of one drain response, plus the invariants that it
/// carries one report per shard and that their counts sum to it.
fn drained_of(resp: &Response, shards: usize) -> u64 {
    let completed = resp
        .field("completed")
        .and_then(value_u64)
        .expect("drain reports completed");
    let Some(Value::Array(reports)) = resp.field("shard_reports") else {
        panic!("drain carries shard_reports: {resp:?}");
    };
    assert_eq!(reports.len(), shards, "one report per shard");
    let per_shard: u64 = reports
        .iter()
        .map(|r| r.get("completed").and_then(value_u64).expect("completed"))
        .sum();
    assert_eq!(
        per_shard, completed,
        "per-shard completions must sum to the round total"
    );
    completed
}

#[test]
#[ignore = "CI stress: run with `cargo test --test concurrency_stress -- --ignored`"]
fn burst_submits_race_drains_and_shutdown_without_losing_tasks() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 200;

    let shards = env_shards();
    let cfg = ServerConfig {
        scheduler: SchedulerConfig {
            cores: 2,
            shards,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::new(Endpoint::Unix(scratch("burst")))
    };
    let handle = serve(cfg).expect("server binds");

    // A drain loop racing the submitters: every round it closes books
    // on whatever the workers have absorbed so far.
    let stop = Arc::new(AtomicBool::new(false));
    let drainer = {
        let endpoint = handle.endpoint().clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || -> std::io::Result<u64> {
            let mut conn = Connection::open(&endpoint)?;
            let mut completed = 0u64;
            while !stop.load(Ordering::Acquire) {
                let resp = conn.round_trip(&encode_command("drain"))?;
                completed += drained_of(&resp, shards);
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok(completed)
        })
    };

    let mut submitters = Vec::new();
    for c in 0..CLIENTS {
        let endpoint = handle.endpoint().clone();
        submitters.push(std::thread::spawn(
            move || -> std::io::Result<(u64, u64)> {
                let mut conn = Connection::open(&endpoint)?;
                let (mut admitted, mut shed) = (0u64, 0u64);
                for i in 0..PER_CLIENT {
                    let class = if i % 3 == 0 {
                        TaskClass::Interactive
                    } else {
                        TaskClass::NonInteractive
                    };
                    let cycles = 1_000_000 + (c * PER_CLIENT + i) as u64 * 10_000;
                    let line = encode_submit(None, cycles, class, None);
                    match conn.round_trip(&line)? {
                        Response::Ok(_) => admitted += 1,
                        Response::Err {
                            kind: ErrorKind::Overloaded,
                            ..
                        } => shed += 1,
                        Response::Err { kind, message } => {
                            panic!("unexpected wire error {kind:?}: {message}")
                        }
                    }
                }
                Ok((admitted, shed))
            },
        ));
    }

    let (mut admitted, mut shed) = (0u64, 0u64);
    for t in submitters {
        let (a, s) = t
            .join()
            .expect("submitter thread panicked")
            .expect("submitter io");
        admitted += a;
        shed += s;
    }
    assert_eq!(
        admitted + shed,
        (CLIENTS * PER_CLIENT) as u64,
        "every submission acked or shed"
    );

    stop.store(true, Ordering::Release);
    let drained_mid_race = drainer
        .join()
        .expect("drainer thread panicked")
        .expect("drainer io");

    // One more drain closes the final round; afterwards the ledger
    // must balance exactly: admitted == completed across all rounds.
    let mut conn = Connection::open(handle.endpoint()).expect("final connection");
    let resp = conn
        .round_trip(&encode_command("drain"))
        .expect("final drain");
    let total_completed = drained_mid_race + drained_of(&resp, shards);
    assert_eq!(
        total_completed, admitted,
        "admitted tasks must all complete across drained rounds (shed {shed})"
    );

    // Shutdown races the still-open connections; it must ack, drain
    // any stragglers, and join every shard worker.
    let bye = conn
        .round_trip(&encode_command("shutdown"))
        .expect("shutdown acks");
    assert!(bye.is_ok(), "shutdown response: {bye:?}");
    handle.wait();
}

#[test]
#[ignore = "CI stress: run with `cargo test --test concurrency_stress -- --ignored`"]
fn drain_races_wire_shutdown_with_rebalancer_on() {
    // Paced mode keeps the ticker thread running rebalance passes
    // (Steal/Inject command round-trips) while skewed submitters pile
    // everything onto shard 0, a drainer closes books mid-flight, and a
    // wire `shutdown` lands in the middle of all of it. The invariant
    // under test is liveness + protocol sanity, not the ledger: no
    // reply channel may hang a caller, shutdown must ack and join every
    // worker, and the only errors clients may see once shutdown begins
    // are `ShuttingDown` or a closed connection.
    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 400;

    let shards = env_shards().max(2); // rebalancing needs a second shard
    let cfg = ServerConfig {
        scheduler: SchedulerConfig {
            cores: 2,
            shards,
            mode: Mode::Paced { speed: 50.0 },
            rebalance: RebalanceConfig::on(),
            ..SchedulerConfig::default()
        },
        tick: Duration::from_millis(1),
        ..ServerConfig::new(Endpoint::Unix(scratch("rebal")))
    };
    let handle = serve(cfg).expect("server binds");

    let stop = Arc::new(AtomicBool::new(false));
    let drainer = {
        let endpoint = handle.endpoint().clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || -> u64 {
            let Ok(mut conn) = Connection::open(&endpoint) else {
                return 0;
            };
            let mut completed = 0u64;
            while !stop.load(Ordering::Acquire) {
                // Once shutdown lands, the drain either errors on the
                // wire or is refused — both are fine; just stop.
                match conn.round_trip(&encode_command("drain")) {
                    // `drained_of` re-checks the per-shard sum
                    // invariant on every mid-race round.
                    Ok(resp @ Response::Ok(_)) => completed += drained_of(&resp, shards),
                    Ok(Response::Err { .. }) | Err(_) => break,
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            completed
        })
    };

    let mut submitters = Vec::new();
    for c in 0..CLIENTS {
        let endpoint = handle.endpoint().clone();
        let stop = Arc::clone(&stop);
        submitters.push(std::thread::spawn(move || {
            let Ok(mut conn) = Connection::open(&endpoint) else {
                return;
            };
            for i in 0..PER_CLIENT {
                // Explicit ids ≡ 0 mod shards hash-route every task to
                // shard 0, manufacturing the imbalance the rebalancer
                // exists to undo.
                let seq = (c * PER_CLIENT + i) as u64;
                let id = (1_000_000_000 + seq) * shards as u64;
                let line = encode_submit(
                    Some(id),
                    2_000_000 + seq * 1_000,
                    TaskClass::NonInteractive,
                    None,
                );
                match conn.round_trip(&line) {
                    Ok(Response::Ok(_)) => {}
                    Ok(Response::Err {
                        kind: ErrorKind::Overloaded,
                        ..
                    }) => {}
                    Ok(Response::Err {
                        kind: ErrorKind::ShuttingDown,
                        ..
                    }) => return,
                    Ok(Response::Err { kind, message }) => {
                        panic!("unexpected wire error {kind:?}: {message}")
                    }
                    // A closed connection is only legal once shutdown
                    // has begun.
                    Err(e) => {
                        assert!(
                            stop.load(Ordering::Acquire),
                            "io error before shutdown: {e}"
                        );
                        return;
                    }
                }
            }
        }));
    }

    // Let the race build up real backlog and a few rebalance passes,
    // then drop shutdown right into the middle of it. `stop` is raised
    // *before* the wire command goes out so a submitter that loses its
    // connection to the shutdown never misreads it as a spurious error.
    std::thread::sleep(Duration::from_millis(40));
    stop.store(true, Ordering::Release);
    let bye = Connection::open(handle.endpoint())
        .expect("shutdown connection")
        .round_trip(&encode_command("shutdown"))
        .expect("shutdown acks");
    assert!(bye.is_ok(), "shutdown response: {bye:?}");

    for t in submitters {
        t.join().expect("submitter thread panicked");
    }
    drainer.join().expect("drainer thread panicked");

    // The real assertion: every shard worker joins — a dropped reply
    // sender or a wedged Steal/Inject round-trip would hang here.
    handle.wait();
}
