//! Parallelism smoke test (CI runs it with `-- --ignored`): shard
//! workers must actually run concurrently, not just own their engines.
//!
//! The same task set is drained through the worker-backed service at 1
//! shard and at 4 shards; with explicit ids `0..N` routing `id % n`,
//! the 4-shard run splits the work into four engines drained by four
//! worker threads behind the round barrier. On a host with at least 4
//! cores the 4-shard drain must finish at least 2× faster than the
//! 1-shard drain — the acceptance gate that the message-passing
//! refactor bought true parallelism. On smaller hosts (CI containers
//! are often 1–2 cores) the gate is informational: the run still
//! exercises the fan-out and records its numbers, but threads that
//! time-share one core cannot show wall-clock speedup.
//!
//! The run's numbers, with the host core count so they stay honest
//! about what they could measure, land under the target directory as
//! `BENCH_parallel.json` (`dvfs_bench::smoke`); the committed file at
//! the repository root is a record, not a gate.

use dvfs_bench::smoke;
use dvfs_model::TaskClass;
use dvfs_serve::{Registry, Scheduler, SchedulerConfig};
use std::sync::Arc;
use std::time::Instant;

const TASKS: u64 = 6_000;

/// Submit the pinned task set and time the drain at `shards`.
fn drain_seconds(shards: usize) -> f64 {
    let scheduler = Scheduler::new(
        SchedulerConfig {
            cores: 2,
            shards,
            // Headroom over the admission gate's interactive-only
            // reserve band, so nothing in the pinned set sheds.
            queue_capacity: TASKS as usize * 2,
            ..SchedulerConfig::default()
        },
        Arc::new(Registry::new()),
    );
    for id in 0..TASKS {
        let class = if id % 3 == 0 {
            TaskClass::Interactive
        } else {
            TaskClass::NonInteractive
        };
        let cycles = 1_000_000 + (id % 97) * 50_000;
        let r = scheduler.submit(Some(id), cycles, class, Some(0.0));
        assert!(r.is_ok(), "submit shed: {r:?}");
    }
    let started = Instant::now();
    let report = scheduler.drain_round();
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(
        report.records.len() as u64,
        TASKS,
        "drain completed the whole set at {shards} shard(s)"
    );
    elapsed
}

#[test]
#[ignore = "CI smoke: run with `cargo test -p dvfs-bench --test parallel_drain -- --ignored`"]
fn four_shards_drain_at_least_twice_as_fast_on_a_four_core_host() {
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    // Interleave the measurements to average out machine noise.
    let (mut t1, mut t4) = (0.0f64, 0.0f64);
    const REPS: usize = 3;
    for _ in 0..REPS {
        t1 += drain_seconds(1);
        t4 += drain_seconds(4);
    }
    t1 /= REPS as f64;
    t4 /= REPS as f64;
    let speedup = t1 / t4.max(1e-9);

    let gated = host_cores >= 4;
    if gated {
        assert!(
            speedup >= 2.0,
            "4-shard drain speedup {speedup:.2}x < 2x on a {host_cores}-core host \
             (1 shard {t1:.3}s, 4 shards {t4:.3}s): workers are not running concurrently"
        );
    }

    let json = format!(
        "{{\"host_cores\":{host_cores},\"tasks\":{TASKS},\"reps\":{REPS},\"shards1_drain_s\":{t1},\"shards4_drain_s\":{t4},\"speedup\":{speedup},\"gate_enforced\":{gated}}}\n"
    );
    smoke::record("parallel", &json);
    println!(
        "parallel_drain: {host_cores} host core(s), 1 shard {:.1} ms, 4 shards {:.1} ms, speedup {speedup:.2}x (gate {})",
        t1 * 1e3,
        t4 * 1e3,
        if gated { "enforced" } else { "informational" }
    );
}
