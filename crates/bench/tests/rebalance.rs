//! Cross-shard rebalancer smoke test (CI runs it with `-- --ignored`):
//! a deliberately skewed workload — every explicit id `≡ 0 mod 4`, so
//! the hash router pins the whole set to shard 0 of 4 — replayed twice
//! through the worker-backed service, with the rebalancer off and on.
//!
//! With the rebalancer off, shard 0's two cores grind through the
//! entire set while six idle cores watch. With it on, each tick's
//! rebalance pass steals queued tasks from the hot shard's ledger and
//! re-enqueues them on the coldest shard, so the drain finishes on
//! eight cores. Two gates, both deterministic (replay mode never reads
//! the wall clock):
//!
//! * tasks migrated (`migrations` counter > 0, reported as
//!   `migration_rate` per admitted task), and
//! * the merged Eq. 27 cost (`Re·E + Rt·T`) of the rebalanced run is
//!   strictly below the skewed run's — and within a loose factor of
//!   the committed improvement in `BENCH_rebalance.json`, so a
//!   regression that quietly stops migrating (or migrates to no
//!   benefit) trips CI.
//!
//! The committed file is only read; the run's numbers land under the
//! target directory (`dvfs_bench::smoke`).

use dvfs_bench::smoke;
use dvfs_model::TaskClass;
use dvfs_serve::protocol::{value_f64, value_u64};
use dvfs_serve::{RebalanceConfig, Registry, Scheduler, SchedulerConfig};
use std::sync::Arc;

const SHARDS: u64 = 4;
const TASKS: u64 = 120;
/// Rebalance passes before the drain. Each pass moves at most eight
/// tasks, so this bounds how far the skew can spread; the
/// gap guard stops the passes early once the shards even out.
const TICKS: usize = 30;

/// Replay the pinned skewed set and return (total cost, migrations,
/// migration rate per admitted task).
fn skewed_run(rebalance: RebalanceConfig) -> (f64, u64, f64) {
    let scheduler = Scheduler::new(
        SchedulerConfig {
            cores: 2,
            shards: SHARDS as usize,
            // Split per shard with a class headroom reserve, so size it
            // for the whole set landing on shard 0.
            queue_capacity: TASKS as usize * SHARDS as usize * 2,
            rebalance,
            ..SchedulerConfig::default()
        },
        Arc::new(Registry::new()),
    );
    for i in 0..TASKS {
        // All ids ≡ 0 mod SHARDS: the whole set hashes to shard 0.
        let cycles = 50_000_000 + (i % 13) * 7_000_000;
        let r = scheduler.submit(
            Some(i * SHARDS),
            cycles,
            TaskClass::NonInteractive,
            Some(0.0),
        );
        assert!(r.is_ok(), "submit shed: {r:?}");
    }
    // Replay ticks advance no engine time (the replay target is 0), so
    // each one is a pure pull + rebalance pass.
    for _ in 0..TICKS {
        scheduler.tick();
    }
    let migrations = scheduler.metrics().counter("migrations").get();
    let admitted = scheduler.metrics().counter("admitted").get();
    let served = scheduler.drain_run();
    assert!(served.is_ok(), "drain failed: {served:?}");
    assert_eq!(
        value_u64(served.field("completed").unwrap()),
        Some(TASKS),
        "every skewed task completes exactly once, wherever it ran"
    );
    let cost = value_f64(served.field("total_cost").unwrap()).expect("drain reports total_cost");
    (cost, migrations, migrations as f64 / admitted.max(1) as f64)
}

#[test]
#[ignore = "CI smoke: run with `cargo test -p dvfs-bench --test rebalance -- --ignored`"]
fn rebalancer_beats_the_skewed_baseline_on_merged_cost() {
    let (cost_off, off_migrations, _) = skewed_run(RebalanceConfig::default());
    assert_eq!(off_migrations, 0, "disabled rebalancer must not migrate");
    let (cost_on, migrations, migration_rate) = skewed_run(RebalanceConfig::on());

    assert!(
        migrations > 0,
        "skewed load across {SHARDS} shards never triggered a migration"
    );
    assert!(
        cost_on < cost_off,
        "rebalanced cost {cost_on} is not below the skewed baseline {cost_off}"
    );
    let improvement = (cost_off - cost_on) / cost_off;

    // Gate against the committed baseline: the improvement must not
    // collapse. Replay is deterministic, so the loose factor only
    // guards intentional retunes, not noise.
    if let Some(base) = smoke::baseline("rebalance", "cost_improvement") {
        let bound = base * 0.5;
        assert!(
            improvement >= bound,
            "cost improvement regressed: {improvement:.4} vs committed {base:.4} (bound {bound:.4})"
        );
    }

    let json = format!(
        "{{\"shards\":{SHARDS},\"tasks\":{TASKS},\"ticks\":{TICKS},\"migrations\":{migrations},\"migration_rate\":{migration_rate},\"cost_skewed\":{cost_off},\"cost_rebalanced\":{cost_on},\"cost_improvement\":{improvement}}}\n"
    );
    smoke::record("rebalance", &json);
    println!(
        "rebalance: {migrations} migration(s) (rate {migration_rate:.3}), cost {cost_off:.6} -> {cost_on:.6} ({:.1}% better)",
        improvement * 100.0
    );
}
