//! Cross-shard rebalancing.
//!
//! Routing is one-shot, so shards can still diverge after placement.
//! When [`RebalanceConfig::enabled`] is set, every `tick` ends with a
//! rebalance pass: it reads each worker's published load gauge
//! (engine backlog + the Eq. 32 queued-cost total of its resident
//! queue), and when the hottest shard's queued cost exceeds the
//! coldest's by more than `MIN_COST_GAP` it moves a batch — sized
//! to close about half the cost gap, capped at `MAX_BATCH` — of queued
//! (never dispatched) tasks hot→cold through the worker command
//! protocol — `Steal` on the hot worker (Algorithm 6 ledger deletes,
//! longest-cycles first), `Inject` on the cold worker (normal
//! Algorithm 5 inserts via the arrival path), with `migrate` trace
//! events and `migrations{,_out,_in}` counters recording the decision.
//! The pass runs only from the tick path — never a free-running
//! thread — and the default is off, so replay drains (which never
//! tick) stay bit-identical to the simulator reference.

use crate::metrics::{shard_metric, Registry};
use crate::worker::{Command, ShardShared, WorkerHandle};
use std::sync::Arc;

/// Relative queued-cost gap the hot shard must hold over the cold one
/// before tasks move (`hot > cold * (1 + MIN_COST_GAP)`) — the guard
/// that keeps near-balanced shards from thrashing work back and forth.
const MIN_COST_GAP: f64 = 0.25;
/// Most tasks migrated per rebalance pass.
const MAX_BATCH: usize = 8;

/// Cross-shard rebalancer switch (`--rebalance on|off`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RebalanceConfig {
    /// Master switch. Off by default: a disabled rebalancer touches no
    /// engine, so replay rounds stay bit-identical to the simulator.
    pub enabled: bool,
}

impl RebalanceConfig {
    /// The rebalancer switched on.
    #[must_use]
    pub fn on() -> Self {
        RebalanceConfig { enabled: true }
    }
}

/// One rebalance pass, run at the end of every tick; a no-op unless
/// the rebalancer is enabled and there are at least two shards. Times
/// itself into the `rebalance_pass_us` gauge.
pub(crate) fn pass(
    cfg: &RebalanceConfig,
    shards: &[Arc<ShardShared>],
    workers: &[WorkerHandle],
    metrics: &Registry,
) {
    if !cfg.enabled || shards.len() < 2 {
        return;
    }
    let t0 = crate::clock::wall_now();
    migrate(shards, workers, metrics);
    let micros = crate::clock::wall_now().duration_since(t0).as_micros();
    metrics
        .gauge("rebalance_pass_us")
        .set(i64::try_from(micros).unwrap_or(i64::MAX));
}

/// Read the load gauges every worker just republished during its
/// tick, pick the hottest and coldest shards by Eq. 32 queued cost,
/// and — when the gap clears `MIN_COST_GAP` and the hot shard has
/// queued (not-yet-dispatched) work — move up to `MAX_BATCH` tasks:
/// `Steal` pulls them out of the hot engine's ledger, `Inject`
/// re-enqueues them on the cold engine's arrival path (recording a
/// `migrate` trace event per task).
fn migrate(shards: &[Arc<ShardShared>], workers: &[WorkerHandle], metrics: &Registry) {
    let (mut hot, mut cold) = (0usize, 0usize);
    let (mut hot_cost, mut cold_cost) = (f64::MIN, f64::MAX);
    for (k, sh) in shards.iter().enumerate() {
        let cost = sh.queued_cost();
        if cost > hot_cost {
            hot = k;
            hot_cost = cost;
        }
        if cost < cold_cost {
            cold = k;
            cold_cost = cost;
        }
    }
    let backlog = shards[hot].backlog();
    if hot == cold || backlog == 0 || hot_cost <= cold_cost * (1.0 + MIN_COST_GAP) {
        return;
    }
    // Size the batch to close about half the cost gap, converting
    // cost to a task count via the hot shard's average queued cost.
    // Sizing off the backlog alone oscillates: once shards are
    // near-balanced it keeps swinging `MAX_BATCH` of the longest
    // tasks between them, flipping hot and cold every tick. The
    // next tick re-evaluates with fresh gauges rather than chasing
    // the remainder in one pass.
    let gap_share = (hot_cost - cold_cost) / (2.0 * hot_cost);
    // `gap_share` is in (0, 0.5], so the product is a small non-negative count.
    let batch = ((backlog as f64 * gap_share) as usize).clamp(1, MAX_BATCH);
    let tasks = workers[hot].ask("steal", |reply| Command::Steal { max: batch, reply });
    if tasks.is_empty() {
        // Every backlogged job was already running or not yet
        // arrived; nothing safe to move this pass.
        return;
    }
    let moved = tasks.len() as u64;
    let injected = workers[cold].ask("inject", |reply| Command::Inject {
        from_shard: hot as u32,
        from_cost: hot_cost,
        to_cost: cold_cost,
        tasks,
        reply,
    });
    debug_assert_eq!(
        injected as u64, moved,
        "cold shard accepts every stolen task"
    );
    metrics.counter("migrations").add(moved);
    metrics
        .counter(&shard_metric("migrations_out", hot))
        .add(moved);
    metrics
        .counter(&shard_metric("migrations_in", cold))
        .add(moved);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{value_f64, value_u64};
    use crate::service::{Scheduler, SchedulerConfig};
    use dvfs_model::TaskClass;

    /// A two-core service whose explicit even ids all skew onto shard 0.
    fn skewed(shards: usize, rebalance: RebalanceConfig, trace_capacity: usize) -> Scheduler {
        let s = Scheduler::new(
            SchedulerConfig {
                cores: 2,
                queue_capacity: 64,
                shards,
                trace_capacity,
                rebalance,
                ..SchedulerConfig::default()
            },
            Arc::new(Registry::new()),
        );
        for i in 0..8u64 {
            assert!(s
                .submit(
                    Some(2 * i),
                    400_000_000,
                    TaskClass::NonInteractive,
                    Some(0.0)
                )
                .is_ok());
        }
        s
    }

    #[test]
    fn rebalancer_moves_queued_tasks_hot_to_cold_and_counts_migrations() {
        let s = skewed(2, RebalanceConfig::on(), 256);
        // The tick pulls the skew into shard 0's engine (2 running, 6
        // queued) and ends with a rebalance pass: shard 1's queued cost
        // is zero, so the gap clears and half the backlog moves.
        s.tick();
        let moved = s.metrics().counter("migrations").get();
        assert_eq!(moved, 3, "half the backlog of 6, capped by MAX_BATCH");
        assert_eq!(
            s.metrics()
                .counter(&shard_metric("migrations_out", 0))
                .get(),
            moved
        );
        assert_eq!(
            s.metrics().counter(&shard_metric("migrations_in", 1)).get(),
            moved
        );
        let stats = s.stats();
        let rate = value_f64(stats.field("migration_rate").unwrap()).unwrap();
        assert!(rate > 0.0, "stats must report a positive migration_rate");
        // Every task still completes exactly once, wherever it ran.
        let served = s.drain_run();
        assert!(served.is_ok());
        assert_eq!(value_u64(served.field("completed").unwrap()), Some(8));
        // The receiving shard recorded one migrate trace event per task.
        let migrates = s
            .trace_lines()
            .iter()
            .filter(|l| l.contains("\"ev\":\"migrate\""))
            .count();
        assert_eq!(migrates as u64, moved);
    }

    #[test]
    fn rebalancer_is_a_no_op_on_one_shard_and_when_disabled() {
        // One shard: nothing to balance against, even when enabled.
        let single = skewed(1, RebalanceConfig::on(), 0);
        single.tick();
        assert_eq!(single.metrics().counter("migrations").get(), 0);

        // Disabled (the default): a skewed sharded service never
        // migrates — the contract the conformance suite leans on.
        let s = skewed(2, RebalanceConfig::default(), 0);
        s.tick();
        assert_eq!(s.metrics().counter("migrations").get(), 0);
    }
}
