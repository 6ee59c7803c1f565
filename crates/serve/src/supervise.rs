//! Stall supervision: turning stale worker heartbeats into
//! `worker_stalled` episodes and the `degraded` flag.
//!
//! The supervisor reads only the lock-free heartbeat slots and never
//! touches a worker channel, so a wedged worker cannot wedge its own
//! supervisor.

use crate::metrics::{shard_metric, Registry};
use crate::service::Scheduler;
use crate::worker::ShardShared;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// How often the supervisor thread samples the worker heartbeats.
const STALL_POLL: Duration = Duration::from_millis(200);
/// How long a worker may sit on an outstanding command without
/// progress before it is declared stalled.
const STALL_AFTER: Duration = Duration::from_secs(5);

/// The supervisor thread's body: sample `scheduler`'s heartbeats every
/// `STALL_POLL` until it begins shutting down.
pub(crate) fn run(scheduler: &Scheduler) {
    while !scheduler.is_shutting_down() {
        scheduler.check_stalls(STALL_AFTER);
        std::thread::sleep(STALL_POLL);
    }
}

/// Per-shard "currently in a stall episode" latches, so the supervisor
/// counts each stall once instead of once per poll.
pub(crate) struct StallLatches(Mutex<Vec<bool>>);

impl StallLatches {
    pub fn new(shards: usize) -> Self {
        StallLatches(Mutex::new(vec![false; shards]))
    }

    /// One supervisor pass: a worker with commands outstanding and no
    /// progress for `stall_after` is stalled. Each stall episode
    /// increments `worker_stalled` (global and per shard) exactly once
    /// — the per-shard latch resets when the worker makes progress
    /// again — and the `degraded` gauge reflects whether any shard is
    /// currently stalled.
    pub fn check(
        &self,
        shards: &[Arc<ShardShared>],
        metrics: &Registry,
        stall_after: Duration,
    ) -> bool {
        let mut latches = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let mut any = false;
        for (latched, sh) in latches.iter_mut().zip(shards) {
            let snap = sh.hb.snapshot();
            let stalled =
                snap.cmd_depth > 0 && snap.last_progress_age_s > stall_after.as_secs_f64();
            if stalled && !*latched {
                metrics.counter("worker_stalled").inc();
                metrics
                    .counter(&shard_metric("worker_stalled", sh.index))
                    .inc();
            }
            *latched = stalled;
            any |= stalled;
        }
        metrics.gauge("degraded").set(i64::from(any));
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stall supervisor counts episodes, not polls: a stalled shard
    /// increments `worker_stalled` once, stays latched while the stall
    /// persists, and re-arms after the worker makes progress again.
    #[test]
    fn check_latches_one_count_per_episode() {
        let metrics = Registry::new();
        let shards: Vec<Arc<ShardShared>> = (0..2)
            .map(|k| Arc::new(ShardShared::new(k, 8, 0)))
            .collect();
        let latches = StallLatches::new(shards.len());
        let check = |after_ms| latches.check(&shards, &metrics, Duration::from_millis(after_ms));
        // Healthy workers: no stall, not degraded.
        assert!(!check(0));
        assert_eq!(metrics.counter("worker_stalled").get(), 0);

        // Simulate a wedged shard-0 worker: a command counted as sent
        // but never dequeued, with the progress stamp aging out.
        shards[0].hb.note_send();
        std::thread::sleep(Duration::from_millis(2));
        assert!(check(1));
        assert_eq!(metrics.counter("worker_stalled").get(), 1);
        assert_eq!(metrics.counter(&shard_metric("worker_stalled", 0)).get(), 1);
        assert_eq!(metrics.gauge("degraded").get(), 1);
        // Still stalled: the latch holds the count at one.
        assert!(check(1));
        assert_eq!(metrics.counter("worker_stalled").get(), 1);

        // The worker recovers (dequeues the command, marks progress):
        // the flag clears and the latch re-arms.
        shards[0].hb.note_dequeue(crate::clock::wall_now());
        assert!(!check(1));
        assert_eq!(metrics.gauge("degraded").get(), 0);

        // A second episode counts again.
        shards[0].hb.note_send();
        std::thread::sleep(Duration::from_millis(2));
        assert!(check(1));
        assert_eq!(metrics.counter("worker_stalled").get(), 2);
    }
}
