//! Worker-side concurrency violations: a raw atomic published with
//! `Relaxed` instead of through the metrics module's advisory cell, a
//! `Relaxed` poll of the shutdown handshake, and an unbounded channel.
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};

pub static SHUTTING_DOWN: AtomicBool = AtomicBool::new(false);

pub struct Worker {
    steps: u64,
    /// Atomics-discipline violation (the raw-atomic mutation): a load
    /// gauge kept as a bare `AtomicU64` so its accesses can — and do —
    /// name `Relaxed` outside `metrics.rs`.
    backlog: AtomicU64,
}

impl Worker {
    pub fn publish(&self) {
        self.backlog.store(self.steps, Ordering::Relaxed);
    }

    /// A worker that polls the shutdown flag with `Relaxed` can run one
    /// stale round after the service raised it.
    pub fn should_stop(&self) -> bool {
        SHUTTING_DOWN.load(Ordering::Relaxed)
    }
}

/// Channel-protocol violation: a wedged consumer lets this queue grow
/// without backpressure.
pub fn open_firehose() -> (Sender<u64>, Receiver<u64>) {
    channel()
}
