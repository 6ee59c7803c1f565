//! Concurrency-clean service shapes: advisory values go through the
//! metrics module's cell (no `Relaxed` token here), the stop flag is a
//! SeqCst handshake, and the command channel is a bounded
//! `sync_channel`.
use crate::metrics::AdvisoryCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

pub enum Command {
    Tick,
    Drain,
}

pub struct Scheduler {
    workers: Vec<SyncSender<Command>>,
    /// Spreads untargeted submissions round-robin; a stale read only
    /// skews placement, never replay.
    router_cursor: AdvisoryCell,
    /// Cross-thread shutdown handshake: SeqCst on both sides.
    stop: AtomicBool,
}

pub fn command_channel() -> (SyncSender<Command>, Receiver<Command>) {
    sync_channel(32)
}

impl Scheduler {
    pub fn route(&self) -> usize {
        self.router_cursor.add(1) as usize % self.workers.len().max(1)
    }

    pub fn begin_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    pub fn tick(&self) {
        for tx in &self.workers {
            if tx.send(Command::Tick).is_err() {
                return;
            }
        }
    }
}
