//! Fixed-capacity event rings: the storage behind the trace bus.
//!
//! One [`Ring`] per engine shard, overwrite-oldest when full. Overwrite
//! (rather than block or grow) keeps the record path O(1) and
//! allocation-free in steady state: a full ring pops the oldest event
//! and counts it in `dropped`, so a drained trace always states how
//! much history it lost. Sequence numbers are per-ring, monotonic, and
//! never reset — a gap between consecutive drained events is exactly
//! the number of overwritten events between them.
//!
//! The record path here is replay-critical: no wall-clock reads and no
//! allocation-heavy formatting (the crate's `clippy.toml` disallows
//! both here). Rendering happens in [`crate::export`], off the ring.

use crate::{EventKind, TraceEvent, TraceSink};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A single-owner event ring for one shard.
#[derive(Debug)]
pub struct Ring {
    shard: u32,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
}

impl Ring {
    /// An empty ring for `shard` holding at most `capacity` events. A
    /// zero-capacity ring records nothing and counts every event as
    /// dropped.
    #[must_use]
    pub fn new(shard: u32, capacity: usize) -> Self {
        Ring {
            shard,
            capacity,
            events: VecDeque::with_capacity(capacity.min(1024)),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Record one event at engine time `time`, overwriting the oldest
    /// event if the ring is full.
    pub fn record(&mut self, time: f64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            time,
            shard: self.shard,
            seq,
            kind,
        });
    }

    /// Take every buffered event, oldest first, leaving the ring empty.
    /// Sequence numbers keep counting across drains.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.events.drain(..).collect()
    }

    /// Events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten (or refused by a zero-capacity ring) so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The shard this ring records for.
    #[must_use]
    pub fn shard(&self) -> u32 {
        self.shard
    }
}

impl TraceSink for Ring {
    fn record(&mut self, time: f64, kind: EventKind) {
        Ring::record(self, time, kind);
    }
}

/// A shard ring shared between the service front end (which records
/// `submit`/`admit`/`shed` from connection threads) and that shard's
/// executor (which records the engine events). The mutex is a *leaf*
/// lock: record sites take it for one push and release it — it is never
/// held across an engine lock, so it cannot participate in a lock-order
/// cycle.
#[derive(Debug, Clone)]
pub struct SharedRing {
    inner: Arc<Mutex<Ring>>,
}

impl SharedRing {
    /// A shared empty ring for `shard` with `capacity` slots.
    #[must_use]
    pub fn new(shard: u32, capacity: usize) -> Self {
        SharedRing {
            inner: Arc::new(Mutex::new(Ring::new(shard, capacity))),
        }
    }

    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one event (one short lock hold).
    pub fn record(&self, time: f64, kind: EventKind) {
        self.ring().record(time, kind);
    }

    /// Take every buffered event, oldest first.
    #[must_use]
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.ring().drain()
    }

    /// Events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring().len()
    }

    /// True when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring().is_empty()
    }

    /// Events overwritten so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring().dropped()
    }
}

impl TraceSink for SharedRing {
    fn record(&mut self, time: f64, kind: EventKind) {
        SharedRing::record(self, time, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(task: u64) -> EventKind {
        EventKind::Preempt { task, core: 0 }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = Ring::new(3, 2);
        r.record(0.0, ev(1));
        r.record(1.0, ev(2));
        r.record(2.0, ev(3));
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 1);
        let events = r.drain();
        assert!(r.is_empty());
        assert_eq!(events.len(), 2);
        // Oldest event (seq 0) was overwritten; seq keeps counting.
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[1].seq, 2);
        assert_eq!(events[0].shard, 3);
        assert_eq!(events[1].kind, ev(3));
        // Sequence numbering continues across drains.
        r.record(3.0, ev(4));
        assert_eq!(r.drain()[0].seq, 3);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut r = Ring::new(0, 0);
        r.record(0.0, ev(1));
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn shared_ring_clones_view_one_buffer() {
        let a = SharedRing::new(0, 8);
        let mut b = a.clone();
        a.record(0.5, ev(7));
        TraceSink::record(&mut b, 1.5, ev(8));
        assert_eq!(a.len(), 2);
        let events = b.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].time, 0.5);
        assert_eq!(events[1].time, 1.5);
        assert!(a.is_empty());
        assert_eq!(a.dropped(), 0);
    }
}
