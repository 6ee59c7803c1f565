//! Engine events and the time-ordered event queue (private to
//! [`super::engine`], the one place a `BinaryHeap<Event>` lives).

use dvfs_model::CoreId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happened at an event timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The task running on `core` finished, provided the core's epoch
    /// still equals `epoch` when the event is popped.
    Completion {
        /// Core the completion belongs to.
        core: CoreId,
        /// Epoch stamp used to invalidate stale completions.
        epoch: u64,
    },
    /// Periodic governor evaluation for `core`.
    GovernorTick {
        /// Core whose governor fires.
        core: CoreId,
    },
    /// A task arrives in the system.
    Arrival {
        /// The engine slot of the arriving task.
        slot: usize,
    },
}

impl EventKind {
    /// Priority among events at the same timestamp: completions free
    /// cores before governors re-evaluate load, and both precede new
    /// arrivals.
    fn class_order(&self) -> u8 {
        match self {
            EventKind::Completion { .. } => 0,
            EventKind::GovernorTick { .. } => 1,
            EventKind::Arrival { .. } => 2,
        }
    }
}

/// A timestamped event. Ordered by time, then kind class, then FIFO
/// sequence, so replay is fully deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Engine time in seconds.
    pub time: f64,
    /// Tie-break sequence number (insertion order).
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops
        // first. Times are finite by construction.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times must be finite")
            .then_with(|| other.kind.class_order().cmp(&self.kind.class_order()))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic min-queue of events.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Schedule `kind` at absolute `time`.
    ///
    /// # Panics
    /// Panics when `time` is not finite.
    pub fn push(&mut self, time: f64, kind: EventKind) {
        assert!(time.is_finite(), "cannot schedule an event at t={time}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// The earliest pending event, without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<&Event> {
        self.heap.peek()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.push(3.0, EventKind::Arrival { slot: 3 });
        q.push(1.0, EventKind::Arrival { slot: 1 });
        q.push(2.0, EventKind::Arrival { slot: 2 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn same_time_completion_before_tick_before_arrival() {
        let mut q = EventQueue::default();
        q.push(1.0, EventKind::Arrival { slot: 9 });
        q.push(1.0, EventKind::GovernorTick { core: 0 });
        q.push(1.0, EventKind::Completion { core: 0, epoch: 0 });
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::Completion { .. }
        ));
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::GovernorTick { .. }
        ));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Arrival { .. }));
    }

    #[test]
    fn same_time_same_kind_is_fifo() {
        let mut q = EventQueue::default();
        q.push(1.0, EventKind::Arrival { slot: 1 });
        q.push(1.0, EventKind::Arrival { slot: 2 });
        q.push(1.0, EventKind::Arrival { slot: 3 });
        let slots: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Arrival { slot } => slot,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(slots, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn rejects_nonfinite_time() {
        let mut q = EventQueue::default();
        q.push(f64::NAN, EventKind::GovernorTick { core: 0 });
    }
}
