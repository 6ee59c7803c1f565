//! Engine events and the time-ordered event queue (private to
//! [`super::engine`]). Arrivals come mostly in time order — a replay
//! registers a whole batch at one stamp — so they wait in a FIFO that
//! costs O(1) a push; completions, governor ticks and an arrival
//! earlier than the FIFO's tail go to a `BinaryHeap`. A pop takes the
//! earlier of the two heads, so events leave in the one `(time, class,
//! seq)` order either way.

use dvfs_model::CoreId;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

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
    /// Arrivals in pop order: each pushed no earlier than the tail.
    arrivals: VecDeque<Event>,
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
        let event = Event { time, seq, kind };
        let in_order = self.arrivals.back().is_none_or(|tail| tail.time <= time);
        if matches!(kind, EventKind::Arrival { .. }) && in_order {
            self.arrivals.push_back(event);
        } else {
            self.heap.push(event);
        }
    }

    /// Whether the FIFO's head pops before the heap's (`Ord` is
    /// inverted: the greater event is the earlier).
    fn fifo_first(&self) -> bool {
        match (self.arrivals.front(), self.heap.peek()) {
            (Some(arrival), Some(other)) => arrival > other,
            (arrival, _) => arrival.is_some(),
        }
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        if self.fifo_first() {
            self.arrivals.pop_front()
        } else {
            self.heap.pop()
        }
    }

    /// The earliest pending event, without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<&Event> {
        if self.fifo_first() {
            self.arrivals.front()
        } else {
            self.heap.peek()
        }
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

    /// Seeded runs of interleaved pushes and pops — arrivals mostly in
    /// time order with some behind the FIFO's tail, completions and
    /// ticks anywhere, times on a coarse grid so ties are common —
    /// against a plain `BinaryHeap` of the same events: every peek and
    /// every pop agree.
    #[test]
    fn pops_exactly_what_a_plain_heap_pops() {
        use rand::{Rng, SeedableRng};
        for seed in 0..64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let (mut q, mut heap) = (EventQueue::default(), BinaryHeap::new());
            let mut clock = 0.0;
            for _ in 0..2_000 {
                if rng.gen_bool(0.6) {
                    let kind = match rng.gen_range(0..10) {
                        0..=5 => EventKind::Arrival { slot: 0 },
                        6..=7 => EventKind::Completion { core: 1, epoch: 2 },
                        _ => EventKind::GovernorTick { core: 3 },
                    };
                    let step = f64::from(rng.gen_range(0..4u8)) * 0.25;
                    let time = if rng.gen_bool(0.9) {
                        clock + step
                    } else {
                        clock - step
                    };
                    clock = clock.max(time);
                    heap.push(Event {
                        time,
                        seq: q.next_seq,
                        kind,
                    });
                    q.push(time, kind);
                } else {
                    assert_eq!(q.peek(), heap.peek(), "seed {seed}");
                    assert_eq!(q.pop(), heap.pop(), "seed {seed}");
                }
            }
            while let Some(event) = heap.pop() {
                assert_eq!(q.pop(), Some(event), "seed {seed}");
            }
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn rejects_nonfinite_time() {
        let mut q = EventQueue::default();
        q.push(f64::NAN, EventKind::GovernorTick { core: 0 });
    }
}
