//! Bounded admission with class-aware shedding.
//!
//! The service accepts work through one bounded queue. When the queue
//! fills, new submissions are *shed* with an explicit overload response
//! rather than buffered without bound — the client sees backpressure
//! immediately instead of a timeout later. A slice of the capacity is
//! reserved for interactive tasks (the paper's latency-critical class):
//! non-interactive work is shed first, so a burst of batch submissions
//! cannot starve the class the scheduler exists to protect.
//!
//! On a paced server the queue is meant to be emptied every tick. One
//! that is full, or whose oldest task has waited longer than a tick,
//! says its worker is behind — mid-step, with its next pull about to
//! empty it. A submitter that can afford to block (a wire connection's
//! own thread, the reactor's slow lane) may therefore wait for that
//! pull (`AdmissionQueue::wait_for_worker`) before it goes on, which
//! paces closed-loop clients to the workers instead of filling the
//! queue and failing them. The wait has a deadline: a worker that does
//! not pull by then is wedged, and the submit is shed after all
//! ([`ShedReason::WorkerBehind`]).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::indexing_slicing, clippy::unreachable, clippy::unimplemented)]
#![deny(clippy::string_slice)]

use crate::stage::StageStamp;
use dvfs_model::{Task, TaskClass};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Admitted tasks in arrival order, each with its stage stamps.
type Queue = VecDeque<(Task, StageStamp)>;

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The queue is at capacity for this task class.
    QueueFull {
        /// Depth at refusal time.
        depth: usize,
        /// Effective capacity for the refused class.
        cap: usize,
    },
    /// The submitter waited out its deadline for the shard worker's
    /// next pull and none came.
    WorkerBehind,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull { depth, cap } => {
                write!(f, "admission queue full ({depth} of {cap})")
            }
            ShedReason::WorkerBehind => write!(f, "shard worker behind (no pull in time)"),
        }
    }
}

/// The pure admission decision, separated from the queue so the policy
/// is unit-testable.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Total queue slots.
    pub capacity: usize,
    /// Slots only interactive tasks may occupy. Must be `< capacity`
    /// for non-interactive work to be admissible at all.
    pub interactive_reserve: usize,
}

impl AdmissionPolicy {
    /// A policy with `capacity` slots, reserving a tenth (at least one
    /// when capacity permits) for interactive tasks.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let interactive_reserve = if capacity > 1 {
            (capacity / 10).max(1)
        } else {
            0
        };
        AdmissionPolicy {
            capacity,
            interactive_reserve,
        }
    }

    /// Effective capacity for a class: interactive tasks may use every
    /// slot; other classes stop short of the reserve.
    #[must_use]
    pub fn effective_cap(&self, class: TaskClass) -> usize {
        match class {
            TaskClass::Interactive => self.capacity,
            TaskClass::NonInteractive | TaskClass::Batch => {
                self.capacity.saturating_sub(self.interactive_reserve)
            }
        }
    }

    /// Decide whether a task of `class` may join a queue at `depth`.
    ///
    /// # Errors
    /// Returns the shed reason when the class's effective capacity is
    /// exhausted.
    pub fn admit(&self, depth: usize, class: TaskClass) -> Result<(), ShedReason> {
        let cap = self.effective_cap(class);
        if depth >= cap {
            return Err(ShedReason::QueueFull { depth, cap });
        }
        Ok(())
    }
}

/// Outcome of a gated submit ([`AdmissionQueue::try_submit_stamped`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GateOutcome {
    /// Admitted; carries the queue depth including the new task.
    Admitted(usize),
    /// Shed by the admission policy.
    Shed(ShedReason),
    /// The gate closure refused the submission (e.g. shutdown began).
    Closed,
}

/// The bounded FIFO the connection handlers feed and the scheduler
/// drains. Each entry carries the request's stage stamps so the worker
/// can close the queue-wait and end-to-end latency seams; the stamps
/// ride alongside the task and never influence admission or ordering.
#[derive(Debug)]
pub struct AdmissionQueue {
    policy: AdmissionPolicy,
    inner: Mutex<Queue>,
    /// Signaled whenever a drain empties the queue.
    drained: Condvar,
}

impl AdmissionQueue {
    /// An empty queue under `policy`.
    #[must_use]
    pub fn new(policy: AdmissionPolicy) -> Self {
        AdmissionQueue {
            policy,
            inner: Mutex::new(VecDeque::new()),
            drained: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Admit `task` or shed it. On success returns the queue depth
    /// *including* the new task, which the submit response reports so
    /// clients can self-throttle before hard shedding starts.
    ///
    /// # Errors
    /// Returns the shed reason when the queue is full for this class.
    pub fn try_submit(&self, task: Task) -> Result<usize, ShedReason> {
        let recv = crate::clock::wall_now();
        self.push(&mut self.lock(), task, recv)
    }

    /// Admit `task`, received off the wire at `recv`, but only if
    /// `open()` — evaluated *while the queue lock is held* — returns
    /// true. This is the submission side of the graceful-shutdown
    /// handshake: shutdown stores its flag and then re-checks the queue
    /// depth under this same lock, so a submission either lands before
    /// that re-check (and is drained) or observes the flag inside the
    /// gate and is refused. Checking the flag outside the lock leaves a
    /// window where a task is acknowledged after the final drain and
    /// silently lost.
    pub(crate) fn try_submit_stamped(
        &self,
        task: Task,
        recv: Instant,
        open: impl FnOnce() -> bool,
    ) -> GateOutcome {
        let mut q = self.lock();
        if !open() {
            return GateOutcome::Closed;
        }
        match self.push(&mut q, task, recv) {
            Ok(depth) => GateOutcome::Admitted(depth),
            Err(reason) => GateOutcome::Shed(reason),
        }
    }

    /// The admission decision under the queue lock `q`. The admission
    /// instant is stamped here, so queue-wait measured by the worker
    /// starts exactly when the task became drainable.
    fn push(&self, q: &mut Queue, task: Task, recv: Instant) -> Result<usize, ShedReason> {
        self.policy.admit(q.len(), task.class)?;
        let stamp = StageStamp {
            recv,
            admitted: crate::clock::wall_now(),
        };
        q.push_back((task, stamp));
        Ok(q.len())
    }

    /// Whether the oldest queued task has been waiting for its
    /// worker's pull for longer than `pace`.
    pub(crate) fn is_stale(&self, pace: Duration) -> bool {
        Self::stale(&self.lock(), pace)
    }

    fn stale(q: &Queue, pace: Duration) -> bool {
        q.front().is_some_and(|(_, stamp)| {
            crate::clock::wall_now().duration_since(stamp.admitted) > pace
        })
    }

    /// Block while the worker is behind on this queue — it has no room
    /// for a task of `class`, or it is stale by `pace` — and `open()`,
    /// re-evaluated under the queue lock at least every few
    /// milliseconds, stays true (it turns false when shutdown begins).
    /// Returns `false` when `deadline` passed with the worker still
    /// behind. Room is not a reservation: the caller submits afterwards
    /// and may still be shed if others took it first.
    pub(crate) fn wait_for_worker(
        &self,
        class: TaskClass,
        pace: Duration,
        deadline: Instant,
        open: impl Fn() -> bool,
    ) -> bool {
        const RECHECK: Duration = Duration::from_millis(10);
        let mut q = self.lock();
        while open() && (self.policy.admit(q.len(), class).is_err() || Self::stale(&q, pace)) {
            let left = deadline.saturating_duration_since(crate::clock::wall_now());
            if left.is_zero() {
                return false;
            }
            q = self
                .drained
                .wait_timeout(q, left.min(RECHECK))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }

    /// Take every queued task (scheduler side).
    pub fn drain(&self) -> Vec<Task> {
        let drained = self.lock().drain(..).map(|(task, _)| task).collect();
        self.drained.notify_all();
        drained
    }

    /// Take every queued task with its stage stamps (worker side).
    pub(crate) fn drain_stamped(&self) -> Vec<(Task, StageStamp)> {
        let drained = self.lock().drain(..).collect();
        self.drained.notify_all();
        drained
    }

    /// Current depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u64, class: TaskClass) -> Task {
        Task::online(id, 1_000, 0.0, None, class).unwrap()
    }

    #[test]
    fn policy_sheds_at_class_capacity() {
        let p = AdmissionPolicy {
            capacity: 10,
            interactive_reserve: 2,
        };
        // Non-interactive work stops at capacity - reserve.
        assert!(p.admit(7, TaskClass::NonInteractive).is_ok());
        assert_eq!(
            p.admit(8, TaskClass::NonInteractive),
            Err(ShedReason::QueueFull { depth: 8, cap: 8 })
        );
        assert_eq!(
            p.admit(8, TaskClass::Batch),
            Err(ShedReason::QueueFull { depth: 8, cap: 8 })
        );
        // Interactive tasks may use the reserve.
        assert!(p.admit(8, TaskClass::Interactive).is_ok());
        assert!(p.admit(9, TaskClass::Interactive).is_ok());
        assert_eq!(
            p.admit(10, TaskClass::Interactive),
            Err(ShedReason::QueueFull { depth: 10, cap: 10 })
        );
    }

    #[test]
    fn default_reserve_scales_with_capacity() {
        assert_eq!(AdmissionPolicy::with_capacity(100).interactive_reserve, 10);
        assert_eq!(AdmissionPolicy::with_capacity(5).interactive_reserve, 1);
        // A single-slot queue cannot afford a reserve.
        assert_eq!(AdmissionPolicy::with_capacity(1).interactive_reserve, 0);
        assert!(AdmissionPolicy::with_capacity(1)
            .admit(0, TaskClass::NonInteractive)
            .is_ok());
    }

    #[test]
    fn queue_enforces_policy_and_drains_fifo() {
        let q = AdmissionQueue::new(AdmissionPolicy {
            capacity: 3,
            interactive_reserve: 1,
        });
        assert_eq!(q.try_submit(task(1, TaskClass::NonInteractive)), Ok(1));
        assert_eq!(q.try_submit(task(2, TaskClass::NonInteractive)), Ok(2));
        // Reserve slot: non-interactive shed, interactive admitted.
        assert!(q.try_submit(task(3, TaskClass::NonInteractive)).is_err());
        assert_eq!(q.try_submit(task(4, TaskClass::Interactive)), Ok(3));
        assert!(q.try_submit(task(5, TaskClass::Interactive)).is_err());
        let drained = q.drain();
        assert_eq!(
            drained.iter().map(|t| t.id.0).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn gated_submit_refuses_when_closed_and_admits_when_open() {
        let now = crate::clock::wall_now();
        let q = AdmissionQueue::new(AdmissionPolicy::with_capacity(4));
        assert_eq!(
            q.try_submit_stamped(task(1, TaskClass::Interactive), now, || false),
            GateOutcome::Closed
        );
        assert_eq!(q.depth(), 0, "a closed gate admits nothing");
        assert_eq!(
            q.try_submit_stamped(task(1, TaskClass::Interactive), now, || true),
            GateOutcome::Admitted(1)
        );
        // The gate is evaluated before the shed decision: a closed
        // gate wins even at capacity.
        let q = AdmissionQueue::new(AdmissionPolicy {
            capacity: 1,
            interactive_reserve: 0,
        });
        q.try_submit(task(1, TaskClass::NonInteractive)).unwrap();
        assert_eq!(
            q.try_submit_stamped(task(2, TaskClass::NonInteractive), now, || false),
            GateOutcome::Closed
        );
        assert!(matches!(
            q.try_submit_stamped(task(2, TaskClass::NonInteractive), now, || true),
            GateOutcome::Shed(_)
        ));
    }

    /// `wait_for_worker` returns at the worker's pull — for a full
    /// queue and for a stale one alike — and when the gate closes;
    /// an untroubled queue does not wait at all, and a worker that
    /// never pulls costs the waiter its deadline and no more. The
    /// waiter signals that it is about to block, so the pull provably
    /// comes second.
    #[test]
    fn wait_for_worker_ends_with_the_pull_or_the_gate() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc::sync_channel;
        let pace = Duration::from_secs(3600);
        let never = crate::clock::wall_now() + pace;
        let q = AdmissionQueue::new(AdmissionPolicy {
            capacity: 1,
            interactive_reserve: 0,
        });
        // Room and nothing stale: returns at once.
        assert!(q.wait_for_worker(TaskClass::Batch, pace, never, || true));

        q.try_submit(task(1, TaskClass::Batch)).unwrap();
        for stale_after in [pace, Duration::ZERO] {
            // Full (then, with a zero pace, stale as well): blocks
            // until a drain.
            let (about_to_wait, waiting) = sync_channel(0);
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| {
                    about_to_wait.send(()).unwrap();
                    assert!(q.wait_for_worker(TaskClass::Batch, stale_after, never, || true));
                });
                waiting.recv().unwrap();
                std::thread::sleep(Duration::from_millis(20));
                assert!(!waiter.is_finished(), "no pull yet: still waiting");
                assert_eq!(q.drain().len(), 1);
                waiter.join().unwrap();
            });
            q.try_submit(task(2, TaskClass::Batch)).unwrap();
        }

        // Still full, but the gate closes: returns without a pull.
        let open = AtomicBool::new(true);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                assert!(q.wait_for_worker(TaskClass::Batch, pace, never, || {
                    open.load(Ordering::SeqCst)
                }));
            });
            open.store(false, Ordering::SeqCst);
            waiter.join().unwrap();
        });
        assert_eq!(q.depth(), 1);

        // Still full and nobody pulls: gives up at the deadline — at
        // once, when it has already passed.
        let began = crate::clock::wall_now();
        let bound = Duration::from_millis(30);
        assert!(!q.wait_for_worker(TaskClass::Batch, pace, began + bound, || true));
        assert!(began.elapsed() >= bound);
        assert!(!q.wait_for_worker(TaskClass::Batch, pace, began, || true));
        assert!(q.is_stale(Duration::ZERO) && !q.is_stale(pace));
    }
}
