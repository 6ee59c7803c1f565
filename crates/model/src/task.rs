//! The task model of Section II-A.
//!
//! A task `j_k` is a tuple `(L_k, A_k, D_k)`: the number of CPU cycles
//! required to complete it, its arrival time, and its deadline (infinite —
//! here `None` — when the task has no time constraint).

use crate::error::ModelError;

/// Opaque identifier for a task. Unique within one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// The execution class of a task, which determines its priority and how
/// the online scheduler treats it (Section II-A / Section IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskClass {
    /// A batch-mode task: arrival time 0, scheduled offline, non-preemptive.
    Batch,
    /// An online interactive task: user-initiated, must complete as soon as
    /// possible; preempts non-interactive work and runs at maximum
    /// frequency.
    Interactive,
    /// An online non-interactive task: no strict deadline; queued and run
    /// at the rate chosen by the scheduler.
    NonInteractive,
}

impl TaskClass {
    /// Whether this class may preempt `other` (interactive tasks have
    /// higher priority than non-interactive ones).
    #[must_use]
    pub fn preempts(self, other: TaskClass) -> bool {
        matches!(
            (self, other),
            (TaskClass::Interactive, TaskClass::NonInteractive)
                | (TaskClass::Interactive, TaskClass::Batch)
        )
    }
}

/// A task `j_k = (L_k, A_k, D_k)` from Section II-A.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Unique identifier.
    pub id: TaskId,
    /// `L_k`: number of CPU cycles required to complete the task.
    pub cycles: u64,
    /// `A_k`: arrival time in seconds (0 for batch tasks).
    pub arrival: f64,
    /// `D_k`: absolute deadline in seconds; `None` encodes "infinity"
    /// (no time constraint).
    pub deadline: Option<f64>,
    /// Execution class.
    pub class: TaskClass,
}

impl Task {
    /// Create a batch task (arrival 0, no deadline).
    ///
    /// # Errors
    /// Returns [`ModelError::ZeroCycles`] when `cycles == 0`.
    pub fn batch(id: u64, cycles: u64) -> Result<Self, ModelError> {
        if cycles == 0 {
            return Err(ModelError::ZeroCycles);
        }
        Ok(Task {
            id: TaskId(id),
            cycles,
            arrival: 0.0,
            deadline: None,
            class: TaskClass::Batch,
        })
    }

    /// Create an online task with the given class and arrival time.
    ///
    /// # Errors
    /// Returns an error when `cycles == 0`, the arrival is negative or
    /// non-finite, or the deadline is not strictly after the arrival.
    pub fn online(
        id: u64,
        cycles: u64,
        arrival: f64,
        deadline: Option<f64>,
        class: TaskClass,
    ) -> Result<Self, ModelError> {
        if cycles == 0 {
            return Err(ModelError::ZeroCycles);
        }
        if !arrival.is_finite() || arrival < 0.0 {
            return Err(ModelError::InvalidArrival);
        }
        if let Some(d) = deadline {
            if !d.is_finite() || d <= arrival {
                return Err(ModelError::DeadlineBeforeArrival);
            }
        }
        Ok(Task {
            id: TaskId(id),
            cycles,
            arrival,
            deadline,
            class,
        })
    }

    /// Create an interactive online task.
    ///
    /// # Errors
    /// Propagates the validation errors of [`Task::online`].
    pub fn interactive(id: u64, cycles: u64, arrival: f64) -> Result<Self, ModelError> {
        Task::online(id, cycles, arrival, None, TaskClass::Interactive)
    }

    /// Create a non-interactive online task.
    ///
    /// # Errors
    /// Propagates the validation errors of [`Task::online`].
    pub fn non_interactive(id: u64, cycles: u64, arrival: f64) -> Result<Self, ModelError> {
        Task::online(id, cycles, arrival, None, TaskClass::NonInteractive)
    }

    /// Whether the task has a time constraint (finite deadline).
    #[must_use]
    pub fn has_deadline(&self) -> bool {
        self.deadline.is_some()
    }
}

/// Build a batch workload from raw cycle counts, assigning sequential ids.
///
/// # Panics
/// Panics when any cycle count is zero; this is a programming error in the
/// caller-provided workload.
#[must_use]
pub fn batch_workload(cycles: &[u64]) -> Vec<Task> {
    cycles
        .iter()
        .enumerate()
        .map(|(i, &c)| Task::batch(i as u64, c).expect("batch workload cycles must be positive"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_task_has_zero_arrival_and_no_deadline() {
        let t = Task::batch(1, 100).unwrap();
        assert_eq!(t.arrival, 0.0);
        assert_eq!(t.deadline, None);
        assert_eq!(t.class, TaskClass::Batch);
        assert!(!t.has_deadline());
    }

    #[test]
    fn zero_cycles_rejected() {
        assert_eq!(Task::batch(1, 0), Err(ModelError::ZeroCycles));
        assert_eq!(
            Task::online(1, 0, 0.0, None, TaskClass::Interactive),
            Err(ModelError::ZeroCycles)
        );
    }

    #[test]
    fn deadline_must_follow_arrival() {
        assert_eq!(
            Task::online(1, 10, 5.0, Some(5.0), TaskClass::NonInteractive),
            Err(ModelError::DeadlineBeforeArrival)
        );
        assert_eq!(
            Task::online(1, 10, 5.0, Some(4.0), TaskClass::NonInteractive),
            Err(ModelError::DeadlineBeforeArrival)
        );
        let t = Task::online(1, 10, 5.0, Some(6.0), TaskClass::NonInteractive).unwrap();
        assert!(t.has_deadline());
    }

    #[test]
    fn negative_or_nan_arrival_rejected() {
        assert_eq!(
            Task::online(1, 10, -1.0, None, TaskClass::Interactive),
            Err(ModelError::InvalidArrival)
        );
        assert_eq!(
            Task::online(1, 10, f64::NAN, None, TaskClass::Interactive),
            Err(ModelError::InvalidArrival)
        );
    }

    #[test]
    fn interactive_preempts_noninteractive_only() {
        assert!(TaskClass::Interactive.preempts(TaskClass::NonInteractive));
        assert!(TaskClass::Interactive.preempts(TaskClass::Batch));
        assert!(!TaskClass::Interactive.preempts(TaskClass::Interactive));
        assert!(!TaskClass::NonInteractive.preempts(TaskClass::Interactive));
        assert!(!TaskClass::NonInteractive.preempts(TaskClass::NonInteractive));
        assert!(!TaskClass::Batch.preempts(TaskClass::Batch));
    }

    #[test]
    fn batch_workload_assigns_sequential_ids() {
        let ts = batch_workload(&[5, 10, 15]);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[0].id, TaskId(0));
        assert_eq!(ts[2].id, TaskId(2));
        assert_eq!(ts[1].cycles, 10);
    }

    #[test]
    fn task_id_displays_with_prefix() {
        assert_eq!(TaskId(42).to_string(), "j42");
    }
}
