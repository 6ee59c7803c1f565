//! Per-task lifecycle measurement, shared by every executor.
//!
//! Both the virtual-time simulator (`dvfs-sim`) and the wall-clock
//! service executor (`dvfs-serve`) account tasks the same way; the
//! record lives here so neither has to import the other.

use crate::task::{TaskClass, TaskId};

/// The lifecycle record of one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRecord {
    /// Task identity.
    pub id: TaskId,
    /// Task class.
    pub class: TaskClass,
    /// Cycles the task required.
    pub cycles: u64,
    /// Arrival time in seconds.
    pub arrival: f64,
    /// First time the task ran on a core (`None` if it never started).
    pub first_start: Option<f64>,
    /// Completion time (`None` if unfinished when the run ended).
    pub completion: Option<f64>,
    /// Active energy attributed to this task, in joules.
    pub energy_joules: f64,
    /// Number of times the task was preempted.
    pub preemptions: u32,
}

impl TaskRecord {
    /// Turnaround time (completion − arrival), when completed.
    #[must_use]
    pub fn turnaround(&self) -> Option<f64> {
        self.completion.map(|c| c - self.arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turnaround_requires_completion() {
        let mut rec = TaskRecord {
            id: TaskId(1),
            class: TaskClass::Batch,
            cycles: 100,
            arrival: 1.5,
            first_start: Some(1.5),
            completion: None,
            energy_joules: 0.0,
            preemptions: 0,
        };
        assert_eq!(rec.turnaround(), None);
        rec.completion = Some(4.0);
        assert_eq!(rec.turnaround(), Some(2.5));
    }
}
