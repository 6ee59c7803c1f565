//! Offline analysis of a recorded lifecycle trace.
//!
//! Reconstructs what happened on the platform from the trace alone —
//! [`Simulator::take_trace`](crate::Simulator::take_trace), or the
//! parsed JSONL of `simulate --log` / `serve --trace-out`: per-core
//! Gantt segments (who ran where, when, at which rate) and the
//! waiting-queue depth over time. Both are the raw material for
//! plotting and for sanity cross-checks against the engine's own
//! accounting (the tests do exactly that).

use dvfs_trace::{EventKind, TraceEvent};

/// Per-core Gantt segments of a trace: `dvfs-trace`'s span builder, the
/// one Perfetto export reads too. A segment closes on preemption,
/// completion, or a rate change (which opens a new segment for the
/// same task at the new rate).
pub use dvfs_trace::export::{spans as gantt, Span as GanttSegment};

/// Waiting-queue depth over time: `(time, tasks arrived but neither
/// running nor finished)`, one point per change. A served trace marks
/// each arrival with its `admit` line; a simulator log has no arrival
/// line, so `arrivals` supplies the task records' stamps (empty for a
/// served trace). A trace that lost lines to a full ring cannot take
/// the depth below zero.
#[must_use]
pub fn queue_depth_series(events: &[TraceEvent], arrivals: &[f64]) -> Vec<(f64, usize)> {
    let mut steps: Vec<(f64, isize)> = arrivals.iter().map(|&t| (t, 1)).collect();
    steps.extend(events.iter().filter_map(|e| match e.kind {
        EventKind::Admit { .. } | EventKind::Preempt { .. } => Some((e.time, 1)),
        EventKind::Dispatch { .. } => Some((e.time, -1)),
        _ => None,
    }));
    // Stable: at one instant `arrivals` come first, then the trace's
    // own order.
    steps.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut depth = 0usize;
    let mut out: Vec<(f64, usize)> = Vec::new();
    for (time, step) in steps {
        depth = depth.saturating_add_signed(step);
        match out.last_mut() {
            Some(last) if last.0 == time => last.1 = depth,
            _ => out.push((time, depth)),
        }
    }
    out
}

/// Write Gantt segments as CSV (`core,task,start,end,rate`).
///
/// # Errors
/// Propagates I/O failures.
pub fn write_gantt_csv<W: std::io::Write>(
    mut w: W,
    segments: &[GanttSegment],
) -> std::io::Result<()> {
    writeln!(w, "core,task,start,end,rate")?;
    for s in segments {
        writeln!(w, "{},{},{},{},{}", s.core, s.task, s.start, s.end, s.rate)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulator};
    use dvfs_core::sched::{ExecutorView, Scheduler as Policy};
    use dvfs_model::{CoreId, CoreSpec, Platform, RateIdx, RateTable, Task, TaskId};

    struct Fifo {
        rate: RateIdx,
        queue: std::collections::VecDeque<TaskId>,
    }
    impl Policy for Fifo {
        fn name(&self) -> String {
            "fifo".into()
        }
        fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
            self.queue.push_back(task.id);
            if sim.is_idle(0) {
                let t = self.queue.pop_front().expect("just pushed");
                sim.dispatch(0, t, Some(self.rate));
            }
        }
        fn on_completion(&mut self, sim: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {
            if let Some(t) = self.queue.pop_front() {
                sim.dispatch(0, t, Some(self.rate));
            }
        }
    }

    /// The report, the trace, and the task records' arrival stamps.
    fn run_logged(tasks: &[Task]) -> (crate::SimReport, Vec<TraceEvent>, Vec<f64>) {
        let platform = Platform::homogeneous(1, CoreSpec::new(RateTable::i7_950_table2())).unwrap();
        let mut sim = Simulator::new(SimConfig::new(platform));
        sim.record_trace();
        sim.add_tasks(tasks);
        let report = sim.run(&mut Fifo {
            rate: 0,
            queue: Default::default(),
        });
        let arrivals = report.tasks.values().map(|rec| rec.arrival).collect();
        (report, sim.take_trace(), arrivals)
    }

    #[test]
    fn gantt_reconstructs_fifo_run() {
        let tasks = vec![
            Task::batch(1, 1_600_000_000).unwrap(), // 1 s
            Task::batch(2, 3_200_000_000).unwrap(), // 2 s
        ];
        let (_, trace, _) = run_logged(&tasks);
        let segs = gantt(&trace);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].task, 1);
        assert!((segs[0].start - 0.0).abs() < 1e-12);
        assert!((segs[0].end - 1.0).abs() < 1e-9);
        assert_eq!(segs[1].task, 2);
        assert!((segs[1].end - 3.0).abs() < 1e-9);
        // Per-core segments never overlap.
        assert!(segs[0].end <= segs[1].start + 1e-12);
    }

    #[test]
    fn gantt_durations_sum_to_core_busy() {
        let tasks: Vec<Task> = (0..7)
            .map(|i| Task::batch(i, (i + 1) * 300_000_000).unwrap())
            .collect();
        let (report, trace, _) = run_logged(&tasks);
        let segs = gantt(&trace);
        let gantt_busy: f64 = segs.iter().map(GanttSegment::duration).sum();
        assert!(
            (gantt_busy - report.core_busy[0]).abs() < 1e-6,
            "gantt {gantt_busy} vs engine {}",
            report.core_busy[0]
        );
    }

    #[test]
    fn queue_depth_tracks_backlog() {
        // Two tasks arrive together; one runs, one waits, then drains.
        let tasks = vec![
            Task::batch(1, 1_600_000_000).unwrap(),
            Task::batch(2, 1_600_000_000).unwrap(),
        ];
        let (_, trace, arrivals) = run_logged(&tasks);
        let series = queue_depth_series(&trace, &arrivals);
        let max_depth = series.iter().map(|&(_, d)| d).max().unwrap();
        assert_eq!(max_depth, 1, "one task waits while the first runs");
        assert_eq!(series.last().unwrap().1, 0, "backlog drains");
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let tasks = vec![Task::batch(1, 100_000).unwrap()];
        let (_, trace, _) = run_logged(&tasks);
        let segs = gantt(&trace);
        let mut buf = Vec::new();
        write_gantt_csv(&mut buf, &segs).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("core,task,start,end,rate"));
        assert_eq!(lines.count(), segs.len());
    }

    #[test]
    fn empty_log_yields_empty_outputs() {
        assert!(gantt(&[]).is_empty());
        assert!(queue_depth_series(&[], &[]).is_empty());
    }

    #[test]
    fn a_served_trace_brings_its_own_arrivals_as_admit_lines() {
        let (_, mut trace, arrivals) = run_logged(&[
            Task::batch(1, 1_600_000_000).unwrap(),
            Task::batch(2, 1_600_000_000).unwrap(),
        ]);
        let want = queue_depth_series(&trace, &arrivals);
        // A ring that overwrote the admit lines: the depth cannot sink.
        let lost = queue_depth_series(&trace, &[]);
        assert!(lost.iter().all(|&(_, d)| d == 0), "{lost:?}");
        // The same run as the service would have written it.
        for (task, &time) in arrivals.iter().enumerate() {
            let (task, depth) = (task as u64 + 1, task as u64 + 1);
            trace.insert(
                0,
                TraceEvent {
                    time,
                    shard: 0,
                    seq: 0,
                    kind: EventKind::Admit { task, depth },
                },
            );
        }
        assert_eq!(queue_depth_series(&trace, &[]), want);
    }
}
