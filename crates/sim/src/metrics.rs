//! Per-task and platform-level measurement collected by the simulator.

use dvfs_model::{CostBreakdown, CostParams, TaskClass, TaskId};
use serde_json::Value;
use std::collections::BTreeMap;

// The per-task lifecycle record moved to `dvfs_model::record` so every
// executor (this simulator, the wall-clock service) shares one type;
// re-exported here for compatibility.
pub use dvfs_model::TaskRecord;

/// The full outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Name of the policy that produced this run.
    pub policy: String,
    /// Per-task records keyed by task id (ordered, so every aggregate
    /// below sums in deterministic order).
    pub tasks: BTreeMap<TaskId, TaskRecord>,
    /// Total active energy in joules (integral of busy power).
    pub active_energy_joules: f64,
    /// Total idle energy in joules over the simulated span
    /// (idle power × idle time, summed over cores).
    pub idle_energy_joules: f64,
    /// Time the last task completed (makespan measured from t = 0).
    pub makespan: f64,
    /// Platform power timeline: `(time, total active watts)` step
    /// function, one point per change. Feed this to `dvfs-power`'s meter
    /// to "measure" energy the way the paper does.
    pub power_timeline: Vec<(f64, f64)>,
    /// Per-core busy seconds.
    pub core_busy: Vec<f64>,
    /// `rate_residency[j][r]`: seconds core `j` spent *busy* at rate `r`.
    pub rate_residency: Vec<Vec<f64>>,
}

impl SimReport {
    /// Sum of turnaround times over completed tasks (the paper's temporal
    /// objective in the online mode, and completion-time sum in batch
    /// mode since batch arrivals are 0).
    #[must_use]
    pub fn total_turnaround(&self) -> f64 {
        self.tasks.values().filter_map(TaskRecord::turnaround).sum()
    }

    /// Number of completed tasks.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.tasks
            .values()
            .filter(|t| t.completion.is_some())
            .count()
    }

    /// Monetary cost breakdown with the given parameters, using active
    /// (idle-subtracted) energy like the paper's methodology.
    #[must_use]
    pub fn cost(&self, params: CostParams) -> CostBreakdown {
        CostBreakdown::from_totals(params, self.active_energy_joules, self.total_turnaround())
    }

    /// Mean turnaround of tasks in `class`, or `None` when none finished.
    #[must_use]
    pub fn mean_turnaround(&self, class: TaskClass) -> Option<f64> {
        let (sum, n) = self
            .tasks
            .values()
            .filter(|t| t.class == class)
            .filter_map(TaskRecord::turnaround)
            .fold((0.0, 0usize), |(s, n), t| (s + t, n + 1));
        (n > 0).then(|| sum / n as f64)
    }

    /// Largest observed turnaround of tasks in `class`.
    #[must_use]
    pub fn max_turnaround(&self, class: TaskClass) -> Option<f64> {
        self.tasks
            .values()
            .filter(|t| t.class == class)
            .filter_map(TaskRecord::turnaround)
            .max_by(|a, b| a.partial_cmp(b).expect("turnarounds are finite"))
    }

    /// Number of tasks that finished after their deadline (or never
    /// finished while having one). `deadlines` maps task id → absolute
    /// deadline; tasks without deadlines never count as missed.
    #[must_use]
    pub fn deadline_misses<'a>(
        &self,
        deadlines: impl IntoIterator<Item = (&'a TaskId, &'a f64)>,
    ) -> usize {
        deadlines
            .into_iter()
            .filter(|(id, &d)| match self.tasks.get(id) {
                Some(rec) => rec.completion.is_none_or(|c| c > d),
                None => false,
            })
            .count()
    }

    /// Fraction of busy time core `j` spent at each rate, or `None` for
    /// an always-idle core.
    #[must_use]
    pub fn residency_fractions(&self, j: usize) -> Option<Vec<f64>> {
        let total: f64 = self.rate_residency[j].iter().sum();
        (total > 0.0).then(|| self.rate_residency[j].iter().map(|&t| t / total).collect())
    }

    /// Turnaround percentile (0–100, nearest-rank) of completed tasks in
    /// `class`, or `None` when none finished.
    ///
    /// # Panics
    /// Panics when `p` is outside `[0, 100]`.
    #[must_use]
    pub fn turnaround_percentile(&self, class: TaskClass, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        let mut ts: Vec<f64> = self
            .tasks
            .values()
            .filter(|t| t.class == class)
            .filter_map(TaskRecord::turnaround)
            .collect();
        if ts.is_empty() {
            return None;
        }
        ts.sort_by(|a, b| a.partial_cmp(b).expect("finite turnarounds"));
        let rank = ((p / 100.0) * ts.len() as f64).ceil() as usize;
        Some(ts[rank.clamp(1, ts.len()) - 1])
    }

    /// Total platform energy including idle draw: the raw quantity a
    /// wall power meter reports before the paper's idle subtraction.
    #[must_use]
    pub fn wall_energy_joules(&self) -> f64 {
        self.active_energy_joules + self.idle_energy_joules
    }

    /// Cost breakdown charging the *wall* energy (idle included) instead
    /// of the paper's idle-subtracted active energy — the "does WBG
    /// still win when stretching the makespan burns idle power?"
    /// accounting.
    #[must_use]
    pub fn wall_cost(&self, params: CostParams) -> CostBreakdown {
        CostBreakdown::from_totals(params, self.wall_energy_joules(), self.total_turnaround())
    }
}

/// The report document that `simulate --report` writes and `analyze
/// --report` reads; this is the format's one owner. A report is an
/// object with the fields of `SimReport` in declaration order. `tasks`
/// maps each decimal task id to a record object with the fields of
/// `TaskRecord` in order, and a `power_timeline` point is a
/// `[time, watts]` pair. An unset `first_start` or `completion` is
/// `null`; a class is `"Batch"`, `"Interactive"` or `"NonInteractive"`.
/// The reader rules are the trace reader's (`dvfs_workloads::io`): an
/// absent optional field is `null`, an integer reads as a float and an
/// integral float as an integer, unknown fields are ignored, and a
/// missing required field or an unknown class is an error naming the
/// field.
impl SimReport {
    /// The report as its JSON document.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let tasks = (self.tasks.iter())
            .map(|(id, rec)| (id.0.to_string(), record_to_value(rec)))
            .collect();
        let timeline = (self.power_timeline.iter())
            .map(|&(t, w)| Value::from(vec![t, w]))
            .collect();
        Value::Object(vec![
            ("policy".into(), self.policy.as_str().into()),
            ("tasks".into(), Value::Object(tasks)),
            (
                "active_energy_joules".into(),
                self.active_energy_joules.into(),
            ),
            ("idle_energy_joules".into(), self.idle_energy_joules.into()),
            ("makespan".into(), self.makespan.into()),
            ("power_timeline".into(), Value::Array(timeline)),
            ("core_busy".into(), self.core_busy.clone().into()),
            ("rate_residency".into(), self.rate_residency.clone().into()),
        ])
    }

    /// Read a report back from its JSON document.
    ///
    /// # Errors
    /// Names the field that is missing or malformed.
    pub fn from_value(v: &Value) -> Result<SimReport, String> {
        let tasks = field(v, "tasks", Value::as_object)?;
        let tasks = (tasks.iter())
            .map(|(id, rec)| {
                let id = id
                    .parse()
                    .map_err(|_| format!("field `tasks`: invalid task id `{id}`"))?;
                let rec = record_from_value(rec).map_err(|e| format!("field `tasks`: {e}"))?;
                Ok((TaskId(id), rec))
            })
            .collect::<Result<_, String>>()?;
        let pair = |p: &Value| match p.as_array()? {
            [t, w] => Some((t.as_f64()?, w.as_f64()?)),
            _ => None,
        };
        Ok(SimReport {
            policy: field(v, "policy", |p| p.as_str().map(String::from))?,
            tasks,
            active_energy_joules: field(v, "active_energy_joules", Value::as_f64)?,
            idle_energy_joules: field(v, "idle_energy_joules", Value::as_f64)?,
            makespan: field(v, "makespan", Value::as_f64)?,
            power_timeline: field(v, "power_timeline", |a| list(a, pair))?,
            core_busy: field(v, "core_busy", |a| list(a, Value::as_f64))?,
            rate_residency: field(v, "rate_residency", |a| list(a, |r| list(r, Value::as_f64)))?,
        })
    }
}

fn record_to_value(rec: &TaskRecord) -> Value {
    Value::Object(vec![
        ("id".into(), rec.id.0.into()),
        ("class".into(), class_name(rec.class).into()),
        ("cycles".into(), rec.cycles.into()),
        ("arrival".into(), rec.arrival.into()),
        ("first_start".into(), rec.first_start.into()),
        ("completion".into(), rec.completion.into()),
        ("energy_joules".into(), rec.energy_joules.into()),
        ("preemptions".into(), rec.preemptions.into()),
    ])
}

fn record_from_value(v: &Value) -> Result<TaskRecord, String> {
    Ok(TaskRecord {
        id: TaskId(field(v, "id", whole)?),
        class: field(v, "class", class)?,
        cycles: field(v, "cycles", whole)?,
        arrival: field(v, "arrival", Value::as_f64)?,
        first_start: field(v, "first_start", optional_f64)?,
        completion: field(v, "completion", optional_f64)?,
        energy_joules: field(v, "energy_joules", Value::as_f64)?,
        preemptions: field(v, "preemptions", |p| u32::try_from(whole(p)?).ok())?,
    })
}

fn class_name(class: TaskClass) -> &'static str {
    match class {
        TaskClass::Batch => "Batch",
        TaskClass::Interactive => "Interactive",
        TaskClass::NonInteractive => "NonInteractive",
    }
}

fn class(v: &Value) -> Option<TaskClass> {
    [
        TaskClass::Batch,
        TaskClass::Interactive,
        TaskClass::NonInteractive,
    ]
    .into_iter()
    .find(|&c| v.as_str() == Some(class_name(c)))
}

/// Field `name` of the object `obj` as `read` takes it. An absent field
/// is read as `null`, so only an optional one may be left out.
fn field<'v, T>(
    obj: &'v Value,
    name: &str,
    read: impl Fn(&'v Value) -> Option<T>,
) -> Result<T, String> {
    if obj.as_object().is_none() {
        return Err(format!("expected an object holding `{name}`"));
    }
    match obj.get(name) {
        None => read(&Value::Null).ok_or_else(|| format!("missing field `{name}`")),
        Some(v) => (read(v))
            .ok_or_else(|| format!("field `{name}`: unexpected {}", serde_json::to_string(v))),
    }
}

/// Every item of an array, read by `read`.
fn list<T>(v: &Value, read: impl Fn(&Value) -> Option<T>) -> Option<Vec<T>> {
    v.as_array()?.iter().map(read).collect()
}

/// A number, or `null` for none.
fn optional_f64(v: &Value) -> Option<Option<f64>> {
    match v {
        Value::Null => Some(None),
        v => v.as_f64().map(Some),
    }
}

/// A non-negative integer, written as one or as an integral float.
fn whole(v: &Value) -> Option<u64> {
    v.as_u64().or_else(|| {
        let f = v.as_f64()?;
        (f.fract() == 0.0 && (0.0..=u64::MAX as f64).contains(&f)).then_some(f as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, class: TaskClass, arrival: f64, completion: Option<f64>) -> TaskRecord {
        TaskRecord {
            id: TaskId(id),
            class,
            cycles: 100,
            arrival,
            first_start: Some(arrival),
            completion,
            energy_joules: 1.0,
            preemptions: 0,
        }
    }

    fn report(records: Vec<TaskRecord>) -> SimReport {
        SimReport {
            policy: "test".into(),
            tasks: records.into_iter().map(|r| (r.id, r)).collect(),
            active_energy_joules: 10.0,
            idle_energy_joules: 2.0,
            makespan: 5.0,
            power_timeline: vec![],
            core_busy: vec![5.0],
            rate_residency: vec![vec![2.0, 3.0]],
        }
    }

    #[test]
    fn turnaround_and_totals() {
        let r = report(vec![
            record(1, TaskClass::Interactive, 1.0, Some(2.0)),
            record(2, TaskClass::NonInteractive, 0.0, Some(4.0)),
            record(3, TaskClass::NonInteractive, 2.0, None),
        ]);
        assert_eq!(r.completed(), 2);
        assert!((r.total_turnaround() - 5.0).abs() < 1e-12);
        assert_eq!(
            r.mean_turnaround(TaskClass::Interactive),
            Some(1.0),
            "only completed tasks count"
        );
        assert_eq!(r.mean_turnaround(TaskClass::NonInteractive), Some(4.0));
        assert_eq!(r.mean_turnaround(TaskClass::Batch), None);
        assert_eq!(r.max_turnaround(TaskClass::NonInteractive), Some(4.0));
    }

    #[test]
    fn cost_uses_active_energy_and_turnaround() {
        let r = report(vec![record(1, TaskClass::Batch, 0.0, Some(3.0))]);
        let c = r.cost(CostParams::new(2.0, 10.0).unwrap());
        assert!((c.energy_cost - 20.0).abs() < 1e-12);
        assert!((c.time_cost - 30.0).abs() < 1e-12);
        assert!((c.total() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn deadline_misses_counts_late_and_unfinished() {
        let r = report(vec![
            record(1, TaskClass::Interactive, 0.0, Some(2.0)), // meets 3.0
            record(2, TaskClass::Interactive, 0.0, Some(5.0)), // misses 4.0
            record(3, TaskClass::Interactive, 0.0, None),      // unfinished, misses
        ]);
        let deadlines: std::collections::BTreeMap<TaskId, f64> = [
            (TaskId(1), 3.0),
            (TaskId(2), 4.0),
            (TaskId(3), 10.0),
            (TaskId(99), 1.0), // unknown task: ignored
        ]
        .into_iter()
        .collect();
        assert_eq!(r.deadline_misses(&deadlines), 2);
        let empty: std::collections::BTreeMap<TaskId, f64> = Default::default();
        assert_eq!(r.deadline_misses(&empty), 0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let r = report(
            (1..=10)
                .map(|i| record(i, TaskClass::Interactive, 0.0, Some(i as f64)))
                .collect(),
        );
        let p = |x| r.turnaround_percentile(TaskClass::Interactive, x).unwrap();
        assert_eq!(p(100.0), 10.0);
        assert_eq!(p(50.0), 5.0);
        assert_eq!(p(95.0), 10.0);
        assert_eq!(p(10.0), 1.0);
        assert_eq!(p(0.0), 1.0);
        assert_eq!(r.turnaround_percentile(TaskClass::Batch, 50.0), None);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_out_of_range_panics() {
        let r = report(vec![record(1, TaskClass::Batch, 0.0, Some(1.0))]);
        let _ = r.turnaround_percentile(TaskClass::Batch, 101.0);
    }

    #[test]
    fn wall_cost_includes_idle_energy() {
        let r = report(vec![record(1, TaskClass::Batch, 0.0, Some(3.0))]);
        assert!((r.wall_energy_joules() - 12.0).abs() < 1e-12);
        let params = CostParams::new(1.0, 1.0).unwrap();
        assert!((r.wall_cost(params).energy_cost - 12.0).abs() < 1e-12);
        assert!((r.cost(params).energy_cost - 10.0).abs() < 1e-12);
    }

    #[test]
    fn residency_fractions_normalize() {
        let r = report(vec![record(1, TaskClass::Batch, 0.0, Some(1.0))]);
        let f = r.residency_fractions(0).unwrap();
        assert!((f[0] - 0.4).abs() < 1e-12);
        assert!((f[1] - 0.6).abs() < 1e-12);
        let mut idle = r.clone();
        idle.rate_residency = vec![vec![0.0, 0.0]];
        assert_eq!(idle.residency_fractions(0), None);
    }

    /// A report as the serde derives wrote it before this writer
    /// replaced them: one finished and one unstarted task, a power
    /// timeline and rate residency.
    const GOLDEN: &str = r#"{
  "policy": "least-marginal-cost",
  "tasks": {
    "3": {
      "id": 3,
      "class": "Interactive",
      "cycles": 3000000,
      "arrival": 0.5,
      "first_start": 0.5,
      "completion": 2.0,
      "energy_joules": 1.25,
      "preemptions": 0
    },
    "12": {
      "id": 12,
      "class": "NonInteractive",
      "cycles": 12000000,
      "arrival": 0.5,
      "first_start": null,
      "completion": null,
      "energy_joules": 1.25,
      "preemptions": 2
    }
  },
  "active_energy_joules": 3.5,
  "idle_energy_joules": 1.0,
  "makespan": 2.0,
  "power_timeline": [
    [
      0.0,
      0.0
    ],
    [
      0.5,
      17.25
    ],
    [
      2.0,
      0.0
    ]
  ],
  "core_busy": [
    1.5,
    0.0
  ],
  "rate_residency": [
    [
      0.0,
      1.5
    ],
    [
      0.0,
      0.0
    ]
  ]
}"#;

    fn golden_report() -> SimReport {
        let rec = |id: u64, class, first_start, completion, preemptions| TaskRecord {
            id: TaskId(id),
            class,
            cycles: 1_000_000 * id,
            arrival: 0.5,
            first_start,
            completion,
            energy_joules: 1.25,
            preemptions,
        };
        SimReport {
            policy: "least-marginal-cost".into(),
            tasks: [
                rec(3, TaskClass::Interactive, Some(0.5), Some(2.0), 0),
                rec(12, TaskClass::NonInteractive, None, None, 2),
            ]
            .into_iter()
            .map(|r| (r.id, r))
            .collect(),
            active_energy_joules: 3.5,
            idle_energy_joules: 1.0,
            makespan: 2.0,
            power_timeline: vec![(0.0, 0.0), (0.5, 17.25), (2.0, 0.0)],
            core_busy: vec![1.5, 0.0],
            rate_residency: vec![vec![0.0, 1.5], vec![0.0, 0.0]],
        }
    }

    fn read(text: &str) -> Result<SimReport, String> {
        SimReport::from_value(&serde_json::from_str(text).map_err(|e| e.to_string())?)
    }

    #[test]
    fn report_document_is_written_byte_for_byte_as_before() {
        let report = golden_report();
        assert_eq!(serde_json::to_string_pretty(&report.to_value()), GOLDEN);
        let back = read(GOLDEN).unwrap();
        assert_eq!(back.tasks, report.tasks);
        assert_eq!(serde_json::to_string_pretty(&back.to_value()), GOLDEN);
    }

    #[test]
    fn report_reader_rules_hold() {
        let compact = serde_json::to_string(&golden_report().to_value());
        // Unknown fields are ignored; an integer reads as a float; an
        // absent optional field reads as `null`.
        let lenient = compact
            .replacen("{", "{\"schema\":[1,{}],", 1)
            .replace("\"makespan\":2.0", "\"makespan\":2")
            .replace("\"first_start\":null,", "");
        let back = read(&lenient).unwrap();
        assert_eq!(back.makespan, 2.0);
        assert_eq!(back.tasks[&TaskId(12)].first_start, None);
        let missing = compact.replace("\"core_busy\":[1.5,0.0],", "");
        assert_eq!(read(&missing).unwrap_err(), "missing field `core_busy`");
        let warp = compact.replacen("\"Interactive\"", "\"warp\"", 1);
        assert_eq!(
            read(&warp).unwrap_err(),
            "field `tasks`: field `class`: unexpected \"warp\""
        );
        let triple = compact.replace("[0.5,17.25]", "[0.5,17.25,1.0]");
        assert_eq!(
            read(&triple).unwrap_err(),
            "field `power_timeline`: unexpected [[0.0,0.0],[0.5,17.25,1.0],[2.0,0.0]]"
        );
    }
}
