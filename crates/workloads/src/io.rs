//! Trace serialization: JSON-lines task traces.
//!
//! This module owns the trace format. Each line is one task, an object
//! with its fields in this order:
//!
//! ```text
//! {"id":7,"cycles":2500000000,"arrival":0.25,"deadline":null,"class":"Interactive"}
//! ```
//!
//! `deadline` is `null` when the task has none, and `class` is one of
//! `"Batch"`, `"Interactive"` and `"NonInteractive"`. A reader takes an
//! absent `deadline` as none, an integer where a float is expected and
//! an integral float where an integer is expected, and ignores fields it
//! does not know. A missing required field or an unknown class is an
//! error naming the field and the line.

use dvfs_model::{Task, TaskClass, TaskId};
use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};

/// Write tasks as JSON lines (one task per line).
///
/// # Errors
/// Propagates I/O failures.
pub fn write_trace<W: Write>(mut w: W, tasks: &[Task]) -> std::io::Result<()> {
    for t in tasks {
        writeln!(w, "{}", serde_json::to_string(&task_to_value(t)))?;
    }
    Ok(())
}

/// Read a JSON-lines task trace, skipping blank lines.
///
/// # Errors
/// Propagates I/O failures; a line that is not a task is an error naming
/// its 1-based line number and what is wrong with it.
pub fn read_trace<R: Read>(r: R) -> std::io::Result<Vec<Task>> {
    let reader = BufReader::new(r);
    let mut tasks = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let task = serde_json::from_str(&line)
            .map_err(|e| e.to_string())
            .and_then(|v| task_from_value(&v))
            .map_err(|e| std::io::Error::other(format!("line {}: {e}", i + 1)))?;
        tasks.push(task);
    }
    Ok(tasks)
}

/// Save a trace to a file path.
///
/// # Errors
/// Propagates file-creation and write failures.
pub fn save_trace(path: &std::path::Path, tasks: &[Task]) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_trace(std::io::BufWriter::new(f), tasks)
}

/// Load a trace from a file path.
///
/// # Errors
/// Propagates file-open and parse failures.
pub fn load_trace(path: &std::path::Path) -> std::io::Result<Vec<Task>> {
    read_trace(std::fs::File::open(path)?)
}

fn task_to_value(t: &Task) -> Value {
    Value::Object(vec![
        ("id".into(), t.id.0.into()),
        ("cycles".into(), t.cycles.into()),
        ("arrival".into(), t.arrival.into()),
        ("deadline".into(), t.deadline.into()),
        ("class".into(), t.class.name().into()),
    ])
}

fn task_from_value(v: &Value) -> Result<Task, String> {
    Ok(Task {
        id: TaskId(field(v, "id", whole)?),
        cycles: field(v, "cycles", whole)?,
        arrival: field(v, "arrival", Value::as_f64)?,
        deadline: field(v, "deadline", optional_f64)?,
        class: field(v, "class", |c| c.as_str().and_then(TaskClass::from_name))?,
    })
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
    use crate::judge::JudgeTraceConfig;

    #[test]
    fn roundtrip_through_memory() {
        let trace = JudgeTraceConfig::paper_scaled(11, 200).generate();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let trace = JudgeTraceConfig::paper_scaled(1, 500).generate();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        buf.extend_from_slice(b"\n\n");
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(trace.len(), back.len());
    }

    #[test]
    fn malformed_lines_error() {
        let got = read_trace(&b"{not json}\n"[..]);
        assert!(got.is_err());
    }

    #[test]
    fn roundtrip_through_file() {
        let dir = std::env::temp_dir().join("dvfs-workloads-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let trace = JudgeTraceConfig::paper_scaled(2, 300).generate();
        save_trace(&path, &trace).unwrap();
        let back = load_trace(&path).unwrap();
        assert_eq!(trace, back);
        std::fs::remove_file(&path).ok();
    }

    /// Lines as the serde derives wrote them before this writer replaced
    /// them: one per class, with a deadline and without.
    const GOLDEN: &str = r#"{"id":7,"cycles":2500000000,"arrival":0.0,"deadline":12.5,"class":"Batch"}
{"id":7,"cycles":2500000000,"arrival":0.0,"deadline":null,"class":"Batch"}
{"id":8,"cycles":2500000000,"arrival":0.25,"deadline":12.5,"class":"Interactive"}
{"id":8,"cycles":2500000000,"arrival":0.25,"deadline":null,"class":"Interactive"}
{"id":9,"cycles":2500000000,"arrival":0.5,"deadline":12.5,"class":"NonInteractive"}
{"id":9,"cycles":2500000000,"arrival":0.5,"deadline":null,"class":"NonInteractive"}
"#;

    #[test]
    fn lines_are_written_byte_for_byte_as_before() {
        let classes = [
            TaskClass::Batch,
            TaskClass::Interactive,
            TaskClass::NonInteractive,
        ];
        let tasks: Vec<Task> = (classes.into_iter().enumerate())
            .flat_map(|(i, class)| {
                [Some(12.5), None].map(|deadline| Task {
                    id: TaskId(7 + i as u64),
                    cycles: 2_500_000_000,
                    arrival: 0.25 * i as f64,
                    deadline,
                    class,
                })
            })
            .collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, &tasks).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), GOLDEN);
        assert_eq!(read_trace(GOLDEN.as_bytes()).unwrap(), tasks);
    }

    fn one(line: &str) -> Result<Task, String> {
        read_trace(line.as_bytes())
            .map(|mut ts| ts.remove(0))
            .map_err(|e| e.to_string())
    }

    #[test]
    fn reader_rules_hold() {
        let want = Task {
            id: TaskId(1),
            cycles: 1_000_000_000,
            arrival: 2.0,
            deadline: None,
            class: TaskClass::Batch,
        };
        // Absent deadline, integer arrival, unknown fields, integral
        // float cycles: all accepted.
        let lenient = r#"{"id":1,"cycles":1e9,"arrival":2,"class":"Batch","note":[{"x":null}]}"#;
        assert_eq!(one(lenient), Ok(want));
        assert_eq!(
            one(r#"{"id":1,"arrival":0.5,"class":"Batch"}"#),
            Err("line 1: missing field `cycles`".into())
        );
        assert_eq!(
            one(r#"{"id":1,"cycles":5,"arrival":0.5,"class":"warp"}"#),
            Err("line 1: field `class`: unexpected \"warp\"".into())
        );
        assert_eq!(
            one(r#"{"id":1,"cycles":2.5,"arrival":0.5,"class":"Batch"}"#),
            Err("line 1: field `cycles`: unexpected 2.5".into())
        );
        assert_eq!(
            one(r#"{"id":1,"cycles":5,"arrival":0.5,"deadline":"soon","class":"Batch"}"#),
            Err("line 1: field `deadline`: unexpected \"soon\"".into())
        );
        assert_eq!(
            one("[1]"),
            Err("line 1: expected an object holding `id`".into())
        );
    }

    #[test]
    fn errors_name_the_one_based_line() {
        let text = format!("{}\n\n{{\"id\":3}}\n", GOLDEN.lines().next().unwrap());
        let err = read_trace(text.as_bytes()).unwrap_err().to_string();
        assert_eq!(err, "line 3: missing field `cycles`");
        let err = read_trace(&b"\n{not json}\n"[..]).unwrap_err().to_string();
        assert!(err.starts_with("line 2: "), "{err}");
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let line = "[".repeat(65_536);
        let err = read_trace(line.as_bytes()).unwrap_err().to_string();
        assert!(err.contains("line 1: recursion limit exceeded"), "{err}");
    }
}
