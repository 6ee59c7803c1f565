//! Trace rendering: JSONL lines (the wire and file format, with an
//! exact inverse parser), the per-core execution [`Span`]s behind every
//! Gantt view, and Chrome `trace_event` JSON for `chrome://tracing` /
//! Perfetto.
//!
//! The JSONL encoding is the determinism oracle: floats are rendered
//! with Rust's shortest-round-trip `Display`, field order is fixed, and
//! nothing here reads a clock — so a drained replay produces a
//! byte-identical trace across runs and shard counts. [`parse_jsonl`]
//! is the exact inverse of [`jsonl_line`] (`f64` round-trips bit-for-
//! bit), which is what lets downstream tools diff predicted against
//! measured cost per task.

use crate::{ClassTag, EventKind, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render one event as a single JSONL line (no trailing newline).
/// Field order is fixed: `t`, `shard`, `seq`, `ev`, then the payload
/// fields in declaration order.
#[must_use]
pub fn jsonl_line(ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "{{\"t\":{},\"shard\":{},\"seq\":{},\"ev\":\"{}\"",
        ev.time,
        ev.shard,
        ev.seq,
        ev.kind.name()
    );
    match &ev.kind {
        EventKind::Submit {
            task,
            class,
            cycles,
        } => {
            let _ = write!(
                s,
                ",\"task\":{task},\"class\":\"{}\",\"cycles\":{cycles}",
                class.name()
            );
        }
        EventKind::Admit { task, depth } => {
            let _ = write!(s, ",\"task\":{task},\"depth\":{depth}");
        }
        EventKind::Shed { task, class } => {
            let _ = write!(s, ",\"task\":{task},\"class\":\"{}\"", class.name());
        }
        EventKind::Enqueue {
            task,
            core,
            position,
            costs,
            energy_delta,
            wait_delta,
        } => {
            let _ = write!(
                s,
                ",\"task\":{task},\"core\":{core},\"position\":{position}"
            );
            s.push_str(",\"costs\":[");
            for (i, c) in costs.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{c}");
            }
            s.push(']');
            let _ = write!(
                s,
                ",\"energy_delta\":{energy_delta},\"wait_delta\":{wait_delta}"
            );
        }
        EventKind::Dispatch {
            task,
            core,
            rate,
            predicted_energy_j,
            predicted_time_s,
        } => {
            let _ = write!(
                s,
                ",\"task\":{task},\"core\":{core},\"rate\":{rate},\"predicted_energy_j\":{predicted_energy_j},\"predicted_time_s\":{predicted_time_s}"
            );
        }
        EventKind::Preempt { task, core } => {
            let _ = write!(s, ",\"task\":{task},\"core\":{core}");
        }
        EventKind::RateChange { core, from, to } => {
            let _ = write!(s, ",\"core\":{core},\"from\":{from},\"to\":{to}");
        }
        EventKind::Migrate {
            task,
            from_shard,
            to_shard,
            from_cost,
            to_cost,
        } => {
            let _ = write!(
                s,
                ",\"task\":{task},\"from_shard\":{from_shard},\"to_shard\":{to_shard},\"from_cost\":{from_cost},\"to_cost\":{to_cost}"
            );
        }
        EventKind::Complete {
            task,
            core,
            energy_j,
            turnaround_s,
        } => {
            let _ = write!(
                s,
                ",\"task\":{task},\"core\":{core},\"energy_j\":{energy_j},\"turnaround_s\":{turnaround_s}"
            );
        }
    }
    s.push('}');
    s
}

/// Render a whole trace as JSONL (one line per event, trailing
/// newline).
#[must_use]
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&jsonl_line(ev));
        out.push('\n');
    }
    out
}

/// One parsed scalar or array field of a trace line.
#[derive(Debug, Clone, PartialEq)]
enum Field {
    Num(f64),
    Str(String),
    Arr(Vec<f64>),
}

/// Split the body of a flat JSON object on top-level commas (commas
/// inside `[...]` belong to an array value).
fn split_top(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    let mut in_str = false;
    for (i, b) in body.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'[' if !in_str => depth += 1,
            b']' if !in_str => depth = depth.saturating_sub(1),
            b',' if !in_str && depth == 0 => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < body.len() {
        out.push(&body[start..]);
    }
    out
}

fn parse_fields(line: &str) -> Result<Vec<(String, Field)>, String> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("trace line is not a JSON object: {line}"))?;
    let mut out = Vec::new();
    for part in split_top(body) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let colon = part
            .find(':')
            .ok_or_else(|| format!("missing `:` in `{part}`"))?;
        let key = part[..colon].trim().trim_matches('"').to_string();
        let val = part[colon + 1..].trim();
        let field = if let Some(stripped) = val.strip_prefix('"') {
            Field::Str(stripped.trim_end_matches('"').to_string())
        } else if let Some(inner) = val.strip_prefix('[') {
            let inner = inner.trim_end_matches(']').trim();
            let mut arr = Vec::new();
            if !inner.is_empty() {
                for item in inner.split(',') {
                    arr.push(
                        item.trim()
                            .parse::<f64>()
                            .map_err(|_| format!("bad array element `{item}` in `{part}`"))?,
                    );
                }
            }
            Field::Arr(arr)
        } else {
            Field::Num(
                val.parse::<f64>()
                    .map_err(|_| format!("bad number `{val}` in `{part}`"))?,
            )
        };
        out.push((key, field));
    }
    Ok(out)
}

struct Fields(Vec<(String, Field)>);

impl Fields {
    fn num(&self, key: &str) -> Result<f64, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, Field::Num(n))) => Ok(*n),
            _ => Err(format!("missing numeric field `{key}`")),
        }
    }
    fn u64(&self, key: &str) -> Result<u64, String> {
        let n = self.num(key)?;
        if n >= 0.0 && n.fract() == 0.0 {
            Ok(n as u64)
        } else {
            Err(format!("field `{key}` is not a non-negative integer"))
        }
    }
    fn u32(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.u64(key)?).map_err(|_| format!("field `{key}` overflows u32"))
    }
    fn str(&self, key: &str) -> Result<&str, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, Field::Str(s))) => Ok(s),
            _ => Err(format!("missing string field `{key}`")),
        }
    }
    fn arr(&self, key: &str) -> Result<&[f64], String> {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, Field::Arr(a))) => Ok(a),
            _ => Err(format!("missing array field `{key}`")),
        }
    }
    fn class(&self, key: &str) -> Result<ClassTag, String> {
        let s = self.str(key)?;
        ClassTag::parse(s).ok_or_else(|| format!("unknown class `{s}`"))
    }
}

/// Parse one line produced by [`jsonl_line`] back into a
/// [`TraceEvent`]. `f64` fields round-trip bit-for-bit.
///
/// # Errors
/// Returns a description of the first malformed field.
pub fn parse_jsonl_line(line: &str) -> Result<TraceEvent, String> {
    let f = Fields(parse_fields(line)?);
    let time = f.num("t")?;
    let shard = f.u32("shard")?;
    let seq = f.u64("seq")?;
    let kind = match f.str("ev")? {
        "submit" => EventKind::Submit {
            task: f.u64("task")?,
            class: f.class("class")?,
            cycles: f.u64("cycles")?,
        },
        "admit" => EventKind::Admit {
            task: f.u64("task")?,
            depth: f.u64("depth")?,
        },
        "shed" => EventKind::Shed {
            task: f.u64("task")?,
            class: f.class("class")?,
        },
        "enqueue" => EventKind::Enqueue {
            task: f.u64("task")?,
            core: f.u32("core")?,
            position: f.u64("position")?,
            costs: f.arr("costs")?.to_vec(),
            energy_delta: f.num("energy_delta")?,
            wait_delta: f.num("wait_delta")?,
        },
        "dispatch" => EventKind::Dispatch {
            task: f.u64("task")?,
            core: f.u32("core")?,
            rate: f.u32("rate")?,
            predicted_energy_j: f.num("predicted_energy_j")?,
            predicted_time_s: f.num("predicted_time_s")?,
        },
        "preempt" => EventKind::Preempt {
            task: f.u64("task")?,
            core: f.u32("core")?,
        },
        "rate_change" => EventKind::RateChange {
            core: f.u32("core")?,
            from: f.u32("from")?,
            to: f.u32("to")?,
        },
        "migrate" => EventKind::Migrate {
            task: f.u64("task")?,
            from_shard: f.u32("from_shard")?,
            to_shard: f.u32("to_shard")?,
            from_cost: f.num("from_cost")?,
            to_cost: f.num("to_cost")?,
        },
        "complete" => EventKind::Complete {
            task: f.u64("task")?,
            core: f.u32("core")?,
            energy_j: f.num("energy_j")?,
            turnaround_s: f.num("turnaround_s")?,
        },
        other => return Err(format!("unknown event `{other}`")),
    };
    Ok(TraceEvent {
        time,
        shard,
        seq,
        kind,
    })
}

/// Parse a whole JSONL trace (blank lines skipped).
///
/// # Errors
/// Returns the 1-based line number and cause of the first bad line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_jsonl_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One constant-rate execution interval of a task on a core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Shard whose ring recorded the run.
    pub shard: u32,
    /// Core index.
    pub core: u32,
    /// Task executing.
    pub task: u64,
    /// Start, in engine seconds.
    pub start: f64,
    /// End, in engine seconds.
    pub end: f64,
    /// Rate index held from `start` to `end`.
    pub rate: u32,
    /// What closed the span: `"preempted"`, `"completed"`, or
    /// `"rerated"` when the same task runs on at another rate.
    pub closed_by: &'static str,
}

impl Span {
    /// Span length in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Every [`Span`] of a trace read in order, in closing order — the one
/// place dispatch / stop events become spans. A `dispatch` opens a
/// span, `preempt` / `complete` close it, and a `rate_change` on a busy
/// core closes it and opens the same task again at the new rate (on an
/// idle core it opens nothing: the next `dispatch` carries the rate).
/// Spans of zero length are not reported, and a stop on an idle core —
/// a ring that overwrote the dispatch — closes nothing.
#[must_use]
pub fn spans(events: &[TraceEvent]) -> Vec<Span> {
    // (shard, core) -> (task, start, rate) of the running span.
    let mut open: BTreeMap<(u32, u32), (u64, f64, u32)> = BTreeMap::new();
    let mut out = Vec::new();
    for ev in events {
        let (core, closed_by, rerate) = match ev.kind {
            EventKind::Dispatch {
                task, core, rate, ..
            } => {
                open.insert((ev.shard, core), (task, ev.time, rate));
                continue;
            }
            EventKind::Preempt { core, .. } => (core, "preempted", None),
            EventKind::Complete { core, .. } => (core, "completed", None),
            EventKind::RateChange { core, to, .. } => (core, "rerated", Some(to)),
            _ => continue,
        };
        let Some((task, start, rate)) = open.remove(&(ev.shard, core)) else {
            continue;
        };
        if let Some(to) = rerate {
            open.insert((ev.shard, core), (task, ev.time, to));
        }
        if ev.time > start {
            out.push(Span {
                shard: ev.shard,
                core,
                task,
                start,
                end: ev.time,
                rate,
                closed_by,
            });
        }
    }
    out
}

/// Render a trace as Chrome `trace_event` JSON, loadable in
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): one
/// process per shard, one thread (track) per core, one `"X"` duration
/// event per [`Span`], and `rate_change` as `"i"` instant events.
/// Timestamps are engine seconds scaled to microseconds (the format's
/// native unit).
///
/// Three `"C"` counter tracks ride along per shard: `core J rate` (the
/// rate index a core is actuated to, stepped on every `dispatch` and
/// `rate_change`), `queue depth` (admission queue depth sampled at each
/// `admit`), and `energy (J)` (cumulative measured energy, accrued at
/// each `complete`). Perfetto renders these as stacked area charts
/// above the span tracks.
#[must_use]
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out: Vec<String> = Vec::new();
    for span in spans(events) {
        let start = span.start * 1e6;
        out.push(format!(
            "{{\"name\":{},\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{start},\"dur\":{},\"args\":{{\"rate\":{},\"end\":{}}}}}",
            json_str(&format!("task {}", span.task)),
            span.shard,
            span.core,
            span.end * 1e6 - start,
            span.rate,
            json_str(span.closed_by)
        ));
    }
    let mut tracks: BTreeMap<(u32, u32), ()> = BTreeMap::new();
    // shard -> cumulative measured energy for the accrual counter.
    let mut energy: BTreeMap<u32, f64> = BTreeMap::new();
    for ev in events {
        let ts = ev.time * 1e6;
        match &ev.kind {
            EventKind::Admit { depth, .. } => {
                out.push(counter(
                    ev.shard,
                    ts,
                    "queue depth",
                    "depth",
                    &depth.to_string(),
                ));
            }
            EventKind::Dispatch { core, rate, .. } => {
                tracks.insert((ev.shard, *core), ());
                out.push(rate_counter(ev.shard, *core, ts, *rate));
            }
            EventKind::Complete { energy_j, .. } => {
                let total = energy.entry(ev.shard).or_insert(0.0);
                *total += energy_j;
                out.push(counter(
                    ev.shard,
                    ts,
                    "energy (J)",
                    "joules",
                    &total.to_string(),
                ));
            }
            EventKind::Migrate {
                task,
                from_shard,
                to_shard,
                ..
            } => {
                out.push(format!(
                    "{{\"name\":{},\"ph\":\"i\",\"s\":\"p\",\"pid\":{},\"ts\":{ts},\"args\":{{\"from_shard\":{from_shard},\"to_shard\":{to_shard}}}}}",
                    json_str(&format!("migrate task {task}")),
                    ev.shard
                ));
            }
            EventKind::RateChange { core, from, to } => {
                tracks.insert((ev.shard, *core), ());
                out.push(format!(
                    "{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{ts},\"args\":{{\"from\":{from},\"to\":{to}}}}}",
                    json_str(&format!("rate {from}->{to}")),
                    ev.shard,
                    core
                ));
                out.push(rate_counter(ev.shard, *core, ts, *to));
            }
            _ => {}
        }
    }
    // Name the tracks so Perfetto shows "shard N" / "core J" instead of
    // bare pids.
    let shards: BTreeMap<u32, ()> = tracks.keys().map(|&(s, _)| (s, ())).collect();
    for shard in shards.keys() {
        out.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{shard},\"args\":{{\"name\":{}}}}}",
            json_str(&format!("shard {shard}"))
        ));
    }
    for (shard, core) in tracks.keys() {
        out.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{shard},\"tid\":{core},\"args\":{{\"name\":{}}}}}",
            json_str(&format!("core {core}"))
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        out.join(",")
    )
}

/// One `"C"` counter sample on a per-shard track. `value` is passed
/// pre-rendered so integer counters stay integers in the JSON.
fn counter(shard: u32, ts: f64, track: &str, series: &str, value: &str) -> String {
    format!(
        "{{\"name\":{},\"ph\":\"C\",\"pid\":{shard},\"ts\":{ts},\"args\":{{{}:{value}}}}}",
        json_str(track),
        json_str(series)
    )
}

/// Sample the `core J rate` counter track for one shard.
fn rate_counter(shard: u32, core: u32, ts: f64, rate: u32) -> String {
    counter(
        shard,
        ts,
        &format!("core {core} rate"),
        "rate",
        &rate.to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                time: 0.0,
                shard: 0,
                seq: 0,
                kind: EventKind::Submit {
                    task: 4,
                    class: ClassTag::Interactive,
                    cycles: 50_000_000,
                },
            },
            TraceEvent {
                time: 0.0,
                shard: 0,
                seq: 1,
                kind: EventKind::Enqueue {
                    task: 4,
                    core: 1,
                    position: 2,
                    costs: vec![0.125, 0.1, 3.5e-7],
                    energy_delta: 0.0625,
                    wait_delta: 0.0375,
                },
            },
            TraceEvent {
                time: 0.015,
                shard: 0,
                seq: 2,
                kind: EventKind::Dispatch {
                    task: 4,
                    core: 1,
                    rate: 3,
                    predicted_energy_j: 0.1 + 0.2, // deliberately non-representable
                    predicted_time_s: 0.033_333_333_333_333_33,
                },
            },
            TraceEvent {
                time: 0.02,
                shard: 0,
                seq: 3,
                kind: EventKind::RateChange {
                    core: 1,
                    from: 3,
                    to: 2,
                },
            },
            TraceEvent {
                time: 0.03,
                shard: 0,
                seq: 4,
                kind: EventKind::Migrate {
                    task: 6,
                    from_shard: 1,
                    to_shard: 0,
                    from_cost: 0.1 + 0.7, // deliberately non-representable
                    to_cost: 0.012_5,
                },
            },
            TraceEvent {
                time: 0.05,
                shard: 0,
                seq: 5,
                kind: EventKind::Complete {
                    task: 4,
                    core: 1,
                    energy_j: 0.300_000_000_000_000_04,
                    turnaround_s: 0.05,
                },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_bit_for_bit() {
        let events = sample();
        let text = to_jsonl(&events);
        let parsed = parse_jsonl(&text).expect("parses");
        assert_eq!(parsed, events);
        // And re-rendering is byte-identical (Display is shortest
        // round-trip, so this pins determinism of the encoding too).
        assert_eq!(to_jsonl(&parsed), text);
    }

    #[test]
    fn parser_rejects_garbage_with_line_numbers() {
        assert!(parse_jsonl_line("not json").is_err());
        assert!(parse_jsonl_line("{\"t\":0,\"shard\":0,\"seq\":0,\"ev\":\"nope\"}").is_err());
        let err = parse_jsonl("{\"t\":0,\"shard\":0,\"seq\":0,\"ev\":\"admit\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn chrome_trace_has_tracks_spans_and_instants() {
        let json = chrome_trace(&sample());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"ph\":\"X\""), "duration span: {json}");
        assert!(json.contains("\"ph\":\"i\""), "rate instant: {json}");
        assert!(json.contains("\"name\":\"task 4\""));
        assert!(json.contains("\"name\":\"migrate task 6\""), "{json}");
        assert!(json.contains("\"name\":\"shard 0\""));
        assert!(json.contains("\"name\":\"core 1\""));
    }

    #[test]
    fn a_mid_run_rate_change_splits_the_span_and_the_perfetto_event() {
        // Task 4 is dispatched at 0.015 s at rate 3, re-rated to 2 at
        // 0.02 s and completes at 0.05 s: two constant-rate spans, not
        // one span reporting the dispatch-time rate for 35 ms.
        let span = |start, end, rate, closed_by| Span {
            shard: 0,
            core: 1,
            task: 4,
            start,
            end,
            rate,
            closed_by,
        };
        assert_eq!(
            spans(&sample()),
            vec![
                span(0.015, 0.02, 3, "rerated"),
                span(0.02, 0.05, 2, "completed")
            ]
        );
        // One "X" event per span, microseconds.
        let json = chrome_trace(&sample());
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2, "{json}");
        for x in [
            "\"ts\":15000,\"dur\":5000,\"args\":{\"rate\":3,\"end\":\"rerated\"}",
            "\"ts\":20000,\"dur\":30000,\"args\":{\"rate\":2,\"end\":\"completed\"}",
        ] {
            assert!(json.contains(x), "missing {x} in {json}");
        }
    }

    #[test]
    fn a_rate_change_on_an_idle_core_and_a_stop_without_a_dispatch_open_nothing() {
        let at = |time, seq, kind| TraceEvent {
            time,
            shard: 0,
            seq,
            kind,
        };
        let events = [
            at(
                0.0,
                0,
                EventKind::RateChange {
                    core: 0,
                    from: 0,
                    to: 2,
                },
            ),
            at(0.5, 1, EventKind::Preempt { task: 1, core: 0 }),
        ];
        assert!(spans(&events).is_empty());
    }

    #[test]
    fn chrome_trace_emits_counter_tracks() {
        let json = chrome_trace(&sample());
        // Dispatch at rate 3, then rate_change to 2: two samples on the
        // same per-core counter track.
        assert!(json.contains("\"name\":\"core 1 rate\""), "{json}");
        assert!(
            json.contains("\"ph\":\"C\",\"pid\":0,\"ts\":15000,\"args\":{\"rate\":3}"),
            "{json}"
        );
        assert!(
            json.contains("\"ph\":\"C\",\"pid\":0,\"ts\":20000,\"args\":{\"rate\":2}"),
            "{json}"
        );
        // Complete accrues measured energy on the shard's energy track.
        assert!(json.contains("\"name\":\"energy (J)\""), "{json}");
        assert!(json.contains("\"joules\":0.30000000000000004"), "{json}");
    }

    #[test]
    fn counters_track_queue_depth_and_cumulative_energy() {
        let complete = |seq: u64, t: f64, task: u64| TraceEvent {
            time: t,
            shard: 2,
            seq,
            kind: EventKind::Complete {
                task,
                core: 0,
                energy_j: 0.25,
                turnaround_s: t,
            },
        };
        let events = vec![
            TraceEvent {
                time: 0.0,
                shard: 2,
                seq: 0,
                kind: EventKind::Admit { task: 1, depth: 7 },
            },
            complete(1, 0.1, 1),
            complete(2, 0.2, 2),
        ];
        let json = chrome_trace(&events);
        assert!(
            json.contains(
                "\"name\":\"queue depth\",\"ph\":\"C\",\"pid\":2,\"ts\":0,\"args\":{\"depth\":7}"
            ),
            "{json}"
        );
        // Energy is cumulative: 0.25 then 0.5.
        assert!(json.contains("\"joules\":0.25"), "{json}");
        assert!(json.contains("\"joules\":0.5"), "{json}");
    }

    #[test]
    fn preempt_closes_the_open_span() {
        let events = vec![
            TraceEvent {
                time: 0.0,
                shard: 1,
                seq: 0,
                kind: EventKind::Dispatch {
                    task: 9,
                    core: 0,
                    rate: 0,
                    predicted_energy_j: 1.0,
                    predicted_time_s: 1.0,
                },
            },
            TraceEvent {
                time: 0.5,
                shard: 1,
                seq: 1,
                kind: EventKind::Preempt { task: 9, core: 0 },
            },
        ];
        let json = chrome_trace(&events);
        assert!(json.contains("\"end\":\"preempted\""), "{json}");
        assert!(json.contains("\"pid\":1"), "{json}");
    }
}
