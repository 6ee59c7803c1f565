//! Trace rendering: JSONL lines (the wire and file format), the
//! per-core execution [`Span`]s behind every Gantt view, and Chrome
//! `trace_event` JSON for `chrome://tracing` / Perfetto.
//!
//! The JSONL encoding is the determinism oracle: numbers render through
//! [`num`] in exactly the bytes of Rust's shortest-round-trip
//! `Display` (Ryū's digits, an exact halfway tie rounded up; `Display`
//! itself for subnormals, |v| ≥ 2⁵⁴, NaN and ±inf), field order is
//! fixed, and nothing here reads a clock — so a drained replay produces
//! a byte-identical trace across runs and shard counts. The inverse
//! parser is `dvfs_serve::parse_jsonl`, on the `serde_json` shim's one
//! JSON reader (this crate depends on nothing): every integer comes
//! back exact and every float bit for bit, NaN and ±inf included, so
//! downstream tools can diff predicted against measured cost per task.
//!
//! One writer renders every line, into a byte buffer: as is, or as a
//! JSON string inside a reply ([`Framing`]). [`write_events`] renders a
//! long run in contiguous pieces on every core, each into a buffer
//! reserved once, and joins them in order, so a server writes a
//! multi-megabyte trace reply straight into its output bytes;
//! [`jsonl_line`] and [`to_jsonl`] wrap the same writer.

use crate::{num, EventKind, TraceEvent};
use std::collections::BTreeMap;

/// How [`write_events`] frames each event's JSONL line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// The line as is, ended by a newline: a JSONL file.
    Lines,
    /// The line as a JSON string (`"` around it, `\"` for each quote
    /// in it), comma-separated: the body of a reply's `events` array.
    Strings,
}

/// The fewest events a piece of a split run holds: a run shorter than
/// two pieces renders on the calling thread, a longer one in at most
/// one piece per available core.
const PIECE_EVENTS: usize = 16_384;

/// Bytes reserved per event, so a run's buffer is allocated once, not
/// grown by doubling (a Judgegirl round averages ≈170 as strings).
const EVENT_BYTES: usize = 192;

/// A field's key in both spellings of the quote, as one literal each:
/// `,"name":` and `,\"name\":` (or with `{` leading, for the first).
struct Key(&'static str, &'static str);

macro_rules! key {
    ($name:literal) => {
        key!($name, ",")
    };
    ($name:literal, $lead:literal) => {
        Key(
            concat!($lead, "\"", $name, "\":"),
            concat!($lead, "\\\"", $name, "\\\":"),
        )
    };
}

/// One event's JSONL being written, each quote spelled `\"` when
/// `escaped`, else `"`.
struct Line<'a> {
    out: &'a mut Vec<u8>,
    escaped: bool,
}

impl Line<'_> {
    fn key(&mut self, key: Key) {
        let key = if self.escaped { key.1 } else { key.0 };
        self.out.extend_from_slice(key.as_bytes());
    }

    fn str(&mut self, key: Key, v: &str) {
        self.key(key);
        let quote: &[u8] = if self.escaped { b"\\\"" } else { b"\"" };
        self.out.extend_from_slice(quote);
        self.out.extend_from_slice(v.as_bytes());
        self.out.extend_from_slice(quote);
    }

    fn int(&mut self, key: Key, v: impl Into<u64>) {
        self.key(key);
        num::write_u64(self.out, v.into());
    }

    fn float(&mut self, key: Key, v: f64) {
        self.key(key);
        num::write_f64(self.out, v);
    }
}

/// Append one event's JSONL line (no newline) to `out`, spelling each
/// of its quotes `\"` when `escaped` (the line inside a JSON string),
/// else `"` (the line itself). Nothing else needs escaping in either:
/// the only strings an event carries are [`EventKind::name`] and
/// [`ClassTag::name`](crate::ClassTag::name) identifiers, and numbers render through `num.rs`
/// (`scripts/ci.sh` fails on a formatter call here). Field order is
/// fixed: `t`, `shard`, `seq`, `ev`, then the payload fields in
/// declaration order.
fn write_event(out: &mut Vec<u8>, ev: &TraceEvent, escaped: bool) {
    let mut w = Line { out, escaped };
    w.float(key!("t", "{"), ev.time);
    w.int(key!("shard"), ev.shard);
    w.int(key!("seq"), ev.seq);
    w.str(key!("ev"), ev.kind.name());
    match &ev.kind {
        EventKind::Submit {
            task,
            class,
            cycles,
        } => {
            w.int(key!("task"), *task);
            w.str(key!("class"), class.name());
            w.int(key!("cycles"), *cycles);
        }
        EventKind::Admit { task, depth } => {
            w.int(key!("task"), *task);
            w.int(key!("depth"), *depth);
        }
        EventKind::Shed { task, class } => {
            w.int(key!("task"), *task);
            w.str(key!("class"), class.name());
        }
        EventKind::Enqueue {
            task,
            core,
            position,
            costs,
            energy_delta,
            wait_delta,
        } => {
            w.int(key!("task"), *task);
            w.int(key!("core"), *core);
            w.int(key!("position"), *position);
            w.key(key!("costs"));
            w.out.push(b'[');
            for (i, c) in costs.iter().enumerate() {
                if i > 0 {
                    w.out.push(b',');
                }
                num::write_f64(w.out, *c);
            }
            w.out.push(b']');
            w.float(key!("energy_delta"), *energy_delta);
            w.float(key!("wait_delta"), *wait_delta);
        }
        EventKind::Dispatch {
            task,
            core,
            rate,
            predicted_energy_j,
            predicted_time_s,
        } => {
            w.int(key!("task"), *task);
            w.int(key!("core"), *core);
            w.int(key!("rate"), *rate);
            w.float(key!("predicted_energy_j"), *predicted_energy_j);
            w.float(key!("predicted_time_s"), *predicted_time_s);
        }
        EventKind::Preempt { task, core } => {
            w.int(key!("task"), *task);
            w.int(key!("core"), *core);
        }
        EventKind::RateChange { core, from, to } => {
            w.int(key!("core"), *core);
            w.int(key!("from"), *from);
            w.int(key!("to"), *to);
        }
        EventKind::Migrate {
            task,
            from_shard,
            to_shard,
            from_cost,
            to_cost,
        } => {
            w.int(key!("task"), *task);
            w.int(key!("from_shard"), *from_shard);
            w.int(key!("to_shard"), *to_shard);
            w.float(key!("from_cost"), *from_cost);
            w.float(key!("to_cost"), *to_cost);
        }
        EventKind::Complete {
            task,
            core,
            energy_j,
            turnaround_s,
        } => {
            w.int(key!("task"), *task);
            w.int(key!("core"), *core);
            w.float(key!("energy_j"), *energy_j);
            w.float(key!("turnaround_s"), *turnaround_s);
        }
    }
    w.out.push(b'}');
}

/// Append `events` to `out` framed as `framing`. A run of at least two
/// `PIECE_EVENTS` is cut into contiguous pieces, at most one per
/// available core, so a multi-megabyte reply renders on every core.
pub fn write_events(out: &mut Vec<u8>, events: &[TraceEvent], framing: Framing) {
    let mut pieces = events.len() / PIECE_EVENTS;
    if pieces > 1 {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        pieces = pieces.min(cores);
    }
    write_in_pieces(out, events, framing, pieces);
}

/// [`write_events`] cut into `pieces` contiguous pieces (at least
/// one), rendered on scoped threads — the first straight into `out` —
/// and joined in order: the bytes do not depend on the cut.
fn write_in_pieces(out: &mut Vec<u8>, events: &[TraceEvent], framing: Framing, pieces: usize) {
    let mut chunks = events.chunks(events.len().div_ceil(pieces.max(1)).max(1));
    let Some(first) = chunks.next() else { return };
    out.reserve(events.len() * EVENT_BYTES);
    std::thread::scope(|s| {
        let rest: Vec<_> = chunks
            .map(|piece| {
                s.spawn(move || {
                    let mut buf = Vec::with_capacity(piece.len() * EVENT_BYTES);
                    write_piece(&mut buf, piece, framing, false);
                    buf
                })
            })
            .collect();
        write_piece(out, first, framing, true);
        for handle in rest {
            match handle.join() {
                Ok(buf) => out.extend_from_slice(&buf),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
}

/// [`write_events`] for one piece; `leading` says whether it opens the
/// run (a `Strings` piece after the first starts with its separator).
fn write_piece(out: &mut Vec<u8>, events: &[TraceEvent], framing: Framing, leading: bool) {
    for (i, ev) in events.iter().enumerate() {
        match framing {
            Framing::Lines => {
                write_event(out, ev, false);
                out.push(b'\n');
            }
            Framing::Strings => {
                if i > 0 || !leading {
                    out.push(b',');
                }
                out.push(b'"');
                write_event(out, ev, true);
                out.push(b'"');
            }
        }
    }
}

/// Render one event as a single JSONL line (no trailing newline).
#[must_use]
pub fn jsonl_line(ev: &TraceEvent) -> String {
    let mut out = Vec::with_capacity(128);
    write_event(&mut out, ev, false);
    String::from_utf8(out).expect("an event renders as ASCII")
}

/// Render a whole trace as JSONL (one line per event, trailing
/// newline).
#[must_use]
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = Vec::new();
    write_events(&mut out, events, Framing::Lines);
    String::from_utf8(out).expect("an event renders as ASCII")
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
    use crate::ClassTag;

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

    /// One event of every kind, with floats whose `Display` takes each
    /// shape (integral, negative, tiny, non-representable) and an
    /// enqueue that compared no costs.
    fn every_kind() -> Vec<TraceEvent> {
        let mut events = sample();
        let at = |seq: u64, kind: EventKind| TraceEvent {
            time: seq as f64 * 0.25,
            shard: 3,
            seq,
            kind,
        };
        events.extend([
            at(
                6,
                EventKind::Admit {
                    task: u64::MAX,
                    depth: 17,
                },
            ),
            at(
                7,
                EventKind::Shed {
                    task: 9,
                    class: ClassTag::NonInteractive,
                },
            ),
            at(
                8,
                EventKind::Submit {
                    task: 10,
                    class: ClassTag::Batch,
                    cycles: 0,
                },
            ),
            at(
                9,
                EventKind::Enqueue {
                    task: 10,
                    core: 0,
                    position: 0,
                    costs: Vec::new(),
                    energy_delta: -2.5,
                    wait_delta: 1e-7,
                },
            ),
            at(10, EventKind::Preempt { task: 10, core: 0 }),
            at(
                11,
                EventKind::Complete {
                    task: 10,
                    core: 0,
                    energy_j: 3.0,
                    turnaround_s: 1.5e-9,
                },
            ),
        ]);
        events
    }

    /// What the writer rendered before it wrote into byte buffers.
    const EVERY_KIND_JSONL: &str = r#"{"t":0,"shard":0,"seq":0,"ev":"submit","task":4,"class":"interactive","cycles":50000000}
{"t":0,"shard":0,"seq":1,"ev":"enqueue","task":4,"core":1,"position":2,"costs":[0.125,0.1,0.00000035],"energy_delta":0.0625,"wait_delta":0.0375}
{"t":0.015,"shard":0,"seq":2,"ev":"dispatch","task":4,"core":1,"rate":3,"predicted_energy_j":0.30000000000000004,"predicted_time_s":0.03333333333333333}
{"t":0.02,"shard":0,"seq":3,"ev":"rate_change","core":1,"from":3,"to":2}
{"t":0.03,"shard":0,"seq":4,"ev":"migrate","task":6,"from_shard":1,"to_shard":0,"from_cost":0.7999999999999999,"to_cost":0.0125}
{"t":0.05,"shard":0,"seq":5,"ev":"complete","task":4,"core":1,"energy_j":0.30000000000000004,"turnaround_s":0.05}
{"t":1.5,"shard":3,"seq":6,"ev":"admit","task":18446744073709551615,"depth":17}
{"t":1.75,"shard":3,"seq":7,"ev":"shed","task":9,"class":"non_interactive"}
{"t":2,"shard":3,"seq":8,"ev":"submit","task":10,"class":"batch","cycles":0}
{"t":2.25,"shard":3,"seq":9,"ev":"enqueue","task":10,"core":0,"position":0,"costs":[],"energy_delta":-2.5,"wait_delta":0.0000001}
{"t":2.5,"shard":3,"seq":10,"ev":"preempt","task":10,"core":0}
{"t":2.75,"shard":3,"seq":11,"ev":"complete","task":10,"core":0,"energy_j":3,"turnaround_s":0.0000000015}
"#;

    #[test]
    fn jsonl_lines_are_the_golden_bytes() {
        assert_eq!(to_jsonl(&every_kind()), EVERY_KIND_JSONL);
        for (ev, line) in every_kind().iter().zip(EVERY_KIND_JSONL.lines()) {
            assert_eq!(jsonl_line(ev), line);
        }
    }

    /// However a run is cut, the pieces join to the one-piece bytes:
    /// JSONL lines, or each line as a JSON string of an array body.
    #[test]
    fn every_cut_renders_the_same_bytes() {
        let events = every_kind();
        let strings: Vec<String> = EVERY_KIND_JSONL
            .lines()
            .map(|l| format!("\"{}\"", l.replace('"', "\\\"")))
            .collect();
        for (framing, want) in [
            (Framing::Lines, EVERY_KIND_JSONL.to_owned()),
            (Framing::Strings, strings.join(",")),
        ] {
            for pieces in 0..=events.len() + 1 {
                let mut out = b"head".to_vec();
                write_in_pieces(&mut out, &events, framing, pieces);
                assert_eq!(
                    out,
                    [b"head", want.as_bytes()].concat(),
                    "{framing:?} in {pieces}"
                );
            }
            let mut out = Vec::new();
            write_events(&mut out, &[], framing);
            assert!(out.is_empty());
        }
    }

    /// Floats that take every path of the number writer: its fast
    /// path's edges, an exact tie, and each fallback.
    const ADVERSE: [f64; 16] = [
        1_658_206_780_088_562.0 + 0.25,
        -0.0,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        9_007_199_254_740_994.0,
        18_014_398_509_481_984.0,
        1e-7,
        1e15,
        1e21,
        1e23,
        0.300_000_000_000_000_04,
        -1.5e-300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    /// An event of each kind with the `k`-th float of [`ADVERSE`] onward
    /// in its float fields, `costs` included.
    fn adverse_events(k: usize) -> Vec<TraceEvent> {
        let f = |i: usize| ADVERSE[(k + i) % ADVERSE.len()];
        let kinds = [
            EventKind::Submit {
                task: 1,
                class: ClassTag::Batch,
                cycles: u64::MAX,
            },
            EventKind::Admit { task: 2, depth: 3 },
            EventKind::Shed {
                task: 4,
                class: ClassTag::Interactive,
            },
            EventKind::Enqueue {
                task: 5,
                core: 6,
                position: 7,
                costs: vec![f(1), f(2), f(3)],
                energy_delta: f(4),
                wait_delta: f(5),
            },
            EventKind::Dispatch {
                task: 8,
                core: u32::MAX,
                rate: 9,
                predicted_energy_j: f(6),
                predicted_time_s: f(7),
            },
            EventKind::Preempt { task: 10, core: 11 },
            EventKind::RateChange {
                core: 12,
                from: 13,
                to: 14,
            },
            EventKind::Migrate {
                task: 15,
                from_shard: 16,
                to_shard: 17,
                from_cost: f(8),
                to_cost: f(9),
            },
            EventKind::Complete {
                task: 18,
                core: 19,
                energy_j: f(10),
                turnaround_s: f(11),
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                time: f(i),
                shard: 2,
                seq: i as u64,
                kind,
            })
            .collect()
    }

    /// The event's line with every number through `format!`.
    fn oracle_line(ev: &TraceEvent) -> String {
        let mut line = format!(
            "{{\"t\":{},\"shard\":{},\"seq\":{},\"ev\":\"{}\"",
            ev.time,
            ev.shard,
            ev.seq,
            ev.kind.name()
        );
        let fields: Vec<(&str, String)> = match &ev.kind {
            EventKind::Submit {
                task,
                class,
                cycles,
            } => vec![
                ("task", format!("{task}")),
                ("class", format!("\"{}\"", class.name())),
                ("cycles", format!("{cycles}")),
            ],
            EventKind::Admit { task, depth } => {
                vec![("task", format!("{task}")), ("depth", format!("{depth}"))]
            }
            EventKind::Shed { task, class } => vec![
                ("task", format!("{task}")),
                ("class", format!("\"{}\"", class.name())),
            ],
            EventKind::Enqueue {
                task,
                core,
                position,
                costs,
                energy_delta,
                wait_delta,
            } => {
                let costs: Vec<String> = costs.iter().map(|c| format!("{c}")).collect();
                vec![
                    ("task", format!("{task}")),
                    ("core", format!("{core}")),
                    ("position", format!("{position}")),
                    ("costs", format!("[{}]", costs.join(","))),
                    ("energy_delta", format!("{energy_delta}")),
                    ("wait_delta", format!("{wait_delta}")),
                ]
            }
            EventKind::Dispatch {
                task,
                core,
                rate,
                predicted_energy_j,
                predicted_time_s,
            } => vec![
                ("task", format!("{task}")),
                ("core", format!("{core}")),
                ("rate", format!("{rate}")),
                ("predicted_energy_j", format!("{predicted_energy_j}")),
                ("predicted_time_s", format!("{predicted_time_s}")),
            ],
            EventKind::Preempt { task, core } => {
                vec![("task", format!("{task}")), ("core", format!("{core}"))]
            }
            EventKind::RateChange { core, from, to } => vec![
                ("core", format!("{core}")),
                ("from", format!("{from}")),
                ("to", format!("{to}")),
            ],
            EventKind::Migrate {
                task,
                from_shard,
                to_shard,
                from_cost,
                to_cost,
            } => vec![
                ("task", format!("{task}")),
                ("from_shard", format!("{from_shard}")),
                ("to_shard", format!("{to_shard}")),
                ("from_cost", format!("{from_cost}")),
                ("to_cost", format!("{to_cost}")),
            ],
            EventKind::Complete {
                task,
                core,
                energy_j,
                turnaround_s,
            } => vec![
                ("task", format!("{task}")),
                ("core", format!("{core}")),
                ("energy_j", format!("{energy_j}")),
                ("turnaround_s", format!("{turnaround_s}")),
            ],
        };
        for (key, value) in fields {
            line += &format!(",\"{key}\":{value}");
        }
        line + "}"
    }

    /// Each kind, with every adversarial float in every float field,
    /// renders under both framings as the `format!` oracle does.
    #[test]
    fn every_kind_with_adversarial_floats_matches_the_format_oracle() {
        for k in 0..ADVERSE.len() {
            let events = adverse_events(k);
            let lines: Vec<String> = events.iter().map(oracle_line).collect();
            let strings: Vec<String> = lines
                .iter()
                .map(|l| format!("\"{}\"", l.replace('"', "\\\"")))
                .collect();
            for (framing, want) in [
                (
                    Framing::Lines,
                    lines.iter().map(|l| l.clone() + "\n").collect(),
                ),
                (Framing::Strings, strings.join(",")),
            ] {
                let mut out = Vec::new();
                write_events(&mut out, &events, framing);
                assert_eq!(
                    String::from_utf8(out).unwrap(),
                    want,
                    "{framing:?}, k = {k}"
                );
            }
        }
    }

    /// The writer's one escaping rule — quotes only — holds because no
    /// string an event carries has a byte JSON must escape.
    #[test]
    fn event_and_class_names_need_no_escaping() {
        let classes = [
            ClassTag::Interactive,
            ClassTag::NonInteractive,
            ClassTag::Batch,
        ];
        let names = every_kind()
            .iter()
            .map(|ev| ev.kind.name())
            .collect::<Vec<_>>();
        assert_eq!(
            names
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            9
        );
        for name in names.into_iter().chain(classes.map(ClassTag::name)) {
            assert!(
                name.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\'),
                "{name:?}"
            );
        }
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
