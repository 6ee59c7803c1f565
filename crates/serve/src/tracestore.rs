//! Where drained lifecycle-trace events live until a client takes them.
//!
//! The scheduler drains every shard's ring into this store at round
//! boundaries (ascending shard order). From here the events leave three
//! ways, all serving the same JSONL lines byte for byte: the one-shot
//! wire `trace` ([`TraceStore::write_trace`]), incremental
//! `trace_stream` chunks that are forgotten once handed out
//! ([`TraceStore::write_chunk`]), and an optional `--trace-out` file
//! that holds the full stream — streamed-and-forgotten chunks first,
//! then what a `trace` response still carries. Events stay
//! [`TraceEvent`]s until they leave: `dvfs_trace::export::write_events`
//! renders them straight into the reply's bytes or the file's, split
//! across the cores for a long run, with no string per event between.
//!
//! Two cursors, two locks, one rule. The *stream cursor* (`forgotten`)
//! sits beside the retained events; the *file cursor* (`written`) sits
//! beside the file path, and its mutex also serializes every file
//! write. A `trace_stream` holds the file lock across take-and-append,
//! so the file gains a chunk's lines *before* the store forgets them:
//! the file cursor never falls behind the stream cursor, whatever the
//! interleaving. Lock order is always file cursor → retained events,
//! and this module is the only place that takes both.
//!
//! [`parse_jsonl`] reads any of those JSONL streams back into events.

use crate::metrics::{shard_metric, Registry};
use crate::report;
use dvfs_model::CostParams;
use dvfs_trace::export::{jsonl_line, write_events, Framing};
use dvfs_trace::{ClassTag, EventKind, TraceEvent};
use serde_json::{Reader, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Drained events not yet streamed away, plus the stream cursor.
#[derive(Default)]
struct Retained {
    events: Vec<TraceEvent>,
    /// Events streamed-and-forgotten so far; `forgotten + events.len()`
    /// is the absolute index of the next event to arrive.
    forgotten: u64,
}

/// The `--trace-out` file (if any) and its append cursor.
#[derive(Default)]
struct FileCursor {
    path: Option<PathBuf>,
    /// Lines already appended to the file.
    written: u64,
}

/// The accumulated trace. Grows until the server restarts — unless the
/// client streams it: `trace_stream` hands out retained events
/// incrementally and forgets them, so long paced runs can bound memory
/// without losing history.
pub(crate) struct TraceStore {
    params: CostParams,
    metrics: Arc<Registry>,
    file: Mutex<FileCursor>,
    retained: Mutex<Retained>,
}

impl TraceStore {
    pub fn new(params: CostParams, metrics: Arc<Registry>) -> Self {
        TraceStore {
            params,
            metrics,
            file: Mutex::default(),
            retained: Mutex::default(),
        }
    }

    fn lock_file(&self) -> MutexGuard<'_, FileCursor> {
        self.file.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_retained(&self) -> MutexGuard<'_, Retained> {
        self.retained.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mirror the stream into a JSONL file at `path` from now on (the
    /// first write truncates whatever a previous run left there).
    pub fn set_file(&self, path: PathBuf) {
        self.lock_file().path = Some(path);
    }

    /// Append the events drained from shard `shard`'s ring, folding its
    /// `complete` events into the cost-attribution counters: per-shard,
    /// per-core energy cost (`Re · E`) and waiting cost
    /// (`Rt · turnaround`), both in integer micro-cost units. Each event
    /// is rounded on its own; the counters see one sum per core.
    pub fn absorb(&self, shard: usize, events: Vec<TraceEvent>) {
        if events.is_empty() {
            return;
        }
        let mut per_core: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for ev in &events {
            if let EventKind::Complete {
                core,
                energy_j,
                turnaround_s,
                ..
            } = ev.kind
            {
                let (energy, wait) = per_core.entry(core).or_default();
                *energy += (self.params.re * energy_j * 1e6).round() as u64;
                *wait += (self.params.rt * turnaround_s * 1e6).round() as u64;
            }
        }
        for (core, (energy, wait)) in per_core {
            for (name, micros) in [("energy_cost_micros", energy), ("wait_cost_micros", wait)] {
                let of_core = shard_metric(&format!("{name}.core{core}"), shard);
                self.metrics.counter(name).add(micros);
                self.metrics.counter(&of_core).add(micros);
            }
        }
        let mut retained = self.lock_retained();
        if retained.events.is_empty() {
            retained.events = events; // as after a `trace_stream`: a move, no copy
        } else {
            retained.events.extend(events);
        }
    }

    /// Events streamed-and-forgotten so far (the stream cursor).
    pub fn streamed(&self) -> u64 {
        self.lock_retained().forgotten
    }

    /// The retained trace as JSONL lines (one event per line, no
    /// trailing newline): everything absorbed and not yet streamed away.
    pub fn lines(&self) -> Vec<String> {
        self.lock_retained().events.iter().map(jsonl_line).collect()
    }

    /// Write the `trace` reply line — every retained event — into `out`.
    pub fn write_trace(&self, out: &mut Vec<u8>, dropped: u64) {
        report::trace(out, &self.lock_retained().events, dropped, None);
    }

    /// Catch the trace file up to everything absorbed so far. A no-op
    /// without a file.
    pub fn flush_file(&self) {
        let mut file = self.lock_file();
        let fresh = {
            let retained = self.lock_retained();
            fresh_lines(&file, retained.forgotten, &retained.events)
        };
        self.append(&mut file, fresh);
    }

    /// Take one `trace_stream` chunk — every retained event — append it
    /// to the trace file (file lock held across both, so the chunk is
    /// durable before it is forgotten), forget it, and write its reply
    /// line into `out`. Repeated calls hand out disjoint, contiguous
    /// chunks whose concatenation is byte-identical to what a single
    /// one-shot `trace` would have returned.
    pub fn write_chunk(&self, out: &mut Vec<u8>, dropped: u64) {
        let mut file = self.lock_file();
        let (events, first_abs, streamed) = {
            let mut retained = self.lock_retained();
            let events = std::mem::take(&mut retained.events);
            let first_abs = retained.forgotten;
            retained.forgotten += events.len() as u64;
            (events, first_abs, retained.forgotten)
        };
        let fresh = fresh_lines(&file, first_abs, &events);
        self.append(&mut file, fresh);
        drop(file);
        report::trace(out, &events, dropped, Some(streamed));
    }

    /// Append lines [`fresh_lines`] rendered to the file, advancing the
    /// cursor on success. The file is append-only behind the cursor:
    /// the first append truncates any stale file from a previous run,
    /// every later one adds exactly the lines past the cursor. A failed
    /// write leaves the cursor untouched and bumps
    /// `trace_write_errors`; the next flush retries the same span if it
    /// is still retained.
    fn append(&self, file: &mut FileCursor, fresh: Option<(Vec<u8>, u64)>) {
        let (Some(path), Some((body, lines))) = (&file.path, fresh) else {
            return;
        };
        let opened = if file.written == 0 {
            std::fs::File::create(path)
        } else {
            std::fs::OpenOptions::new().append(true).open(path)
        };
        match opened.and_then(|mut f| f.write_all(&body)) {
            Ok(()) => file.written += lines,
            Err(_) => self.metrics.counter("trace_write_errors").inc(),
        }
    }
}

/// The JSONL lines of every event in `events` (`first_abs` is
/// `events[0]`'s absolute stream index) at or past the file cursor,
/// and how many. `None` when there is nothing to append: no file, or
/// no new line for a file that already exists.
fn fresh_lines(file: &FileCursor, first_abs: u64, events: &[TraceEvent]) -> Option<(Vec<u8>, u64)> {
    file.path.as_ref()?;
    let skip = usize::try_from(file.written.saturating_sub(first_abs)).unwrap_or(usize::MAX);
    let fresh = events.get(skip..).unwrap_or(&[]);
    if fresh.is_empty() && file.written > 0 {
        return None;
    }
    let mut body = Vec::new();
    write_events(&mut body, fresh, Framing::Lines);
    Some((body, fresh.len() as u64))
}

/// The writer spells the floats JSON has no number for as `Display`
/// does; the trace reader takes these words in any value position.
const NON_FINITE: [(&str, f64); 3] = [
    ("NaN", f64::NAN),
    ("-inf", f64::NEG_INFINITY),
    ("inf", f64::INFINITY),
];

/// One value of a trace line as a tree: JSON, or a [`NON_FINITE`] word,
/// in an array (`costs`) too.
fn trace_value(r: &mut Reader<'_>) -> Result<Value, serde_json::Error> {
    if let Some(&(_, f)) = NON_FINITE.iter().find(|(word, _)| r.eat_token(word)) {
        return Ok(Value::from(f));
    }
    if r.peek() != Some(b'[') {
        return r.value();
    }
    let mut items = Vec::new();
    r.container(|r, _| {
        items.push(trace_value(r)?);
        Ok(())
    })?;
    Ok(Value::Array(items))
}

/// Parse one line [`dvfs_trace::export::jsonl_line`] wrote back into
/// its [`TraceEvent`], through the shim's JSON reader: integers come
/// back exact (`u64::MAX` included) and floats bit for bit (`-0`,
/// ±inf and NaN included), so a tool can diff predicted against
/// measured cost per task.
///
/// # Errors
/// Describes the line's first malformed or missing field.
pub fn parse_jsonl_line(line: &str) -> Result<TraceEvent, String> {
    let mut r = Reader::new(line);
    let mut pairs = Vec::new();
    (r.container(|r, key| {
        pairs.push((key.unwrap_or_default().into_owned(), trace_value(r)?));
        Ok(())
    }))
    .and_then(|()| r.end())
    .map_err(|e| format!("invalid JSON: {e}"))?;
    let v = Value::Object(pairs);
    let field = |key: &str| v.get(key).ok_or_else(|| format!("missing field `{key}`"));
    let num = |key: &str| {
        let n = field(key)?.as_f64();
        n.ok_or_else(|| format!("field `{key}` is not a number"))
    };
    let u64 = |key: &str| {
        let n = field(key)?.as_u64();
        n.ok_or_else(|| format!("field `{key}` is not a non-negative integer"))
    };
    let u32 =
        |key: &str| u32::try_from(u64(key)?).map_err(|_| format!("field `{key}` overflows u32"));
    let str = |key: &str| {
        field(key)?
            .as_str()
            .ok_or_else(|| format!("field `{key}` is not a string"))
    };
    let class = |key: &str| {
        let s = str(key)?;
        ClassTag::parse(s).ok_or_else(|| format!("unknown class `{s}`"))
    };
    let kind = match str("ev")? {
        "submit" => EventKind::Submit {
            task: u64("task")?,
            class: class("class")?,
            cycles: u64("cycles")?,
        },
        "admit" => EventKind::Admit {
            task: u64("task")?,
            depth: u64("depth")?,
        },
        "shed" => EventKind::Shed {
            task: u64("task")?,
            class: class("class")?,
        },
        "enqueue" => EventKind::Enqueue {
            task: u64("task")?,
            core: u32("core")?,
            position: u64("position")?,
            costs: (field("costs")?.as_array())
                .ok_or("field `costs` is not an array")?
                .iter()
                .map(|c| c.as_f64().ok_or("field `costs` holds a non-number"))
                .collect::<Result<_, _>>()?,
            energy_delta: num("energy_delta")?,
            wait_delta: num("wait_delta")?,
        },
        "dispatch" => EventKind::Dispatch {
            task: u64("task")?,
            core: u32("core")?,
            rate: u32("rate")?,
            predicted_energy_j: num("predicted_energy_j")?,
            predicted_time_s: num("predicted_time_s")?,
        },
        "preempt" => EventKind::Preempt {
            task: u64("task")?,
            core: u32("core")?,
        },
        "rate_change" => EventKind::RateChange {
            core: u32("core")?,
            from: u32("from")?,
            to: u32("to")?,
        },
        "migrate" => EventKind::Migrate {
            task: u64("task")?,
            from_shard: u32("from_shard")?,
            to_shard: u32("to_shard")?,
            from_cost: num("from_cost")?,
            to_cost: num("to_cost")?,
        },
        "complete" => EventKind::Complete {
            task: u64("task")?,
            core: u32("core")?,
            energy_j: num("energy_j")?,
            turnaround_s: num("turnaround_s")?,
        },
        other => return Err(format!("unknown event `{other}`")),
    };
    Ok(TraceEvent {
        time: num("t")?,
        shard: u32("shard")?,
        seq: u64("seq")?,
        kind,
    })
}

/// Parse a whole JSONL trace (blank lines skipped).
///
/// # Errors
/// Returns the 1-based line number and cause of the first bad line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let lines = text.lines().enumerate();
    (lines.filter(|(_, line)| !line.trim().is_empty()))
        .map(|(i, line)| parse_jsonl_line(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{field_u64, Response};
    use dvfs_trace::export::to_jsonl;

    fn store() -> TraceStore {
        TraceStore::new(CostParams::online_paper(), Arc::new(Registry::new()))
    }

    fn events(store: &TraceStore, n: u64) {
        let ring = dvfs_trace::SharedRing::new(0, 64);
        for task in 0..n {
            ring.record(task as f64, EventKind::Admit { task, depth: 1 });
        }
        store.absorb(0, ring.drain());
    }

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dvfs-tracestore-{}-{name}", std::process::id()))
    }

    fn file_lines(path: &PathBuf) -> Vec<String> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    /// A reply line as the client decodes it, and its event strings.
    fn decode(reply: &[u8]) -> (Response, Vec<String>) {
        let line = std::str::from_utf8(reply).unwrap().strip_suffix('\n');
        let resp = Response::decode(line.expect("one newline-ended line")).unwrap();
        let events = resp.field("events").and_then(Value::as_array).unwrap();
        let events = events.iter().map(|e| e.as_str().unwrap().to_owned());
        (resp.clone(), events.collect())
    }

    /// Take one `trace_stream` chunk: its event lines and `streamed`.
    fn take_chunk(s: &TraceStore) -> (Vec<String>, u64) {
        let mut out = Vec::new();
        s.write_chunk(&mut out, 0);
        let (resp, lines) = decode(&out);
        (
            lines,
            resp.field("streamed").and_then(Value::as_u64).unwrap(),
        )
    }

    /// One event of every kind, on two shards.
    fn every_kind() -> Vec<TraceEvent> {
        let class = ClassTag::NonInteractive;
        let kinds = [
            EventKind::Submit {
                task: 1,
                class: ClassTag::Interactive,
                cycles: 30_000_000,
            },
            EventKind::Admit { task: 1, depth: 2 },
            EventKind::Shed { task: 2, class },
            EventKind::Enqueue {
                task: 1,
                core: 1,
                position: 3,
                costs: vec![0.5, 0.1 + 0.2],
                energy_delta: 0.25,
                wait_delta: -0.0,
            },
            EventKind::Dispatch {
                task: 1,
                core: 1,
                rate: 2,
                predicted_energy_j: 1.0 / 3.0,
                predicted_time_s: 2e-9,
            },
            EventKind::Preempt { task: 1, core: 1 },
            EventKind::RateChange {
                core: 0,
                from: 1,
                to: 4,
            },
            EventKind::Migrate {
                task: 3,
                from_shard: 1,
                to_shard: 0,
                from_cost: 7.5,
                to_cost: 0.75,
            },
            EventKind::Complete {
                task: 1,
                core: 1,
                energy_j: 0.6,
                turnaround_s: 1e-3,
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(seq, kind)| TraceEvent {
                time: seq as f64 * 0.125,
                shard: seq as u32 % 2,
                seq: seq as u64,
                kind,
            })
            .collect()
    }

    /// The two trace replies, written straight into the output bytes,
    /// are the generic `Response` encoding of the events' JSONL strings
    /// byte for byte, for chunks of 0, 1 and 9 events and one long
    /// enough to be rendered in pieces; the client's decoder and the
    /// JSONL parser give the events back; and the `--trace-out` file
    /// is the streamed chunks, concatenated.
    #[test]
    fn trace_replies_are_the_generic_encoding_of_jsonl_strings() {
        let path = scratch("replies.jsonl");
        let s = store();
        s.set_file(path.clone());
        let kinds = every_kind();
        let long: Vec<TraceEvent> = (0..40_000)
            .map(|i| TraceEvent {
                seq: i as u64,
                ..kinds[i % kinds.len()].clone()
            })
            .collect();
        let mut streamed = Vec::new();
        for (dropped, chunk) in [vec![], kinds[8..].to_vec(), kinds, long]
            .into_iter()
            .enumerate()
        {
            let dropped = dropped as u64;
            let lines: Vec<String> = chunk.iter().map(jsonl_line).collect();
            let count = field_u64("count", chunk.len() as u64);
            let events = (
                "events".to_string(),
                Value::Array(lines.iter().cloned().map(Value::String).collect()),
            );
            let generic = |mut fields: Vec<(String, Value)>| {
                fields.push(events.clone());
                let mut out = Vec::new();
                Response::Ok(fields).push_line(&mut out);
                out
            };
            s.absorb(0, chunk.clone());
            let mut trace = Vec::new();
            s.write_trace(&mut trace, dropped);
            let want = generic(vec![count.clone(), field_u64("dropped", dropped)]);
            assert!(trace == want, "trace of {} events", chunk.len());
            streamed.extend(lines);
            let mut stream = Vec::new();
            s.write_chunk(&mut stream, dropped);
            let want = generic(vec![
                count,
                field_u64("dropped", dropped),
                field_u64("streamed", streamed.len() as u64),
            ]);
            assert!(stream == want, "trace_stream of {} events", chunk.len());
            for reply in [trace, stream] {
                let (_, lines) = decode(&reply);
                assert_eq!(parse_jsonl(&lines.join("\n")).unwrap(), chunk);
            }
        }
        assert_eq!(file_lines(&path), streamed);
        let _ = std::fs::remove_file(&path);
    }

    /// The file holds the full stream — forgotten chunks first, then
    /// the retained tail — and its cursor is never behind the stream
    /// cursor, whichever of flush and take ran last.
    #[test]
    fn file_cursor_is_never_behind_the_stream_cursor() {
        let path = scratch("cursor.jsonl");
        std::fs::write(&path, "stale line from a previous run\n").unwrap();
        let s = store();
        s.set_file(path.clone());
        let mut all = Vec::new();

        events(&s, 3);
        s.flush_file();
        assert_eq!(file_lines(&path), s.lines(), "first flush truncates");
        for round in 0..3 {
            events(&s, 2);
            if round == 1 {
                s.flush_file(); // a flush between takes appends nothing twice
            }
            let (lines, streamed) = take_chunk(&s);
            all.extend(lines);
            assert_eq!(streamed, s.streamed());
            assert!(s.lock_file().written >= s.streamed());
            assert_eq!(file_lines(&path), all, "round {round}");
        }
        assert!(s.lines().is_empty(), "streamed events are forgotten");
        events(&s, 1);
        s.flush_file();
        all.extend(s.lines());
        assert_eq!(file_lines(&path), all);
        assert_eq!(all.len(), 10);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_append_leaves_the_cursor_and_is_retried() {
        let dir = scratch("retry-dir");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("trace.jsonl");
        let s = store();
        s.set_file(path.clone());
        events(&s, 4);
        s.flush_file(); // the directory does not exist yet
        assert_eq!(s.metrics.counter("trace_write_errors").get(), 1);
        assert_eq!(s.lock_file().written, 0);

        std::fs::create_dir_all(&dir).unwrap();
        events(&s, 1);
        s.flush_file();
        assert_eq!(s.lock_file().written, 5);
        assert_eq!(file_lines(&path), s.lines(), "the failed span was retried");
        assert_eq!(s.metrics.counter("trace_write_errors").get(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Per shard and core, each completion's costs are rounded to
    /// micro-units on their own before they are summed: three
    /// completions of 0.4 µ-cost each count 0, not 1.
    #[test]
    fn absorb_attributes_completion_costs_per_shard_and_core() {
        let s = store();
        let ring = dvfs_trace::SharedRing::new(1, 8);
        let complete = |core, energy_j, turnaround_s| EventKind::Complete {
            task: 7,
            core,
            energy_j,
            turnaround_s,
        };
        ring.record(1.0, complete(2, 2.0, 0.5));
        for _ in 0..3 {
            ring.record(1.0, complete(0, 1e-6, 4e-6));
        }
        ring.record(1.0, complete(2, 1.0, 0.25));
        s.absorb(1, ring.drain());
        let p = CostParams::online_paper();
        let micros = |r: f64, x: f64| (r * x * 1e6).round() as u64;
        let counter = |name: &str| s.metrics.counter(name).get();
        let energy = micros(p.re, 2.0) + micros(p.re, 1.0);
        let wait = micros(p.rt, 0.5) + micros(p.rt, 0.25);
        assert_eq!(counter("energy_cost_micros"), energy);
        assert_eq!(counter("wait_cost_micros"), wait);
        assert_eq!(
            counter(&shard_metric("energy_cost_micros.core2", 1)),
            energy
        );
        assert_eq!(counter(&shard_metric("wait_cost_micros.core2", 1)), wait);
        assert_eq!(counter(&shard_metric("energy_cost_micros.core0", 1)), 0);
        assert_eq!(counter(&shard_metric("wait_cost_micros.core0", 1)), 0);
    }

    /// Every float an event carries, as bits.
    fn float_bits(ev: &TraceEvent) -> Vec<u64> {
        let floats = match &ev.kind {
            EventKind::Enqueue {
                costs,
                energy_delta,
                wait_delta,
                ..
            } => [costs.as_slice(), &[*energy_delta, *wait_delta]].concat(),
            EventKind::Dispatch {
                predicted_energy_j,
                predicted_time_s,
                ..
            } => vec![*predicted_energy_j, *predicted_time_s],
            EventKind::Migrate {
                from_cost, to_cost, ..
            } => vec![*from_cost, *to_cost],
            EventKind::Complete {
                energy_j,
                turnaround_s,
                ..
            } => vec![*energy_j, *turnaround_s],
            _ => Vec::new(),
        };
        std::iter::once(ev.time)
            .chain(floats)
            .map(f64::to_bits)
            .collect()
    }

    /// Every kind reads back as it was written, bit for bit, and
    /// re-renders to the same bytes: integers at 2⁵³ + 1 and `u64::MAX`
    /// (`task`, `seq`, `cycles` and the rest), and every float shape
    /// the writer has in every float field — `-0` and `0`, an exact
    /// tie, the subnormal minimum, `f64::MAX`, 2⁵⁴, numbers `Display`
    /// writes as long integers or long fractions, and ±inf and NaN,
    /// which it spells as `Display` does.
    #[test]
    fn jsonl_round_trips_bit_for_bit() {
        const BIG: [u64; 2] = [(1 << 53) + 1, u64::MAX];
        const FLOATS: [f64; 16] = [
            -0.0,
            0.0,
            1_658_206_780_088_562.0 + 0.25,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            9_007_199_254_740_994.0,
            18_014_398_509_481_984.0,
            1e-7,
            1e21,
            1e23,
            0.300_000_000_000_000_04,
            -1.5e-300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut events = every_kind();
        for k in 0..FLOATS.len() {
            let f = |i: usize| FLOATS[(k + i) % FLOATS.len()];
            let (task, n) = (BIG[k % 2], BIG[(k + 1) % 2]);
            let kinds = [
                EventKind::Submit {
                    task,
                    class: ClassTag::Batch,
                    cycles: n,
                },
                EventKind::Admit { task, depth: n },
                EventKind::Enqueue {
                    task,
                    core: u32::MAX,
                    position: n,
                    costs: vec![f(1), f(2)],
                    energy_delta: f(3),
                    wait_delta: f(4),
                },
                EventKind::Dispatch {
                    task,
                    core: 0,
                    rate: u32::MAX,
                    predicted_energy_j: f(5),
                    predicted_time_s: f(6),
                },
                EventKind::Migrate {
                    task,
                    from_shard: 0,
                    to_shard: u32::MAX,
                    from_cost: f(7),
                    to_cost: f(8),
                },
                EventKind::Complete {
                    task,
                    core: 2,
                    energy_j: f(9),
                    turnaround_s: f(10),
                },
            ];
            events.extend(kinds.into_iter().map(|kind| TraceEvent {
                time: f(0),
                shard: u32::MAX,
                seq: n,
                kind,
            }));
        }
        let text = to_jsonl(&events);
        let parsed = parse_jsonl(&text).expect("parses");
        assert_eq!(parsed.len(), events.len());
        for (back, ev) in parsed.iter().zip(&events) {
            assert_eq!(float_bits(back), float_bits(ev), "{ev:?}");
            // NaN is unequal to itself, so the rest is held by the bytes.
            assert_eq!(jsonl_line(back), jsonl_line(ev));
        }
        assert_eq!(to_jsonl(&parsed), text);
    }

    #[test]
    fn parser_rejects_garbage_with_line_numbers() {
        assert!(parse_jsonl_line("not json").is_err());
        assert!(parse_jsonl_line("{\"t\":0,\"shard\":0,\"seq\":0,\"ev\":\"nope\"}").is_err());
        // Only the writer's own spellings of the non-finite floats.
        for word in ["nan", "Infinity", "+inf", "-NaN", "infinity"] {
            let line = format!("{{\"t\":{word},\"shard\":0,\"seq\":0,\"ev\":\"admit\"}}");
            let err = parse_jsonl_line(&line).unwrap_err();
            assert!(err.starts_with("invalid JSON: "), "{word}: {err}");
        }
        let err = parse_jsonl("{\"t\":0,\"shard\":0,\"seq\":0,\"ev\":\"admit\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }
}
