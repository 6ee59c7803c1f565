//! Where drained lifecycle-trace events live until a client takes them.
//!
//! The scheduler drains every shard's ring into this store at round
//! boundaries (ascending shard order). From here the events leave three
//! ways, all serving the same JSONL lines byte for byte: the one-shot
//! wire `trace` ([`TraceStore::lines`]), incremental `trace_stream`
//! chunks that are forgotten once handed out ([`TraceStore::take_chunk`]),
//! and an optional `--trace-out` file that holds the full stream —
//! streamed-and-forgotten chunks first, then what a `trace` response
//! still carries.
//!
//! Two cursors, two locks, one rule. The *stream cursor* (`forgotten`)
//! sits beside the retained events; the *file cursor* (`written`) sits
//! beside the file path, and its mutex also serializes every file
//! write. A `trace_stream` holds the file lock across take-and-append,
//! so the file gains a chunk's lines *before* the store forgets them:
//! the file cursor never falls behind the stream cursor, whatever the
//! interleaving. Lock order is always file cursor → retained events,
//! and this module is the only place that takes both.

use crate::metrics::{shard_metric, Registry};
use dvfs_model::CostParams;
use dvfs_trace::{EventKind, TraceEvent};
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

/// One `trace_stream` increment: every retained event serialized, now
/// forgotten by the store.
pub(crate) struct TraceChunk {
    /// JSONL lines of this chunk's events.
    pub lines: Vec<String>,
    /// Total events streamed including this chunk.
    pub streamed_total: u64,
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
    /// (`Rt · turnaround`), both in integer micro-cost units.
    pub fn absorb(&self, shard: usize, events: Vec<TraceEvent>) {
        if events.is_empty() {
            return;
        }
        for ev in &events {
            if let EventKind::Complete {
                core,
                energy_j,
                turnaround_s,
                ..
            } = ev.kind
            {
                let energy_micros = (self.params.re * energy_j * 1e6).round() as u64;
                let wait_micros = (self.params.rt * turnaround_s * 1e6).round() as u64;
                let m = &self.metrics;
                m.counter("energy_cost_micros").add(energy_micros);
                m.counter("wait_cost_micros").add(wait_micros);
                m.counter(&shard_metric(
                    &format!("energy_cost_micros.core{core}"),
                    shard,
                ))
                .add(energy_micros);
                m.counter(&shard_metric(
                    &format!("wait_cost_micros.core{core}"),
                    shard,
                ))
                .add(wait_micros);
            }
        }
        self.lock_retained().events.extend(events);
    }

    /// Events streamed-and-forgotten so far (the stream cursor).
    pub fn streamed(&self) -> u64 {
        self.lock_retained().forgotten
    }

    /// The retained trace as JSONL lines (one event per line, no
    /// trailing newline): everything absorbed and not yet streamed away.
    pub fn lines(&self) -> Vec<String> {
        render(&self.lock_retained().events)
    }

    /// Catch the trace file up to everything absorbed so far. A no-op
    /// without a file.
    pub fn flush_file(&self) {
        let mut file = self.lock_file();
        if file.path.is_none() {
            return;
        }
        let (lines, first_abs) = {
            let retained = self.lock_retained();
            (render(&retained.events), retained.forgotten)
        };
        self.append(&mut file, first_abs, &lines);
    }

    /// Take one `trace_stream` chunk: serialize every retained event,
    /// append it to the trace file (file lock held across both, so the
    /// chunk is durable before it is forgotten), then forget it.
    /// Repeated calls return disjoint, contiguous chunks whose
    /// concatenation is byte-identical to what a single one-shot
    /// `trace` would have returned.
    pub fn take_chunk(&self) -> TraceChunk {
        let mut file = self.lock_file();
        let (lines, first_abs, streamed_total) = {
            let mut retained = self.lock_retained();
            let lines = render(&std::mem::take(&mut retained.events));
            let first_abs = retained.forgotten;
            retained.forgotten += lines.len() as u64;
            (lines, first_abs, retained.forgotten)
        };
        self.append(&mut file, first_abs, &lines);
        TraceChunk {
            lines,
            streamed_total,
        }
    }

    /// Append every line whose absolute stream index is at or past the
    /// file cursor (`first_abs` is `lines[0]`'s index), advancing the
    /// cursor on success. The file is append-only behind the cursor:
    /// the first append truncates any stale file from a previous run,
    /// every later one adds exactly the lines past the cursor. A failed
    /// write leaves the cursor untouched and bumps
    /// `trace_write_errors`; the next flush retries the same span if it
    /// is still retained.
    fn append(&self, file: &mut FileCursor, first_abs: u64, lines: &[String]) {
        let Some(path) = &file.path else { return };
        let skip = usize::try_from(file.written.saturating_sub(first_abs)).unwrap_or(usize::MAX);
        let fresh = lines.get(skip..).unwrap_or(&[]);
        let opened = if file.written == 0 {
            std::fs::File::create(path)
        } else if fresh.is_empty() {
            return; // nothing new and the file already exists
        } else {
            std::fs::OpenOptions::new().append(true).open(path)
        };
        let mut body = String::with_capacity(fresh.iter().map(|l| l.len() + 1).sum());
        for l in fresh {
            body.push_str(l);
            body.push('\n');
        }
        match opened.and_then(|mut f| f.write_all(body.as_bytes())) {
            Ok(()) => file.written += fresh.len() as u64,
            Err(_) => self.metrics.counter("trace_write_errors").inc(),
        }
    }
}

fn render(events: &[TraceEvent]) -> Vec<String> {
    events.iter().map(dvfs_trace::export::jsonl_line).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let chunk = s.take_chunk();
            all.extend(chunk.lines);
            assert_eq!(chunk.streamed_total, s.streamed());
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

    #[test]
    fn absorb_attributes_completion_costs_per_shard_and_core() {
        let s = store();
        let ring = dvfs_trace::SharedRing::new(1, 8);
        ring.record(
            1.0,
            EventKind::Complete {
                task: 7,
                core: 2,
                energy_j: 2.0,
                turnaround_s: 0.5,
            },
        );
        s.absorb(1, ring.drain());
        let p = CostParams::online_paper();
        let energy = (p.re * 2.0 * 1e6).round() as u64;
        let wait = (p.rt * 0.5 * 1e6).round() as u64;
        assert_eq!(s.metrics.counter("energy_cost_micros").get(), energy);
        assert_eq!(
            s.metrics
                .counter(&shard_metric("wait_cost_micros.core2", 1))
                .get(),
            wait
        );
    }
}
