//! The JSONL event writer: the wire's and the file's trace format, one
//! event a line, rendered into bytes.
//!
//! The encoding is the determinism oracle: numbers render through
//! [`num`] in exactly the bytes of Rust's shortest-round-trip
//! `Display` (Ryū's digits, an exact halfway tie rounded up; `Display`
//! itself for subnormals and |v| ≥ 2⁵⁴; `null` for NaN and ±inf, which
//! JSON has no number for), field order is fixed, and nothing here reads a clock — so a drained replay produces
//! a byte-identical trace across runs and shard counts.
//!
//! One writer renders every line, into a byte buffer: as is, or as a
//! JSON string inside a reply ([`Framing`]). [`write_events`] hands a
//! run to its sink in pieces of [`PIECE_EVENTS`], rendering the next
//! while one is written, so a multi-megabyte trace reply or file append
//! holds two pieces of text. `export` re-exports this module's names
//! and wraps the same writer in `String`s.
//!
//! Unlike `export`, this module is not excused from the crate's
//! `clippy.toml`: a `format!` / `write!` / `writeln!`, a `.to_string()`
//! or a `String` here fails clippy, so every number goes through
//! [`num`] and no second formatter can creep into the trace bytes.

use crate::{num, EventKind, TraceEvent};
use std::io::{self, Write};

/// How [`write_events`] frames each event's JSONL line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// The line as is, ended by a newline: a JSONL file.
    Lines,
    /// The line as a JSON string (`"` around it, `\"` for each quote
    /// in it), comma-separated: the body of a reply's `events` array.
    Strings,
}

/// The events [`write_events`] renders into one piece (≈3 MB of text)
/// before it hands the piece to the sink.
pub const PIECE_EVENTS: usize = 16_384;

/// Bytes reserved per event, so a piece's buffer is allocated once, not
/// grown by doubling (a Judgegirl round averages ≈170 as strings).
pub const EVENT_BYTES: usize = 192;

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
/// [`ClassTag::name`](crate::ClassTag::name) identifiers, and numbers
/// render through [`num`]. Field order is fixed: `t`, `shard`, `seq`,
/// `ev`, then the payload fields in declaration order.
pub(crate) fn write_event(out: &mut Vec<u8>, ev: &TraceEvent, escaped: bool) {
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

/// Write `events` to `sink` framed as `framing`, in pieces of
/// [`PIECE_EVENTS`] handed to the sink in order: while one piece is
/// written, a scoped thread renders the next, so two buffers, reused
/// from piece to piece, hold all the text there is. The bytes do not
/// depend on the cut.
///
/// # Errors
/// The sink's first error, after which no piece is rendered.
pub fn write_events(
    sink: &mut impl Write,
    events: &[TraceEvent],
    framing: Framing,
) -> io::Result<()> {
    write_pieces(sink, events, framing, PIECE_EVENTS)
}

/// [`write_events`] in pieces of `piece` events (at least one).
pub(crate) fn write_pieces(
    sink: &mut impl Write,
    events: &[TraceEvent],
    framing: Framing,
    piece: usize,
) -> io::Result<()> {
    let piece = piece.max(1);
    let reserve = |n: usize| Vec::with_capacity(n.min(piece) * EVENT_BYTES);
    let mut pieces = events.chunks(piece);
    let Some(head) = pieces.next() else {
        return Ok(());
    };
    let (mut ready, mut spare) = (reserve(events.len()), reserve(events.len() - head.len()));
    write_piece(&mut ready, head, framing, true);
    for next in pieces {
        spare.clear();
        let written = std::thread::scope(|s| {
            let render = s.spawn(|| write_piece(&mut spare, next, framing, false));
            let written = sink.write_all(&ready);
            render
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            written
        });
        written?;
        std::mem::swap(&mut ready, &mut spare);
    }
    sink.write_all(&ready)
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
