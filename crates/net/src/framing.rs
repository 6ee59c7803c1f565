//! Incremental NDJSON line framing.
//!
//! A [`LineFramer`] accepts arbitrary byte chunks as they arrive from a
//! nonblocking socket and cuts them into request lines: one line per
//! newline-terminated, non-blank line (CR stripped, surrounding
//! whitespace trimmed — matching what the thread backend's
//! `BufRead::read_line` + `trim()` path accepted historically), or one
//! oversized rejection the moment a line crosses the configured byte
//! budget. Oversized input is then discarded up to the next newline so
//! a hostile or broken client cannot grow the per-connection buffer
//! without bound.
//!
//! The core, [`LineFramer::batches`], lends each line out of the bytes
//! it was handed — the caller's read buffer — and owns a copy only of
//! a line split across reads (and of the rare line that is not valid
//! UTF-8). Both wire drivers run it and hand every batch it cuts to
//! the handler; [`LineFramer::feed`] is the owning adapter over the
//! same core for callers that want [`Frame`]s, and [`edge_cases`] is
//! the shared table their tests drive it with.

use std::borrow::Cow;

/// Default per-line byte budget shared by both wire front-ends.
pub const DEFAULT_MAX_LINE: usize = 64 * 1024;

/// One owned framing event, as [`LineFramer::feed`] emits them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete, non-blank request line (newline and CR stripped).
    Line(String),
    /// A line exceeded the budget; `len` is the bytes seen when the
    /// limit tripped. Emitted once per oversized line, at detection
    /// time, so the peer gets its error before the line even ends.
    Oversized {
        /// Bytes accumulated when the budget was exceeded.
        len: usize,
    },
}

/// One unit of work [`LineFramer::batches`] cuts from a read: every run
/// of lines between oversized rejections is one batch, so a rejection
/// is answered exactly where its line sat in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch<'a> {
    /// A run of consecutive complete lines (never empty): one handler
    /// call. Lent for the duration of the callback.
    Lines(&'a [Cow<'a, str>]),
    /// An oversized-line rejection, in its wire position.
    Oversized {
        /// Bytes accumulated when the budget was exceeded.
        len: usize,
    },
}

/// Incremental line splitter with an oversized-line guard.
#[derive(Debug)]
pub struct LineFramer {
    /// The unterminated line a previous read ended in.
    partial: Vec<u8>,
    max_line: usize,
    discarding: bool,
}

/// A line's text: lossily decoded (a borrow unless the bytes are not
/// UTF-8) and trimmed; `None` when nothing is left.
fn line_text(raw: &[u8]) -> Option<Cow<'_, str>> {
    let text = match String::from_utf8_lossy(raw) {
        Cow::Borrowed(text) => Cow::Borrowed(text.trim()),
        Cow::Owned(text) => Cow::Owned(text.trim().to_owned()),
    };
    (!text.is_empty()).then_some(text)
}

impl LineFramer {
    /// A framer that rejects lines longer than `max_line` bytes.
    #[must_use]
    pub fn new(max_line: usize) -> Self {
        LineFramer {
            partial: Vec::new(),
            max_line: max_line.max(1),
            discarding: false,
        }
    }

    /// Cut one chunk of bytes into batches, in wire order, calling
    /// `each` for every batch. Lines borrow from `data`; only the line
    /// an earlier chunk left unterminated is assembled in the framer's
    /// own buffer, and only the unterminated tail of `data` is copied
    /// into it. `each` returns `false` to abandon the rest of the chunk
    /// (a stop request: later lines owe no response).
    pub fn batches(&mut self, data: &[u8], mut each: impl FnMut(Batch<'_>) -> bool) {
        let empty: &[u8] = &[];
        // The carried line moves out so the lines below can borrow it
        // while `self` keeps taking the oversized-guard updates; its
        // allocation goes back in with the new tail at the end.
        let mut carried = std::mem::take(&mut self.partial);
        let mut rest = data;
        if self.discarding || !carried.is_empty() {
            // Finish (or keep swallowing) the line in progress.
            let Some(pos) = rest.iter().position(|&b| b == b'\n') else {
                if !self.discarding {
                    if carried.len() + rest.len() > self.max_line {
                        self.discarding = true;
                        let len = carried.len() + rest.len();
                        carried.clear();
                        each(Batch::Oversized { len });
                    } else {
                        carried.extend_from_slice(rest);
                    }
                }
                self.partial = carried;
                return;
            };
            let (head, tail) = rest.split_at(pos);
            rest = tail.get(1..).unwrap_or(empty);
            if self.discarding {
                self.discarding = false;
            } else if carried.len() + head.len() > self.max_line {
                let len = carried.len() + head.len();
                carried.clear();
                if !each(Batch::Oversized { len }) {
                    return;
                }
            } else {
                carried.extend_from_slice(head);
            }
        }

        let mut lines: Vec<Cow<'_, str>> = Vec::new();
        lines.extend(line_text(&carried));
        let mut tail = empty;
        while !rest.is_empty() {
            let Some(pos) = rest.iter().position(|&b| b == b'\n') else {
                tail = rest;
                break;
            };
            let (line, after) = rest.split_at(pos);
            rest = after.get(1..).unwrap_or(empty);
            if line.len() > self.max_line {
                let go_on = (lines.is_empty() || each(Batch::Lines(&lines)))
                    && each(Batch::Oversized { len: line.len() });
                if !go_on {
                    return;
                }
                lines.clear();
            } else {
                lines.extend(line_text(line));
            }
        }
        let oversized_tail = tail.len() > self.max_line;
        let go_on = (lines.is_empty() || each(Batch::Lines(&lines)))
            && (!oversized_tail || each(Batch::Oversized { len: tail.len() }));
        drop(lines);
        carried.clear();
        if go_on {
            self.discarding = oversized_tail;
            if !oversized_tail {
                carried.extend_from_slice(tail);
            }
        }
        self.partial = carried;
    }

    /// Feed one chunk of bytes, appending any completed frames to
    /// `out` as owned values. Order is preserved: frames appear exactly
    /// in wire order.
    pub fn feed(&mut self, data: &[u8], out: &mut Vec<Frame>) {
        self.batches(data, |batch| {
            match batch {
                Batch::Lines(lines) => {
                    out.extend(lines.iter().map(|l| Frame::Line(l.to_string())));
                }
                Batch::Oversized { len } => out.push(Frame::Oversized { len }),
            }
            true
        });
    }

    /// Bytes buffered for the line in progress.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.partial.len()
    }

    /// True when an unterminated line is pending — either buffered
    /// bytes or an oversized line still being discarded. A disconnect
    /// in this state is a mid-line disconnect: the fragment is dropped
    /// and owes no response.
    #[must_use]
    pub fn has_partial(&self) -> bool {
        !self.partial.is_empty() || self.discarding
    }
}

/// Expected outcome of one framing step in an [`edge_cases`] entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A complete line with this exact text.
    Line(&'static str),
    /// An oversized-line rejection (length not pinned — it depends on
    /// the budget the table was built for).
    Oversized,
}

/// One table-driven framing scenario.
#[derive(Debug)]
pub struct FramingCase {
    /// Scenario name, used in assertion messages.
    pub name: &'static str,
    /// The byte chunks, in arrival order. Chunk boundaries are part of
    /// the scenario: unit tests feed them one `feed` call at a time.
    pub chunks: Vec<Vec<u8>>,
    /// The frames the framer must emit, in order.
    pub want: Vec<Expect>,
    /// Whether an unterminated fragment must remain buffered after the
    /// last chunk (the mid-line-disconnect scenarios).
    pub leftover: bool,
}

/// The shared edge-case table, scaled to a line budget of `max_line`
/// bytes. `dvfs-net`'s unit tests run it straight through a
/// [`LineFramer`]; the serve integration tests replay the same chunks
/// over live sockets against both wire backends and count responses.
#[must_use]
pub fn edge_cases(max_line: usize) -> Vec<FramingCase> {
    let max_line = max_line.max(8);
    let big = vec![b'x'; max_line + 1];
    let mut big_then_ok = big.clone();
    big_then_ok.extend_from_slice(b"\nok\n");
    vec![
        FramingCase {
            name: "partial-line-across-reads",
            chunks: vec![b"{\"cmd\":\"pi".to_vec(), b"ng\"}\n".to_vec()],
            want: vec![Expect::Line("{\"cmd\":\"ping\"}")],
            leftover: false,
        },
        FramingCase {
            name: "multiple-lines-per-read",
            chunks: vec![b"one\ntwo\nthree\n".to_vec()],
            want: vec![
                Expect::Line("one"),
                Expect::Line("two"),
                Expect::Line("three"),
            ],
            leftover: false,
        },
        FramingCase {
            name: "oversized-line-rejected-then-recovers",
            chunks: vec![big_then_ok],
            want: vec![Expect::Oversized, Expect::Line("ok")],
            leftover: false,
        },
        FramingCase {
            name: "oversized-reported-before-newline",
            chunks: vec![big, b"trailing".to_vec(), b"\nok\n".to_vec()],
            want: vec![Expect::Oversized, Expect::Line("ok")],
            leftover: false,
        },
        FramingCase {
            name: "mid-line-disconnect-drops-fragment",
            chunks: vec![b"{\"cmd\":\"sta".to_vec()],
            want: vec![],
            leftover: true,
        },
        FramingCase {
            name: "crlf-and-blank-lines",
            chunks: vec![b"first\r\n\r\n\nsecond\n".to_vec()],
            want: vec![Expect::Line("first"), Expect::Line("second")],
            leftover: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_case(case: &FramingCase, max_line: usize) -> (Vec<Frame>, bool) {
        let mut framer = LineFramer::new(max_line);
        let mut out = Vec::new();
        for chunk in &case.chunks {
            framer.feed(chunk, &mut out);
        }
        (out, framer.has_partial())
    }

    /// The owning framer this module shipped before the borrowed core,
    /// kept as the oracle: one `Frame` per line, a copy per line.
    #[derive(Default)]
    struct Reference {
        partial: Vec<u8>,
        discarding: bool,
    }

    impl Reference {
        fn feed(&mut self, max_line: usize, data: &[u8], out: &mut Vec<Frame>) {
            let mut rest = data;
            while !rest.is_empty() {
                let (chunk, terminated) = match rest.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        let chunk = &rest[..pos];
                        rest = &rest[pos + 1..];
                        (chunk, true)
                    }
                    None => (std::mem::take(&mut rest), false),
                };
                if self.discarding {
                    self.discarding = !terminated;
                } else if self.partial.len() + chunk.len() > max_line {
                    out.push(Frame::Oversized {
                        len: self.partial.len() + chunk.len(),
                    });
                    self.partial.clear();
                    self.discarding = !terminated;
                } else if terminated {
                    let mut line = std::mem::take(&mut self.partial);
                    line.extend_from_slice(chunk);
                    let text = String::from_utf8_lossy(&line);
                    if !text.trim().is_empty() {
                        out.push(Frame::Line(text.trim().to_owned()));
                    }
                } else {
                    self.partial.extend_from_slice(chunk);
                }
            }
        }
    }

    /// The borrowed core against the owning oracle: the edge-case table
    /// plus hostile extras (invalid UTF-8, Unicode blanks, a bare CR),
    /// as one stream, re-cut at seeded random chunk boundaries. Frames,
    /// the buffered byte count and the mid-line flag must agree after
    /// every chunk — and the lines must really be lent, not copied.
    #[test]
    fn borrowed_core_matches_the_owning_reference_under_random_chunking() {
        let max_line = 32;
        let mut stream: Vec<u8> = Vec::new();
        for case in edge_cases(max_line) {
            if !case.leftover {
                stream.extend(case.chunks.concat());
            }
        }
        stream.extend_from_slice(b"caf\xc3\xa9\n\xff\xfe bad utf8\n\xc2\xa0\n \r\n\r\nlast");
        // A tiny LCG keeps the crate dependency-free.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        for _ in 0..200 {
            let mut framer = LineFramer::new(max_line);
            let mut reference = Reference::default();
            let mut rest = &stream[..];
            while !rest.is_empty() {
                let (chunk, tail) = rest.split_at(1 + next(rest.len().min(48)));
                rest = tail;
                let (mut got, mut want) = (Vec::new(), Vec::new());
                framer.feed(chunk, &mut got);
                reference.feed(max_line, chunk, &mut want);
                assert_eq!(got, want, "chunk {chunk:?}");
                assert_eq!(framer.buffered(), reference.partial.len());
                assert_eq!(
                    framer.has_partial(),
                    !reference.partial.is_empty() || reference.discarding
                );
            }
        }
        // One read holding whole lines: every line is a borrow of it.
        let data = b"alpha\n beta \r\ngamma\n";
        let mut framer = LineFramer::new(max_line);
        let mut batches = 0;
        framer.batches(data, |batch| {
            batches += 1;
            let Batch::Lines(lines) = batch else {
                panic!("no oversized line here");
            };
            assert_eq!(lines, ["alpha", "beta", "gamma"]);
            let range = data.as_ptr_range();
            for line in lines {
                assert!(matches!(line, Cow::Borrowed(_)));
                assert!(range.contains(&line.as_ptr()), "{line} was copied");
            }
            true
        });
        assert_eq!(batches, 1);
    }

    #[test]
    fn batches_split_at_oversized_lines_and_stop_on_request() {
        let data = b"one\ntwo\nxxxxxxxxx\nthree\nfour\n";
        let collect = |stop_after: usize| {
            let mut framer = LineFramer::new(8);
            let mut seen: Vec<String> = Vec::new();
            framer.batches(data, |batch| {
                seen.push(match batch {
                    Batch::Lines(lines) => lines.join("+"),
                    Batch::Oversized { len } => format!("oversized:{len}"),
                });
                seen.len() < stop_after
            });
            seen
        };
        assert_eq!(
            collect(usize::MAX),
            ["one+two", "oversized:9", "three+four"]
        );
        // Returning `false` abandons the rest of the chunk.
        assert_eq!(collect(1), ["one+two"]);
        assert_eq!(collect(2), ["one+two", "oversized:9"]);
    }

    #[test]
    fn edge_case_table_holds() {
        let max_line = 32;
        for case in edge_cases(max_line) {
            let (frames, leftover) = run_case(&case, max_line);
            assert_eq!(frames.len(), case.want.len(), "{}: frame count", case.name);
            for (got, want) in frames.iter().zip(&case.want) {
                match (got, want) {
                    (Frame::Line(l), Expect::Line(w)) => {
                        assert_eq!(l, w, "{}: line text", case.name);
                    }
                    (Frame::Oversized { len }, Expect::Oversized) => {
                        assert!(*len > max_line, "{}: oversized len", case.name);
                    }
                    (got, want) => panic!("{}: got {got:?}, want {want:?}", case.name),
                }
            }
            assert_eq!(leftover, case.leftover, "{}: leftover", case.name);
        }
    }

    #[test]
    fn byte_at_a_time_feeding_matches_bulk() {
        let data = b"alpha\nbeta\r\ngamma";
        let mut bulk = LineFramer::new(64);
        let mut bulk_out = Vec::new();
        bulk.feed(data, &mut bulk_out);

        let mut drip = LineFramer::new(64);
        let mut drip_out = Vec::new();
        for b in data {
            drip.feed(std::slice::from_ref(b), &mut drip_out);
        }
        assert_eq!(bulk_out, drip_out);
        assert_eq!(bulk.buffered(), drip.buffered());
        assert!(drip.has_partial(), "gamma has no newline yet");
    }

    #[test]
    fn exact_budget_line_is_accepted() {
        let mut framer = LineFramer::new(4);
        let mut out = Vec::new();
        framer.feed(b"abcd\nabcde\n", &mut out);
        assert_eq!(
            out,
            vec![Frame::Line("abcd".to_owned()), Frame::Oversized { len: 5 }]
        );
    }

    #[test]
    fn oversized_line_is_reported_exactly_once() {
        let mut framer = LineFramer::new(4);
        let mut out = Vec::new();
        framer.feed(b"toolong", &mut out);
        framer.feed(b"evenlonger", &mut out);
        framer.feed(b"\nok\n", &mut out);
        assert_eq!(
            out,
            vec![Frame::Oversized { len: 7 }, Frame::Line("ok".to_owned())]
        );
        assert!(!framer.has_partial());
    }
}
