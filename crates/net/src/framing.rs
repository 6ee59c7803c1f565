//! Incremental NDJSON line framing.
//!
//! A [`LineFramer`] accepts arbitrary byte chunks as they arrive from a
//! nonblocking socket and emits complete frames: one [`Frame::Line`]
//! per newline-terminated, non-blank line (CR stripped, surrounding
//! whitespace trimmed — matching what the thread backend's
//! `BufRead::read_line` + `trim()` path accepted historically), or one
//! [`Frame::Oversized`] the moment a line crosses the configured byte
//! budget. Oversized input is then discarded up to the next newline so
//! a hostile or broken client cannot grow the per-connection buffer
//! without bound.
//!
//! Both wire drivers run this exact framer and cut its output into
//! handler batches with `split_batches`; [`edge_cases`] is the shared
//! table their tests drive it with.

/// Default per-line byte budget shared by both wire front-ends.
pub const DEFAULT_MAX_LINE: usize = 64 * 1024;

/// One framing event.
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

/// Incremental line splitter with an oversized-line guard.
#[derive(Debug)]
pub struct LineFramer {
    partial: Vec<u8>,
    max_line: usize,
    discarding: bool,
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

    /// Feed one chunk of bytes, appending any completed frames to
    /// `out`. Order is preserved: frames appear exactly in wire order.
    pub fn feed(&mut self, data: &[u8], out: &mut Vec<Frame>) {
        let empty: &[u8] = &[];
        let mut rest = data;
        while !rest.is_empty() {
            let (chunk, after, terminated) = match rest.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    let (head, tail) = rest.split_at(pos);
                    (head, tail.get(1..).unwrap_or(empty), true)
                }
                None => (rest, empty, false),
            };
            rest = after;
            if self.discarding {
                // Inside an already-reported oversized line: swallow
                // until its terminating newline.
                if terminated {
                    self.discarding = false;
                }
                continue;
            }
            if self.partial.len() + chunk.len() > self.max_line {
                out.push(Frame::Oversized {
                    len: self.partial.len() + chunk.len(),
                });
                self.partial.clear();
                self.discarding = !terminated;
                continue;
            }
            if terminated {
                let mut line = std::mem::take(&mut self.partial);
                line.extend_from_slice(chunk);
                let text = String::from_utf8_lossy(&line);
                let text = text.trim();
                if !text.is_empty() {
                    out.push(Frame::Line(text.to_owned()));
                }
            } else {
                self.partial.extend_from_slice(chunk);
            }
        }
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

/// One unit of work cut from a read's frames by [`split_batches`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Batch {
    /// A run of consecutive complete lines (never empty): one handler
    /// call.
    Lines(Vec<String>),
    /// An oversized-line rejection, in its wire position.
    Oversized {
        /// Bytes accumulated when the budget was exceeded.
        len: usize,
    },
}

/// Cut one read's frames into handler batches, preserving wire order:
/// every run of lines between oversized rejections is one batch, so a
/// rejection is answered exactly where its line sat in the stream.
/// `each` returns `false` to abandon the rest of the read (a stop
/// request: later lines owe no response). `frames` is left empty.
pub(crate) fn split_batches(frames: &mut Vec<Frame>, mut each: impl FnMut(Batch) -> bool) {
    let mut lines: Vec<String> = Vec::new();
    for frame in frames.drain(..) {
        match frame {
            Frame::Line(line) => lines.push(line),
            Frame::Oversized { len } => {
                if !lines.is_empty() && !each(Batch::Lines(std::mem::take(&mut lines))) {
                    return;
                }
                if !each(Batch::Oversized { len }) {
                    return;
                }
            }
        }
    }
    if !lines.is_empty() {
        each(Batch::Lines(lines));
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
