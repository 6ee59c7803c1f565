//! The blocking driver: serve one stream on the calling thread.
//!
//! The blocking counterpart of the [`reactor`](crate::reactor): same
//! framer, same [`Handler`] — only the I/O model differs. There is no
//! event loop to keep responsive, so every batch is answered as a
//! caller that may wait, right here on the connection's own thread.

use crate::framing::{Batch, LineFramer};
use crate::handler::{recycle, Answered, Caller, Handler, Output};
use std::io::{self, ErrorKind, Read, Write};
use std::time::Instant;

/// Serve `stream` until the peer closes it, a request on it asks for a
/// stop ([`Answered::Stop`]: the acknowledgement and the responses
/// before it are written, nothing after it is answered), or
/// [`Handler::should_stop`] turns true. The stop flag is polled between
/// reads, so the caller should give the stream a read timeout:
/// `WouldBlock`/`TimedOut` reads are retried, keeping a part-read line.
///
/// # Errors
/// Hard read or write errors; the connection is finished either way.
pub fn serve<S: Read + Write, H: Handler + ?Sized>(
    stream: &mut S,
    max_line: usize,
    handler: &H,
) -> io::Result<()> {
    let mut framer = LineFramer::new(max_line);
    let mut buf = vec![0u8; 16 * 1024];
    let mut out: Vec<u8> = Vec::new();
    while !handler.should_stop() {
        let n = match stream.read(&mut buf) {
            Ok(0) => break, // peer closed; a mid-line fragment owes no response
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        };
        // Stamped after the (possibly long) block in `read`, so the
        // handler's receive-to-answer time excludes idle socket time.
        let received = Instant::now();
        let mut stop = false;
        let mut output = Output::new(&mut out, Some(&mut *stream));
        framer.batches(buf.get(..n).unwrap_or(&[]), |batch| {
            match batch {
                Batch::Lines(lines) => {
                    stop = handler.answer(lines, received, &mut output, Caller::MayWait)
                        == Answered::Stop;
                }
                Batch::Oversized { len } => _ = writeln!(output, "{}", handler.oversized_line(len)),
            }
            !stop
        });
        // One write per read: every response the read drew leaves
        // together, bar the pieces of a long reply that spilled.
        output.flush()?;
        stream.flush()?;
        recycle(&mut out);
        if stop {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{edge_cases, Expect};
    use crate::handler::SPILL_BYTES;
    use std::borrow::Cow;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// Uppercases every line, but lowercases a "wait…" line, which an
    /// event loop would not have answered (this driver must never call
    /// as one), and a "stop" line, which raises the stop flag. A
    /// "big:N" line is answered as a renderer would: N pieces of
    /// `SPILL_BYTES` written through `Write`, stopping at the first
    /// error, then a newline.
    #[derive(Default)]
    struct Upper {
        stopped: AtomicBool,
        /// Pieces of "big" replies the sink took.
        pieces: AtomicUsize,
    }

    impl Handler for Upper {
        fn answer(
            &self,
            lines: &[Cow<'_, str>],
            _received: Instant,
            out: &mut Output<'_>,
            caller: Caller,
        ) -> Answered {
            assert_eq!(caller, Caller::MayWait);
            for line in lines {
                if let Some(n) = line.strip_prefix("big:") {
                    for k in 0..n.parse().unwrap() {
                        if out.write_all(&[b'a' + k; SPILL_BYTES]).is_err() {
                            break;
                        }
                        self.pieces.fetch_add(1, Ordering::SeqCst);
                    }
                    out.bytes.push(b'\n');
                    continue;
                }
                let out = &mut *out.bytes;
                if line.starts_with("wait") || *line == "stop" {
                    _ = writeln!(out, "{}", line.to_lowercase());
                    if *line == "stop" {
                        self.stopped.store(true, Ordering::SeqCst);
                        return Answered::Stop;
                    }
                } else {
                    _ = writeln!(out, "{}", line.to_uppercase());
                }
            }
            Answered::All
        }
        fn oversized_line(&self, len: usize) -> String {
            format!("oversized:{len}")
        }
        fn shed_line(&self, _max_connections: usize) -> String {
            "shed".to_owned()
        }
        fn should_stop(&self) -> bool {
            self.stopped.load(Ordering::SeqCst)
        }
    }

    /// An in-memory stream: each `read` yields the next scripted chunk
    /// (`None` is a read timeout), then EOF; every `write` call is
    /// kept apart so a test can count them. Writes take at most
    /// `write_cap` bytes, every other one is `Interrupted` when
    /// `interrupt` is set, and once `fail_after` bytes are in, each
    /// write fails with `BrokenPipe` (counted in `refused`).
    struct Script {
        reads: VecDeque<Option<Vec<u8>>>,
        writes: Vec<Vec<u8>>,
        write_cap: usize,
        interrupt: bool,
        fail_after: usize,
        refused: usize,
        calls: usize,
    }

    impl Script {
        fn new(reads: impl IntoIterator<Item = Option<Vec<u8>>>) -> Script {
            Script {
                reads: reads.into_iter().collect(),
                writes: Vec::new(),
                write_cap: usize::MAX,
                interrupt: false,
                fail_after: usize::MAX,
                refused: 0,
                calls: 0,
            }
        }

        fn lines(&self) -> Vec<String> {
            String::from_utf8(self.writes.concat())
                .unwrap()
                .lines()
                .map(str::to_owned)
                .collect()
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.reads.pop_front() {
                None => Ok(0),
                Some(None) => Err(ErrorKind::TimedOut.into()),
                Some(Some(chunk)) => {
                    buf[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
            }
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let written = self.writes.iter().map(Vec::len).sum::<usize>();
            if written >= self.fail_after {
                self.refused += 1;
                return Err(ErrorKind::BrokenPipe.into());
            }
            self.calls += 1;
            if self.interrupt && self.calls % 2 == 1 {
                return Err(ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.write_cap).min(self.fail_after - written);
            self.writes.push(buf[..n].to_vec());
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn edge_case_table_holds_through_the_blocking_driver() {
        let max_line = 32;
        for case in edge_cases(max_line) {
            let mut stream = Script::new(case.chunks.iter().cloned().map(Some));
            serve(&mut stream, max_line, &Upper::default()).unwrap();
            let got = stream.lines();
            assert_eq!(got.len(), case.want.len(), "{}: {got:?}", case.name);
            for (got, want) in got.iter().zip(&case.want) {
                match want {
                    Expect::Line(text) => assert_eq!(*got, text.to_uppercase(), "{}", case.name),
                    Expect::Oversized => {
                        assert!(got.starts_with("oversized:"), "{}: {got}", case.name);
                    }
                }
            }
        }
    }

    #[test]
    fn one_write_per_read_in_order_across_lines_that_wait() {
        let big = "b".repeat(8 * 1024);
        let mut stream = Script::new([
            Some(b"one\nwait-a\ntwo\nwait-b\nwait-c\nthree\n".to_vec()),
            Some(format!("small\n{big}\nafter\n").into_bytes()),
        ]);
        serve(&mut stream, 16 * 1024, &Upper::default()).unwrap();
        // Each read's responses leave in one write, the lines that
        // wait answered in their wire position.
        assert_eq!(stream.writes.len(), 2);
        assert_eq!(
            stream.writes[0],
            b"ONE\nwait-a\nTWO\nwait-b\nwait-c\nTHREE\n"
        );
        assert_eq!(stream.lines()[7], big.to_uppercase());
        assert_eq!(stream.lines()[8], "AFTER");
    }

    #[test]
    fn a_read_timeout_keeps_the_partial_line_and_stop_ends_the_stream() {
        let handler = Upper::default();
        let mut stream = Script::new([
            Some(b"pi".to_vec()),
            None,
            Some(b"ng\nstop\nnever\n".to_vec()),
            Some(b"unread\n".to_vec()),
        ]);
        serve(&mut stream, 64, &handler).unwrap();
        // The ack was written; nothing after the request was answered
        // or even read.
        assert_eq!(stream.lines(), ["PING", "stop"]);
        assert!(handler.stopped.load(Ordering::SeqCst));
        assert_eq!(stream.reads.len(), 1);
    }

    /// The bytes a clean stream gets for `reads`, and how many `write`
    /// calls carried them.
    fn clean_run(reads: &[&str]) -> (Vec<u8>, usize) {
        let mut stream = Script::new(reads.iter().map(|r| Some(r.as_bytes().to_vec())));
        serve(&mut stream, 1024, &Upper::default()).unwrap();
        (stream.writes.concat(), stream.writes.len())
    }

    /// A long reply spills piece by piece before `answer` returns, and
    /// short writes and `Interrupted` change none of its bytes.
    #[test]
    fn short_writes_and_interrupts_spill_the_same_bytes() {
        let reads = ["one\nbig:4\ntwo\n", "big:1\nthree\n"];
        let (want, writes) = clean_run(&reads);
        // First read: "ONE", each of four pieces, the rest; second read:
        // the piece, the rest.
        assert_eq!(writes, 8);
        assert_eq!(want.len(), 5 * SPILL_BYTES + 16);
        let mut stream = Script::new(reads.iter().map(|r| Some(r.as_bytes().to_vec())));
        stream.write_cap = 1000;
        stream.interrupt = true;
        serve(&mut stream, 1024, &Upper::default()).unwrap();
        assert_eq!(stream.writes.concat(), want);
    }

    /// A peer gone mid-reply: `serve` returns the write's error, the
    /// stream holds a prefix of the clean run's bytes, the renderer
    /// stopped at the failed piece, and nothing was written after it.
    #[test]
    fn a_broken_pipe_mid_reply_returns_the_error_after_a_prefix() {
        let reads = ["one\nbig:6\ntwo\n", "three\n"];
        let (want, _) = clean_run(&reads);
        for fail_after in [0, 3, 2 * SPILL_BYTES + 100, 6 * SPILL_BYTES + 6] {
            let handler = Upper::default();
            let mut stream = Script::new(reads.iter().map(|r| Some(r.as_bytes().to_vec())));
            stream.fail_after = fail_after;
            let err = serve(&mut stream, 1024, &handler).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::BrokenPipe, "{fail_after}");
            let got = stream.writes.concat();
            assert_eq!(got, want[..fail_after], "{fail_after}");
            assert_eq!(stream.refused, 1, "{fail_after}: a write after the error");
            let taken = (fail_after.saturating_sub(4) / SPILL_BYTES).min(6);
            assert_eq!(handler.pieces.load(Ordering::SeqCst), taken, "{fail_after}");
        }
    }
}
