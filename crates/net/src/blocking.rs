//! The blocking driver: serve one stream on the calling thread.
//!
//! The blocking counterpart of the [`reactor`](crate::reactor): same
//! framer, same [`Handler`] — only the I/O model differs. There is no
//! event loop to keep responsive, so every batch is answered as a
//! caller that may wait, right here on the connection's own thread.

use crate::framing::{Batch, LineFramer};
use crate::handler::{push_line, recycle, Answered, Caller, Handler};
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
        framer.batches(buf.get(..n).unwrap_or(&[]), |batch| {
            match batch {
                Batch::Lines(lines) => {
                    stop = handler.answer(lines, received, &mut out, Caller::MayWait)
                        == Answered::Stop;
                }
                Batch::Oversized { len } => push_line(&mut out, &handler.oversized_line(len)),
            }
            !stop
        });
        // One write per read: every response the read drew leaves
        // together.
        stream.write_all(&out)?;
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
    use std::borrow::Cow;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Uppercases every line, but lowercases a "wait…" line, which an
    /// event loop would not have answered (this driver must never call
    /// as one), and a "stop" line, which raises the stop flag.
    #[derive(Default)]
    struct Upper {
        stopped: AtomicBool,
    }

    impl Handler for Upper {
        fn answer(
            &self,
            lines: &[Cow<'_, str>],
            _received: Instant,
            out: &mut Vec<u8>,
            caller: Caller,
        ) -> Answered {
            assert_eq!(caller, Caller::MayWait);
            for line in lines {
                if line.starts_with("wait") || *line == "stop" {
                    push_line(out, &line.to_lowercase());
                    if *line == "stop" {
                        self.stopped.store(true, Ordering::SeqCst);
                        return Answered::Stop;
                    }
                } else {
                    push_line(out, &line.to_uppercase());
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
    /// kept apart so a test can count them.
    struct Script {
        reads: VecDeque<Option<Vec<u8>>>,
        writes: Vec<Vec<u8>>,
    }

    impl Script {
        fn new(reads: impl IntoIterator<Item = Option<Vec<u8>>>) -> Script {
            Script {
                reads: reads.into_iter().collect(),
                writes: Vec::new(),
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
            self.writes.push(buf.to_vec());
            Ok(buf.len())
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
}
