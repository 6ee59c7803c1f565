//! The blocking driver: serve one stream on the calling thread.
//!
//! The portable counterpart of the [`reactor`](crate::reactor): same
//! framer, same batch splitter, same [`Handler`] — only the I/O model
//! differs. Every batch is answered inline (there is no event loop to
//! keep responsive, so [`Handler::is_fast`] is never asked).

use crate::framing::{split_batches, Frame, LineFramer};
use crate::handler::{answer_batch, Handler};
use std::io::{self, BufWriter, ErrorKind, Read, Write};
use std::time::Instant;

/// Serve `stream` until the peer closes it, a batch requests a stop
/// (acknowledged and flushed before [`Handler::stop`] runs), or
/// [`Handler::should_stop`] turns true. The stop flag is polled between
/// reads, so the caller should give the stream a read timeout:
/// `WouldBlock`/`TimedOut` reads are retried, keeping a part-read line.
///
/// # Errors
/// Hard read or write errors; the connection is finished either way.
pub fn serve<S: Read + Write>(
    stream: &mut S,
    max_line: usize,
    handler: &dyn Handler,
) -> io::Result<()> {
    let mut framer = LineFramer::new(max_line);
    let mut frames: Vec<Frame> = Vec::new();
    let mut buf = vec![0u8; 16 * 1024];
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
        framer.feed(buf.get(..n).unwrap_or(&[]), &mut frames);
        // One buffered flush per read: small acks leave together, a
        // multi-megabyte reply line passes through uncopied.
        let mut out = BufWriter::new(&mut *stream);
        let mut stop = false;
        let mut wrote = Ok(());
        split_batches(&mut frames, |batch| {
            let answer = answer_batch(handler, &batch, received);
            stop = answer.stop;
            wrote = answer.lines.iter().try_for_each(|l| writeln!(out, "{l}"));
            wrote.is_ok() && !stop
        });
        wrote?;
        out.flush()?;
        if stop {
            handler.stop();
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{edge_cases, Expect};
    use crate::handler::Answer;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Uppercases every line; a "stop" line requests a stop.
    #[derive(Default)]
    struct Upper {
        stopped: AtomicBool,
    }

    impl Handler for Upper {
        fn is_fast(&self, _lines: &[String]) -> bool {
            panic!("the blocking driver never classifies batches");
        }
        fn answer(&self, lines: &[String], _received: Instant) -> Answer {
            let mut answer = Answer::default();
            for line in lines {
                answer.lines.push(line.to_uppercase());
                if line == "stop" {
                    answer.stop = true;
                    break;
                }
            }
            answer
        }
        fn stop(&self) {
            self.stopped.store(true, Ordering::SeqCst);
        }
        fn oversized_line(&self, len: usize) -> String {
            format!("oversized:{len}")
        }
        fn shed_line(&self) -> String {
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
    fn one_write_per_read_and_big_lines_pass_straight_through() {
        const OUT_BUF: usize = 8 * 1024; // `BufWriter`'s default capacity
        let big = "b".repeat(OUT_BUF);
        let mut stream = Script::new([
            Some(b"one\ntwo\nthree\n".to_vec()),
            Some(format!("small\n{big}\nafter\n").into_bytes()),
        ]);
        serve(&mut stream, 2 * OUT_BUF, &Upper::default()).unwrap();
        assert_eq!(stream.writes[0], b"ONE\nTWO\nTHREE\n");
        // The second read: the buffered small reply is written out
        // before the big line so order holds, the big line itself is
        // not copied, and its newline leaves with what follows.
        let rest: Vec<usize> = stream.writes[1..].iter().map(Vec::len).collect();
        assert_eq!(rest, [6, OUT_BUF, 7]);
        assert_eq!(stream.lines()[4], big.to_uppercase());
        assert_eq!(stream.lines()[5], "AFTER");
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
        // The ack was written before `stop` ran; nothing after the
        // request was answered or even read.
        assert_eq!(stream.lines(), ["PING", "STOP"]);
        assert!(handler.stopped.load(Ordering::SeqCst));
        assert_eq!(stream.reads.len(), 1);
    }
}
