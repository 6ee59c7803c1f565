//! The harness's own load generator: a line-oriented client over a
//! Unix socket, an open-loop driver (schedule-driven writer plus a
//! separate reader on one pipelined connection) and a closed-loop
//! driver (write a window, read its acks, repeat).
//!
//! `dvfs_serve::loadgen` cannot stand in for the open loop: its Poisson
//! mode blocks on every reply and times from the send, so a stalled
//! server slows the generator down and the queueing never shows.

use crate::inputs::BurstSchedule;
use crate::spans::SpanLog;
use crate::stats::WindowedSamples;
use dvfs_serve::protocol::{ErrorKind, Response};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long a reader waits for bytes before the run is declared hung.
const READ_TIMEOUT: Duration = Duration::from_secs(20);
const READ_CHUNK: usize = 64 * 1024;

/// What a submit was answered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ack {
    Ok,
    Shed,
    Error,
}

impl Ack {
    fn of(response: &Response) -> Ack {
        match response {
            Response::Ok(_) => Ack::Ok,
            Response::Err {
                kind: ErrorKind::Overloaded,
                ..
            } => Ack::Shed,
            Response::Err { .. } => Ack::Error,
        }
    }
}

/// Classify one response line. Success is recognised by its fixed
/// prefix so the generator spends no JSON parse on the common case.
pub fn classify(line: &[u8]) -> Ack {
    if line.starts_with(b"{\"ok\":true") {
        return Ack::Ok;
    }
    match std::str::from_utf8(line).map(Response::decode) {
        Ok(Ok(response)) => Ack::of(&response),
        _ => Ack::Error,
    }
}

/// The client's side of the books.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub errors: u64,
    /// Request bytes written and response bytes read, newlines included.
    pub sent_bytes: u64,
    pub ack_bytes: u64,
}

impl Tally {
    fn count_ack(&mut self, ack: Ack) {
        match ack {
            Ack::Ok => self.ok += 1,
            Ack::Shed => self.shed += 1,
            Ack::Error => self.errors += 1,
        }
    }

    /// Count one response line off the wire (`line` excludes its
    /// newline).
    pub fn count(&mut self, line: &[u8]) {
        self.count_ack(classify(line));
        self.ack_bytes += line.len() as u64 + 1;
    }

    /// Count one in-process response.
    pub fn count_response(&mut self, response: &Response) {
        self.count_ack(Ack::of(response));
    }

    pub fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.shed += other.shed;
        self.errors += other.errors;
        self.sent_bytes += other.sent_bytes;
        self.ack_bytes += other.ack_bytes;
    }
}

/// Incremental line splitter over a blocking socket. Every line is
/// handed out with the instant the `read` that completed it returned.
pub struct LineReader {
    stream: UnixStream,
    /// Where `read` lands before the bytes join `buf`.
    chunk: Box<[u8]>,
    buf: Vec<u8>,
    /// Start of the first unconsumed byte.
    head: usize,
    /// Bytes before this offset hold no newline (so a multi-megabyte
    /// line is scanned once, not once per chunk).
    scanned: usize,
    last_fill: Instant,
}

impl LineReader {
    fn new(stream: UnixStream) -> Self {
        LineReader {
            stream,
            chunk: vec![0; READ_CHUNK].into_boxed_slice(),
            buf: Vec::with_capacity(READ_CHUNK),
            head: 0,
            scanned: 0,
            last_fill: Instant::now(),
        }
    }

    fn pop_line(&mut self) -> Option<(usize, usize)> {
        let rel = self.buf[self.scanned..].iter().position(|&b| b == b'\n');
        match rel {
            Some(rel) => {
                let (start, end) = (self.head, self.scanned + rel);
                self.head = end + 1;
                self.scanned = self.head;
                Some((start, end))
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }

    fn fill(&mut self) -> std::io::Result<()> {
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
            self.scanned = 0;
        } else if self.head >= READ_CHUNK {
            self.buf.drain(..self.head);
            self.scanned -= self.head;
            self.head = 0;
        }
        let n = loop {
            match self.stream.read(&mut self.chunk[..]) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                other => break other?,
            }
        };
        self.last_fill = Instant::now();
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&self.chunk[..n]);
        Ok(())
    }

    /// Read exactly `n` lines, calling `f(stamp, line)` for each, where
    /// `stamp` is when the bytes that completed the line came off the
    /// socket.
    pub fn read_lines(
        &mut self,
        n: usize,
        mut f: impl FnMut(Instant, &[u8]),
    ) -> std::io::Result<()> {
        let mut seen = 0;
        while seen < n {
            match self.pop_line() {
                Some((start, end)) => {
                    f(self.last_fill, &self.buf[start..end]);
                    seen += 1;
                }
                None => self.fill()?,
            }
        }
        Ok(())
    }
}

/// One NDJSON connection: a write half and a line-reading half that
/// can be driven from two threads at once.
pub struct Client {
    pub writer: UnixStream,
    pub reader: LineReader,
}

impl Client {
    pub fn connect(path: &Path) -> std::io::Result<Self> {
        let writer = UnixStream::connect(path)?;
        let read_half = writer.try_clone()?;
        read_half.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Client {
            writer,
            reader: LineReader::new(read_half),
        })
    }

    /// One control request (`stats`, `health`, `drain`, `ping`, ...):
    /// write the line, read and decode the one-line reply.
    pub fn request(&mut self, cmd: &str) -> std::io::Result<Response> {
        let mut decoded = Err("no reply".to_string());
        self.request_raw(cmd, |line| {
            decoded = std::str::from_utf8(line)
                .map_err(|e| e.to_string())
                .and_then(Response::decode);
        })?;
        decoded.map_err(std::io::Error::other)
    }

    /// Like [`Client::request`], handing the raw reply line to `f`
    /// instead of decoding it (a `trace_stream` reply is tens of
    /// megabytes; its caller scans it in place).
    pub fn request_raw(&mut self, cmd: &str, mut f: impl FnMut(&[u8])) -> std::io::Result<()> {
        self.writer
            .write_all(dvfs_serve::protocol::encode_command(cmd).as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.reader.read_lines(1, |_, line| f(line))
    }
}

pub fn nanos_since(t0: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

/// Raw timings of one open-loop phase; the caller turns them into
/// latencies from the due times, lateness, and spans.
pub struct OpenLoopRun {
    pub tally: Tally,
    /// Per burst: when its write began and ended (ns since `t0`).
    pub writes_ns: Vec<(u64, u64)>,
    /// Per ack, in request order: when it was read (ns since `t0`).
    pub acks_ns: Vec<u64>,
}

/// Drive `sched` against the server: the writer sleeps until each
/// burst's due time and writes it whole; the reader, on its own thread,
/// stamps every ack as it arrives. Neither waits for the other, so a
/// slow server builds a queue instead of slowing the generator.
/// `pool` is cycled; every payload must hold exactly `sched.burst`
/// lines.
pub fn open_loop(
    client: &mut Client,
    sched: &BurstSchedule,
    pool: &[Vec<u8>],
    t0: Instant,
) -> std::io::Result<OpenLoopRun> {
    let total = sched.total_submits();
    let Client { writer, reader } = client;
    let (writes_ns, read) = std::thread::scope(|scope| {
        let reading = scope.spawn(move || {
            let mut tally = Tally::default();
            let mut acks_ns = Vec::with_capacity(total);
            reader
                .read_lines(total, |stamp, line| {
                    tally.count(line);
                    acks_ns.push(nanos_since(t0, stamp));
                })
                .map(|()| (tally, acks_ns))
        });
        let mut writes_ns = Vec::with_capacity(sched.bursts);
        let mut sent_bytes = 0u64;
        let mut written = Ok(());
        for (b, payload) in (0..sched.bursts).zip(pool.iter().cycle()) {
            let due = t0 + Duration::from_nanos(sched.due_ns(b));
            let wait = due.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            let start = Instant::now();
            written = (&*writer).write_all(payload);
            if written.is_err() {
                break;
            }
            writes_ns.push((nanos_since(t0, start), nanos_since(t0, Instant::now())));
            sent_bytes += payload.len() as u64;
        }
        if written.is_err() {
            // The reader would otherwise wait out its timeout for acks
            // that were never requested.
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        let read = reading.join().expect("open-loop reader thread panicked");
        (written.map(|()| (writes_ns, sent_bytes)), read)
    });
    let (writes_ns, sent_bytes) = writes_ns?;
    let (mut tally, acks_ns) = read?;
    tally.sent = total as u64;
    tally.sent_bytes = sent_bytes;
    Ok(OpenLoopRun {
        tally,
        writes_ns,
        acks_ns,
    })
}

/// What one closed-loop client measured.
pub struct ClosedLoopRun {
    pub tally: Tally,
    /// Per ack: window write start until the ack was read.
    pub ack_ns: WindowedSamples,
    pub spans: SpanLog,
}

/// Where a closed-loop phase sits in time and which of its windows
/// record spans.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub t0: Instant,
    pub length: Duration,
    pub windows: usize,
    pub trace: bool,
}

impl Phase {
    pub fn window_of(&self, t: Instant) -> usize {
        let span = self.length.as_nanos().max(1);
        let at = t.saturating_duration_since(self.t0).as_nanos();
        usize::try_from(at * self.windows as u128 / span).unwrap_or(usize::MAX)
    }

    /// A traced run records spans in the even windows only, so the odd
    /// ones measure the same server without them.
    pub fn traced(&self, window: usize) -> bool {
        self.trace && window.is_multiple_of(2)
    }
}

/// One closed-loop client: write a payload of `per_round` submits, read
/// its `per_round` acks, repeat until the phase is over. `group_base`
/// keeps span group ids of different clients apart.
pub fn closed_loop(
    client: &mut Client,
    pool: &[Vec<u8>],
    per_round: usize,
    phase: Phase,
    group_base: u64,
) -> std::io::Result<ClosedLoopRun> {
    let mut run = ClosedLoopRun {
        tally: Tally::default(),
        ack_ns: WindowedSamples::new(phase.windows),
        spans: SpanLog::new(false),
    };
    let deadline = phase.t0 + phase.length;
    for (round, payload) in (group_base..).zip(pool.iter().cycle()) {
        let start = Instant::now();
        if start >= deadline {
            break;
        }
        let window = phase.window_of(start);
        client.writer.write_all(payload)?;
        let written = Instant::now();
        run.tally.sent += per_round as u64;
        run.tally.sent_bytes += payload.len() as u64;
        let mut last = written;
        let (tally, samples) = (&mut run.tally, &mut run.ack_ns);
        client.reader.read_lines(per_round, |stamp, line| {
            tally.count(line);
            samples.push(window, nanos_since(start, stamp));
            last = stamp;
        })?;
        run.spans.set_enabled(phase.traced(window));
        let at = |t| nanos_since(phase.t0, t);
        let parent = run.spans.open("window", at(start), None, round);
        run.spans
            .leaf("write", at(start), at(written), parent, round);
        run.spans
            .leaf("ack_wait", at(written), at(last), parent, round);
        run.spans.close(parent, at(last));
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_tells_ok_shed_and_error_apart() {
        assert_eq!(
            classify(br#"{"ok":true,"id":3,"depth":1,"shard":0}"#),
            Ack::Ok
        );
        assert_eq!(
            classify(br#"{"ok":false,"kind":"overloaded","error":"queue full"}"#),
            Ack::Shed
        );
        assert_eq!(
            classify(br#"{"ok":false,"kind":"bad_request","error":"nope"}"#),
            Ack::Error
        );
        assert_eq!(classify(b"garbage"), Ack::Error);
    }

    #[test]
    fn line_reader_splits_across_reads_and_stamps_lines() {
        let (mut tx, rx) = UnixStream::pair().unwrap();
        let mut reader = LineReader::new(rx);
        tx.write_all(b"one\ntw").unwrap();
        let mut got = Vec::new();
        reader.read_lines(1, |_, l| got.push(l.to_vec())).unwrap();
        tx.write_all(b"o\nthree\n").unwrap();
        reader.read_lines(2, |_, l| got.push(l.to_vec())).unwrap();
        assert_eq!(
            got,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        drop(tx);
        assert!(reader.read_lines(1, |_, _| {}).is_err(), "EOF is an error");
    }

    #[test]
    fn phase_windows_and_traced_windows() {
        let t0 = Instant::now();
        let phase = Phase {
            t0,
            length: Duration::from_secs(15),
            windows: 5,
            trace: true,
        };
        assert_eq!(phase.window_of(t0), 0);
        assert_eq!(phase.window_of(t0 + Duration::from_millis(2_999)), 0);
        assert_eq!(phase.window_of(t0 + Duration::from_secs(3)), 1);
        assert_eq!(phase.window_of(t0 + Duration::from_secs(14)), 4);
        assert!(phase.traced(0) && !phase.traced(1) && phase.traced(4));
        assert!(!Phase {
            trace: false,
            ..phase
        }
        .traced(0));
    }
}
