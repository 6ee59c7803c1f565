//! The wire client: one NDJSON [`Connection`], and [`replay`], which
//! submits a recorded task trace (e.g. a Judgegirl trace from
//! `dvfs-workloads`) with its explicit ids and arrivals, then `drain`s
//! the round. Against a replay-mode server the drain totals equal an
//! in-process LMC run over the same trace.

use crate::protocol::{encode_command, encode_submit, ErrorKind, Response};
use crate::server::Endpoint;
use dvfs_model::Task;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

/// One NDJSON connection to the server.
pub struct Connection {
    writer: BufWriter<Box<dyn Write + Send>>,
    reader: BufReader<Box<dyn std::io::Read + Send>>,
}

impl Connection {
    /// Connect to `endpoint`.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn open(endpoint: &Endpoint) -> std::io::Result<Self> {
        let (reader, writer): (Box<dyn std::io::Read + Send>, Box<dyn Write + Send>) =
            match endpoint {
                Endpoint::Unix(path) => {
                    let s = UnixStream::connect(path)?;
                    (Box::new(s.try_clone()?), Box::new(s))
                }
                Endpoint::Tcp(addr) => {
                    let s = TcpStream::connect(addr)?;
                    (Box::new(s.try_clone()?), Box::new(s))
                }
            };
        Ok(Connection {
            writer: BufWriter::new(writer),
            reader: BufReader::new(reader),
        })
    }

    /// Send one request line and read the response line.
    ///
    /// # Errors
    /// I/O failures, or a response that fails to decode.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<Response> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::decode(reply.trim()).map_err(std::io::Error::other)
    }
}

/// What a [`replay`] saw: the client's books, and the server's reply to
/// the closing `drain`.
#[derive(Debug)]
pub struct Replayed {
    /// Submissions sent.
    pub sent: u64,
    /// Submissions acknowledged as admitted.
    pub admitted: u64,
    /// Submissions shed by admission control (`overloaded`).
    pub shed: u64,
    /// Other error responses.
    pub errors: u64,
    /// The `drain` reply: `completed`, `total_cost`,
    /// `active_energy_joules`, `total_turnaround_s`, `makespan_s`,
    /// `shards`, `shard_reports`.
    pub drain: Response,
}

/// Submit `trace` in order over one connection to `endpoint`, each task
/// with its explicit id and arrival, then send one `drain`.
///
/// # Errors
/// Connection and protocol failures, and a `drain` the server refuses;
/// shed or rejected submissions are counted, not fatal.
pub fn replay(endpoint: &Endpoint, trace: &[Task]) -> std::io::Result<Replayed> {
    let mut conn = Connection::open(endpoint)?;
    let (mut admitted, mut shed, mut errors) = (0, 0, 0);
    for t in trace {
        let line = encode_submit(Some(t.id.0), t.cycles, t.class, Some(t.arrival));
        match conn.round_trip(&line)? {
            Response::Ok(_) => admitted += 1,
            Response::Err {
                kind: ErrorKind::Overloaded,
                ..
            } => shed += 1,
            Response::Err { .. } => errors += 1,
        }
    }
    let drain = conn.round_trip(&encode_command("drain"))?;
    if let Response::Err { message, .. } = &drain {
        return Err(std::io::Error::other(format!("drain failed: {message}")));
    }
    Ok(Replayed {
        sent: trace.len() as u64,
        admitted,
        shed,
        errors,
        drain,
    })
}
