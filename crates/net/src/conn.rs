//! Per-connection state: a nonblocking stream, the read-side framer,
//! and a buffered write side with explicit backpressure.

use crate::framing::{Batch, LineFramer};
use crate::handler::recycle;
use crate::poller::Interest;
use std::io::{self, Read, Write};
use std::os::fd::AsRawFd;

/// Reads per readiness wake before yielding back to the poller, so one
/// firehose client cannot starve the rest (level-triggered epoll will
/// re-report the fd on the next wait).
const MAX_READS_PER_WAKE: usize = 16;

/// One accepted connection owned by the reactor, over any nonblocking
/// stream whose descriptor epoll can watch. Dropping it drops (and so
/// closes) the stream.
#[derive(Debug)]
pub struct Connection<S> {
    stream: S,
    framer: LineFramer,
    out: Vec<u8>,
    out_pos: usize,
    /// Close once the write buffer drains (peer sent EOF, or the
    /// server is shutting the connection down after a final response).
    pub closing: bool,
    /// What the fd is currently registered for — tracked so the
    /// reactor only re-registers on transitions.
    pub armed: Interest,
}

impl<S: Read + Write + AsRawFd> Connection<S> {
    /// Wrap an already-nonblocking stream.
    #[must_use]
    pub fn new(stream: S, max_line: usize) -> Connection<S> {
        Connection {
            stream,
            framer: LineFramer::new(max_line),
            out: Vec::new(),
            out_pos: 0,
            closing: false,
            armed: Interest::READ,
        }
    }

    /// The stream's descriptor.
    #[must_use]
    pub fn fd(&self) -> i32 {
        self.stream.as_raw_fd()
    }

    /// Read into `scratch` until the socket would block (bounded by
    /// `MAX_READS_PER_WAKE`), handing every batch the framer cuts from
    /// each read — its lines lent straight out of `scratch` — to
    /// `each`, together with this connection's output buffer to answer
    /// into. Once `each` has returned `false` the rest of that read is
    /// still cut and handed over, but nothing more is read (the bytes
    /// stay in the socket). Returns `true` when the peer has closed its
    /// end.
    ///
    /// # Errors
    /// Hard socket errors (connection reset, etc.); `WouldBlock` is the
    /// normal exit and is not an error.
    pub fn fill(
        &mut self,
        scratch: &mut [u8],
        mut each: impl FnMut(Batch<'_>, &mut Vec<u8>) -> bool,
    ) -> io::Result<bool> {
        let Connection {
            stream,
            framer,
            out,
            ..
        } = self;
        for _ in 0..MAX_READS_PER_WAKE {
            match stream.read(scratch) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    let mut keep_reading = true;
                    framer.batches(scratch.get(..n).unwrap_or(&[]), |batch| {
                        keep_reading &= each(batch, out);
                        true
                    });
                    if !keep_reading {
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// Queue already newline-terminated response bytes for writing. A
    /// large reply landing on an empty buffer is adopted, not copied.
    pub fn queue_bytes(&mut self, bytes: Vec<u8>) {
        if self.out.is_empty() {
            self.out = bytes;
        } else {
            self.out.extend_from_slice(&bytes);
        }
    }

    /// Write as much of the queued output as the socket accepts.
    /// Returns `true` when the buffer fully drained, `false` when the
    /// socket pushed back (`EPOLLOUT` should be armed).
    ///
    /// # Errors
    /// Hard socket errors; the connection should be closed.
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.out_pos < self.out.len() {
            let rest = self.out.get(self.out_pos..).unwrap_or(&[]);
            match self.stream.write(rest) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        recycle(&mut self.out);
        self.out_pos = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    #[test]
    fn fill_frames_and_flush_round_trip() {
        let (mut peer, local) = UnixStream::pair().unwrap();
        local.set_nonblocking(true).unwrap();
        let mut conn = Connection::new(local, 1024);

        peer.write_all(b"{\"cmd\":\"ping\"}\npartial").unwrap();
        let mut scratch = [0u8; 64];
        let eof = conn
            .fill(&mut scratch, |batch, out| {
                let Batch::Lines(lines) = batch else {
                    panic!("no oversized line was sent");
                };
                assert_eq!(lines, ["{\"cmd\":\"ping\"}"]);
                out.extend_from_slice(b"{\"ok\":true}\n");
                true
            })
            .unwrap();
        assert!(!eof);
        assert!(conn.framer.has_partial(), "`partial` is mid-line");
        assert!(conn.flush().unwrap());
        assert_eq!((conn.out.len() - conn.out_pos), 0);
        let mut buf = [0u8; 64];
        let n = peer.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"{\"ok\":true}\n");
    }

    #[test]
    fn fill_reports_eof() {
        let (peer, local) = UnixStream::pair().unwrap();
        local.set_nonblocking(true).unwrap();
        let mut conn = Connection::new(local, 1024);
        drop(peer);
        assert!(conn.fill(&mut [0u8; 64], |_, _| true).unwrap());
    }

    #[test]
    fn flush_backpressure_reports_partial_write() {
        let (peer, local) = UnixStream::pair().unwrap();
        local.set_nonblocking(true).unwrap();
        let fd = local.as_raw_fd();
        let mut conn = Connection::new(local, 1024);
        assert_eq!(conn.fd(), fd);
        // Queue far more than a socketpair buffer holds; with nobody
        // reading, flush must stop at WouldBlock with bytes pending.
        for _ in 0..64 {
            conn.queue_bytes(vec![b'x'; 64 * 1024]);
        }
        assert!(!conn.flush().unwrap());
        assert!((conn.out.len() - conn.out_pos) > 0);
        drop(peer);
    }
}
