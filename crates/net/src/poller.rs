//! Safe wrapper over the epoll fd: register, re-arm, wait.

use crate::sys;
use std::io;
use std::os::fd::{AsRawFd, OwnedFd};

/// Interest set for one registered fd; the default is none (the fd
/// stays registered and wakes nobody).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Wake on readable data (or peer close).
    pub readable: bool,
    /// Wake when the send buffer drains.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    fn bits(self) -> u32 {
        let mut bits = 0;
        if self.readable {
            bits |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if self.writable {
            bits |= sys::EPOLLOUT;
        }
        bits
    }
}

/// One delivered readiness event, decoded from the kernel bitmask.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Data (or a pending close) is readable.
    pub readable: bool,
    /// The send buffer has room again.
    pub writable: bool,
    /// Error or hangup: drain what is readable, then close.
    pub hangup: bool,
}

/// An epoll instance. Dropping it closes the epoll fd (registered fds
/// are untouched — their owners close them).
#[derive(Debug)]
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// A fresh epoll instance.
    ///
    /// # Errors
    /// The OS error from `epoll_create1`.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            epfd: sys::epoll_create()?,
        })
    }

    /// Register `fd` under `token`.
    ///
    /// # Errors
    /// The OS error from `epoll_ctl`.
    pub fn add(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_add(self.epfd.as_raw_fd(), fd, interest.bits(), token)
    }

    /// Change the interest set of an already-registered `fd`.
    ///
    /// # Errors
    /// The OS error from `epoll_ctl`.
    pub fn modify(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_mod(self.epfd.as_raw_fd(), fd, interest.bits(), token)
    }

    /// Deregister `fd`.
    ///
    /// # Errors
    /// The OS error from `epoll_ctl`.
    pub fn remove(&self, fd: i32) -> io::Result<()> {
        sys::epoll_del(self.epfd.as_raw_fd(), fd)
    }

    /// Wait up to `timeout_ms` and append decoded events to `out`
    /// (cleared first). Returns the number of events.
    ///
    /// # Errors
    /// The OS error from `epoll_wait` (`EINTR` is swallowed as zero).
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        const MAX_EVENTS: usize = 256;
        out.clear();
        let mut raw = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let n = sys::wait(self.epfd.as_raw_fd(), &mut raw, timeout_ms)?;
        for ev in raw.iter().take(n) {
            // Copy out of the (possibly packed) struct before use.
            let bits = { ev.events };
            let token = { ev.data };
            out.push(Event {
                token,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::unix::net::UnixStream;

    #[test]
    fn poller_reports_readable_after_a_write() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(b.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0, "idle socket");

        a.write_all(b"hello\n").unwrap();
        assert_eq!(poller.wait(&mut events, 1000).unwrap(), 1);
        let ev = events.first().copied().unwrap();
        assert_eq!(ev.token, 7);
        assert!(ev.readable && !ev.hangup);

        poller.remove(b.as_raw_fd()).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0, "deregistered");
    }

    #[test]
    fn poller_reports_writable_when_armed() {
        let (_a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        let both = Interest {
            readable: true,
            writable: true,
        };
        poller.add(b.as_raw_fd(), 1, both).unwrap();
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, 1000).unwrap(), 1);
        assert!(events.first().is_some_and(|e| e.writable));
    }
}
