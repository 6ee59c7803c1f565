//! Thin libc FFI for what `std` lacks: epoll.
//! Sockets, their reads and writes, and closing descriptors are
//! `std`'s (`UnixStream`, `TcpStream`, `OwnedFd`).
//!
//! The workspace carries no external crates beyond its local shims, so
//! `dvfs-net` declares its own `extern "C"` bindings instead of pulling
//! in `libc`. Every raw call is wrapped in a safe function that maps
//! `-1` + `errno` onto [`std::io::Error`]; no other module in the crate
//! contains `unsafe`.
//!
//! Numeric constants are the Linux kernel ABI values (stable since
//! epoll landed in 2.5.x); `EpollEvent` is `repr(C, packed)` on x86_64
//! to match the kernel's struct layout there.

use std::io;
use std::os::fd::{FromRawFd, OwnedFd};

/// Readable readiness (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`) — always reported, never requested.
pub const EPOLLERR: u32 = 0x008;
/// Peer hangup (`EPOLLHUP`) — always reported, never requested.
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its writing half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;

/// One readiness record, kernel layout. On x86_64 the kernel packs the
/// struct (4-byte `events` directly followed by the 8-byte `data`
/// union); elsewhere it uses natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// Caller-chosen token, returned verbatim with each event.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// `epoll_create1(EPOLL_CLOEXEC)`; dropping the result closes it.
///
/// # Errors
/// The raw OS error when the kernel refuses (fd limit, ENOMEM).
pub fn epoll_create() -> io::Result<OwnedFd> {
    // SAFETY: `epoll_create1` takes no pointers; a refusal is -1, which
    // `cvt` maps before `from_raw_fd` could see it. A descriptor the
    // call returns is open and owned by nothing else, so the `OwnedFd`
    // is its one owner.
    unsafe { cvt(epoll_create1(EPOLL_CLOEXEC)).map(|fd| OwnedFd::from_raw_fd(fd)) }
}

fn epoll_op(epfd: i32, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
    let mut ev = EpollEvent {
        events,
        data: token,
    };
    // SAFETY: `ev` is a live, properly-initialized `EpollEvent` on
    // this stack frame for the duration of the call; the kernel only
    // reads through the pointer. Bad fds come back as -1/EBADF.
    cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
}

/// Register `fd` with interest `events`, tagging it with `token`.
///
/// # Errors
/// The raw OS error (e.g. `EEXIST` when already registered).
pub fn epoll_add(epfd: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
    epoll_op(epfd, EPOLL_CTL_ADD, fd, events, token)
}

/// Re-arm `fd` with a new interest set, keeping its `token`.
///
/// # Errors
/// The raw OS error (e.g. `ENOENT` when not registered).
pub fn epoll_mod(epfd: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
    epoll_op(epfd, EPOLL_CTL_MOD, fd, events, token)
}

/// Deregister `fd`. Harmless to skip before `close` — the kernel drops
/// the registration with the last fd reference — but explicit removal
/// keeps the interest list honest while the fd is still open elsewhere.
///
/// # Errors
/// The raw OS error.
pub fn epoll_del(epfd: i32, fd: i32) -> io::Result<()> {
    epoll_op(epfd, EPOLL_CTL_DEL, fd, 0, 0)
}

/// Block up to `timeout_ms` for readiness; fills `buf` from the front
/// and returns the number of records written. `EINTR` is reported as
/// zero events rather than an error.
///
/// # Errors
/// The raw OS error for anything other than `EINTR`.
pub fn wait(epfd: i32, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
    let cap = i32::try_from(buf.len()).unwrap_or(i32::MAX);
    // SAFETY: `buf.as_mut_ptr()` points at `buf.len()` writable
    // `EpollEvent` records and `cap` never exceeds that length, so the
    // kernel cannot write past the slice.
    let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), cap, timeout_ms) };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(usize::try_from(n).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_lifecycle_on_a_pipe_free_fd() {
        use std::os::fd::AsRawFd;
        let epfd = epoll_create().unwrap();
        let mut buf = [EpollEvent { events: 0, data: 0 }; 4];
        // Nothing registered: an immediate wait returns zero events.
        assert_eq!(wait(epfd.as_raw_fd(), &mut buf, 0).unwrap(), 0);
    }
}
