//! The accept-error policy both drivers follow: the blocking driver's
//! accept loop sleeps it out, the reactor takes its listener out of the
//! interest set for the back-off instead (its loop may not sleep) and
//! puts it back on the first wakeup after the back-off, so within one
//! poll timeout. The pause matters most to the reactor: its listener is
//! level-triggered, so an `EMFILE` that lasts until a descriptor frees
//! would otherwise wake every `epoll_wait` at once, thousands of times a
//! second. `tests/accept_exhaustion.rs` fills a child process's
//! descriptor table on each backend and holds the reactor to a few
//! wakeups over the same window.

use std::io::ErrorKind;
use std::time::Duration;

/// How long accepting pauses after an error counted by
/// [`AcceptRetry::CountAndBackOff`], so a persistent failure (`EMFILE`
/// until some connection closes) cannot spin the accepting thread.
pub const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// What an accepting driver does after a failed `accept`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptRetry {
    /// Nothing was waiting (`WouldBlock`): accept again once the
    /// listener is readable.
    Poll,
    /// A signal interrupted the call: retry at once.
    Now,
    /// Anything else — the would-be peer is already gone
    /// (`ECONNABORTED`), the process is out of descriptors (`EMFILE`),
    /// ... — is counted and retried after [`ACCEPT_BACKOFF`].
    CountAndBackOff,
}

/// The whole accept-error policy. No accept error is fatal: every one
/// of them concerns the connection that did not happen, not the
/// listener, and a daemon that silently stops accepting while it keeps
/// ticking is worse than one that retries.
#[must_use]
pub fn after_accept_error(kind: ErrorKind) -> AcceptRetry {
    match kind {
        ErrorKind::WouldBlock => AcceptRetry::Poll,
        ErrorKind::Interrupted => AcceptRetry::Now,
        _ => AcceptRetry::CountAndBackOff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: the blocking accept loop used to `break` on any
    /// accept error, so one transient failure ended accepting for good
    /// while the daemon kept ticking. Every kind now maps to a retry.
    #[test]
    fn no_accept_error_ends_accepting() {
        assert_eq!(after_accept_error(ErrorKind::WouldBlock), AcceptRetry::Poll);
        assert_eq!(after_accept_error(ErrorKind::Interrupted), AcceptRetry::Now);
        const ECONNABORTED: i32 = 103;
        const EMFILE: i32 = 24;
        const ENFILE: i32 = 23;
        const ENOMEM: i32 = 12;
        let transient = [ECONNABORTED, EMFILE, ENFILE, ENOMEM]
            .map(|errno| std::io::Error::from_raw_os_error(errno).kind());
        assert_eq!(transient[0], ErrorKind::ConnectionAborted);
        for kind in transient.into_iter().chain([
            ErrorKind::ConnectionReset,
            ErrorKind::PermissionDenied,
            ErrorKind::TimedOut,
            ErrorKind::Other,
        ]) {
            assert_eq!(
                after_accept_error(kind),
                AcceptRetry::CountAndBackOff,
                "{kind:?} must be counted and retried"
            );
        }
    }
}
