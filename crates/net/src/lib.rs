//! `dvfs-net` — a zero-dependency wire layer for the DVFS scheduler
//! service: NDJSON framing, one [`Handler`] seam, and two drivers of
//! it.
//!
//! A thread per connection costs a stack per client; at tens of
//! thousands of mostly-idle connections that is the dominant memory
//! bill before the scheduler's decision path even runs. So the default
//! driver is evented, and the blocking one is kept trivially small by
//! sharing everything but the I/O model:
//!
//! - [`sys`] — thin `extern "C"` bindings for what `std` lacks:
//!   `epoll_create1`/`epoll_ctl`/`epoll_wait`. Sockets, reads, writes
//!   and closing are `std`'s. The only `unsafe` in the crate lives
//!   here.
//! - [`poller`] — a safe epoll wrapper ([`Poller`], [`Interest`],
//!   [`Event`]).
//! - [`framing`] — incremental NDJSON line splitting with an
//!   oversized-line guard ([`LineFramer`]): a core that cuts each read
//!   into handler batches of lines lent from the read buffer
//!   ([`Batch`]), its owning adapter ([`Frame`]), and the shared
//!   edge-case table ([`framing::edge_cases`]) both drivers are tested
//!   against.
//! - [`handler`] — the seam: [`Handler`] answers a batch of request
//!   lines straight into a connection's [`Output`], in one pass, told
//!   whether its caller may wait ([`Caller`]); when it may not, the
//!   pass stops before the first line that would block ([`Answered`]).
//! - [`conn`] — per-connection read framer + buffered write side with
//!   explicit backpressure over any `Read + Write + AsRawFd` stream
//!   ([`Connection`]).
//! - [`reactor`] — the event loop ([`Reactor`]: `new` takes its
//!   descriptors, `run` is the loop), with a private slow lane for the
//!   lines its loop may not wait on; its module doc has the shape of a
//!   wakeup and the rules for deferred work.
//! - [`blocking`] — the blocking driver ([`blocking::serve`]): one
//!   `Read + Write` stream served on the calling thread, one write per
//!   read bar the pieces of a long reply, which spill as rendered.
//! - [`accept`] — the accept-error policy both drivers' accept paths
//!   follow ([`accept::after_accept_error`]).
//!
//! The crate knows nothing about the wire protocol or the scheduler:
//! embedders supply a [`Handler`] for request lines and an
//! [`Observer`] for metrics. It deliberately has **no dependencies**
//! (workspace or external) so the layering invariant is structural.

#![cfg_attr(test, allow(clippy::disallowed_methods, reason = "tests may block"))]

pub mod accept;
pub mod blocking;
pub mod conn;
pub mod framing;
pub mod handler;
mod lane;
pub mod poller;
pub mod reactor;
#[expect(unsafe_code, reason = "the audited syscall boundary")]
pub mod sys;

pub use conn::Connection;
pub use framing::{Batch, Frame, LineFramer, DEFAULT_MAX_LINE};
pub use handler::{Answered, Caller, Handler, Output};
pub use poller::{Event, Interest, Poller};
pub use reactor::{Observer, Reactor, ReactorConfig};
