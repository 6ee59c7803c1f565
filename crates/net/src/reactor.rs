//! The single-threaded mini-reactor: one epoll instance multiplexing a
//! listening socket, every accepted connection, and a socket-pair waker
//! for replies produced off the event loop.
//!
//! Protocol logic stays out of this crate: the embedding server
//! provides a [`Handler`] (answer a batch of request lines into the
//! connection's output bytes) and an [`Observer`] (metrics taps). The
//! reactor owns readiness, framing, batching, the connection budget,
//! `EPOLLOUT`-re-armed backpressure, and the slow lane. Sockets are
//! `std`'s: the embedder's accept closure hands over each connection as
//! a nonblocking `Read + Write + AsRawFd` stream.
//!
//! [`Reactor::new`] takes the reactor's descriptors — the epoll
//! instance, the waker pair — and registers the listener, so the
//! embedder sees a failure there on its own thread; [`Reactor::run`] is
//! the loop.
//!
//! Event-loop shape per wakeup:
//!
//! 1. `epoll_wait` (bounded timeout, so [`Handler::should_stop`] is
//!    polled even when idle),
//! 2. listener readable → accept until `EAGAIN`, shedding with a final
//!    response line once the budget is reached; after an accept error
//!    the (level-triggered) listener sits out [`ACCEPT_BACKOFF`] unarmed,
//! 3. connection readable → read into the loop's one scratch buffer,
//!    let the framer cut each read into batches of lines lent from it,
//!    answer each batch inline — straight into the connection's output
//!    buffer — up to the first line that would block, defer from there,
//!    flush,
//! 4. waker readable → apply the replies the slow lane delivered to
//!    the mailbox and flush them,
//! 5. flush stopped by `EPOLLOUT`? re-arm write interest and finish the
//!    flush on a later wakeup.
//!
//! A stop request is answered where it is read, the loop included, and
//! its connection owes nothing more, not even the rest of that read. On
//! a stop, the lane finishes its work, then every connection's queued
//! bytes are written out for up to `STOP_WRITE_BOUND` (5 s).
//!
//! ## Deferred work (internal)
//!
//! Called from the loop ([`Caller::EventLoop`]), [`Handler::answer`]
//! never blocks: it stops before the first line that would and says
//! where. The reactor ships an owned copy of the batch's lines from
//! there on — the one copy on this rare path — to its slow-lane thread
//! (`lane.rs`), which calls the same `answer` as a caller that may wait
//! and delivers the bytes to the socket-pair-woken mailbox. The reactor
//! keeps the connection open (even across peer EOF) until every
//! deferred reply has arrived. Tokens are generation-tagged, so a reply
//! that outlives its connection is dropped instead of landing on a
//! reused slot. While a connection has deferred work outstanding it is
//! not read: its next requests wait in the socket (and, past the socket
//! buffers, in the client), so no response can overtake the outstanding
//! ones and the lane never holds more than one read's worth per
//! connection. What that same read still held behind the deferral —
//! further batches past an oversized line — is deferred whole through
//! the same FIFO lane.

use crate::accept::{after_accept_error, AcceptRetry, ACCEPT_BACKOFF};
use crate::conn::Connection;
use crate::framing::Batch;
use crate::handler::{push_line, Answered, Caller, Handler};
use crate::lane::{Deferred, Lane};
use crate::poller::{Event, Interest, Poller};
use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Reactor tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ReactorConfig {
    /// Open-connection budget; accepts beyond it are shed with
    /// [`Handler::shed_line`] and closed immediately.
    pub max_connections: usize,
    /// Per-line byte budget for the framer.
    pub max_line_bytes: usize,
    /// `epoll_wait` timeout — the stop-flag polling cadence.
    pub poll_timeout_ms: i32,
}

/// How long a graceful stop goes on writing the replies already
/// queued; a peer that has not read its reply by then is cut off.
const STOP_WRITE_BOUND: Duration = Duration::from_secs(5);

/// Metrics taps: the embedding server exports what the loop reports.
pub trait Observer {
    /// A connection was accepted; `open` is the new open count.
    fn on_open(&mut self, open: usize);
    /// A connection closed; `open` is the new open count.
    fn on_close(&mut self, open: usize);
    /// An accept was shed by the connection budget.
    fn on_accept_shed(&mut self);
    /// An `accept` failed in a way that pauses accepting for
    /// [`ACCEPT_BACKOFF`] (see [`after_accept_error`]).
    fn on_accept_error(&mut self);
    /// One handler batch of `lines` complete request lines.
    fn on_batch_size(&mut self, lines: usize);
    /// One `epoll_wait` returned `events` readiness records.
    fn on_wakeup(&mut self, events: usize);
    /// Loop timing for one wakeup: `wait_s` seconds blocked in
    /// `epoll_wait`, `work_s` seconds servicing its events. Together
    /// they partition the event loop's wall time, so their ratio is
    /// the reactor's duty cycle.
    fn on_loop_times(&mut self, wait_s: f64, work_s: f64);
    /// A connection left `EPOLLOUT` backpressure (its flush completed,
    /// or it died mid-stall); `stall_s` is how long the write side was
    /// armed waiting for the peer to drain.
    fn on_backpressure_stall(&mut self, stall_s: f64);
}

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
/// Connection tokens start here; the low 32 bits carry `idx + 2`, the
/// high 32 bits the slot generation.
const TOKEN_BASE: u64 = 2;

fn conn_token(generation: u32, idx: usize) -> u64 {
    (u64::from(generation) << 32) | (idx as u64 + TOKEN_BASE)
}

/// Decode a connection token into `(generation, idx)`; `None` for the
/// listener/waker tokens (and anything else below the base).
fn token_parts(token: u64) -> Option<(u32, usize)> {
    let low = token & 0xFFFF_FFFF;
    let idx = low.checked_sub(TOKEN_BASE)?;
    Some(((token >> 32) as u32, idx as usize))
}

/// Thread-safe inbox for deferred replies. The slow lane delivers the
/// response bytes and writes a byte to the waker pair; the event loop
/// applies them on its next wakeup, and once more after the lane has
/// finished. [`Reactor::run`] joins the lane thread before the mailbox
/// can drop, so the lane never writes to a closed socket.
pub(crate) struct Mailbox {
    /// The lane's end of the waker pair: one byte per delivery.
    wake: UnixStream,
    /// The event loop's end, registered under `WAKER_TOKEN`.
    woken: UnixStream,
    queue: Mutex<Vec<(u64, Vec<u8>)>>,
}

impl Mailbox {
    /// Deliver the (newline-terminated) response bytes for one piece
    /// of deferred work on the connection identified by `token`. Empty
    /// `bytes` still complete it. If the connection is already gone —
    /// or its slot was reused — the reply is dropped when applied; the
    /// generation tag in the token makes that safe.
    pub(crate) fn deliver(&self, token: u64, bytes: Vec<u8>) {
        {
            #[expect(
                clippy::disallowed_methods,
                reason = "deliver runs on the slow-lane thread, never the event loop; the critical section is one push"
            )]
            let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.push((token, bytes));
        }
        // A full buffer (`WouldBlock`) still leaves `woken` readable,
        // so the wakeup is delivered either way.
        let _ = (&self.wake).write(&[1]);
    }

    fn take(&self) -> Vec<(u64, Vec<u8>)> {
        // Read the wake bytes up to `WouldBlock`, so that the next
        // delivery makes `woken` readable anew.
        let mut sink = [0u8; 256];
        while (&self.woken).read(&mut sink).is_ok_and(|n| n > 0) {}
        #[expect(
            clippy::disallowed_methods,
            reason = "leaf mailbox mutex held only to swap the Vec out; contenders are one-push slow-lane writers"
        )]
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *queue)
    }
}

struct Entry<S> {
    conn: Connection<S>,
    generation: u32,
    /// Deferred work whose replies have not yet been injected. The
    /// connection is not closed — even after peer EOF — while this is
    /// nonzero, so deferred responses can still be flushed.
    pending_deferred: usize,
    /// When this connection's write side armed `EPOLLOUT` (a flush
    /// stopped short on a full socket buffer). `None` while writes
    /// complete eagerly; the stall is reported to the [`Observer`] when
    /// the flush finally drains or the connection dies mid-stall.
    stalled_since: Option<Instant>,
}

struct Slab<S> {
    slots: Vec<Option<Entry<S>>>,
    /// Generation counter per slot, bumped on every reuse so stale
    /// tokens (deferred replies for a closed connection) cannot alias
    /// a new occupant.
    generations: Vec<u32>,
    free: Vec<usize>,
    open: usize,
}

impl<S: Read + Write + AsRawFd> Slab<S> {
    fn new() -> Slab<S> {
        Slab {
            slots: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            open: 0,
        }
    }

    fn insert(&mut self, conn: Connection<S>) -> (usize, u32) {
        self.open += 1;
        if let Some(idx) = self.free.pop() {
            if let (Some(slot), Some(generation)) =
                (self.slots.get_mut(idx), self.generations.get_mut(idx))
            {
                *generation = generation.wrapping_add(1);
                *slot = Some(Entry {
                    conn,
                    generation: *generation,
                    pending_deferred: 0,
                    stalled_since: None,
                });
                return (idx, *generation);
            }
        }
        self.slots.push(Some(Entry {
            conn,
            generation: 0,
            pending_deferred: 0,
            stalled_since: None,
        }));
        self.generations.push(0);
        (self.slots.len() - 1, 0)
    }

    fn get_mut(&mut self, idx: usize) -> Option<&mut Entry<S>> {
        self.slots.get_mut(idx).and_then(Option::as_mut)
    }

    fn remove(&mut self, idx: usize) -> Option<Entry<S>> {
        let entry = self.slots.get_mut(idx).and_then(Option::take);
        if entry.is_some() {
            self.open -= 1;
            self.free.push(idx);
        }
        entry
    }

    /// Flush a connection's queued output and reconcile its lifecycle:
    /// re-register it on transitions — readable unless it is closing or
    /// has deferred work outstanding (its next requests wait in the
    /// socket, so one connection never queues more than one read's
    /// worth on the lane), writable while a flush is stopped short —
    /// close once it is `closing` with nothing left to write and no
    /// deferred work outstanding, close immediately on hard write
    /// errors.
    fn settle(&mut self, reactor: &Reactor, idx: usize, observer: &mut dyn Observer) {
        let Some(entry) = self.get_mut(idx) else {
            return;
        };
        let token = conn_token(entry.generation, idx);
        let mut dead = false;

        match entry.conn.flush() {
            Ok(flushed) => {
                if !flushed {
                    entry.stalled_since.get_or_insert_with(Instant::now);
                } else if let Some(since) = entry.stalled_since.take() {
                    observer.on_backpressure_stall(since.elapsed().as_secs_f64());
                }
                let want = Interest {
                    readable: entry.pending_deferred == 0 && !entry.conn.closing,
                    writable: !flushed,
                };
                if flushed && entry.conn.closing && entry.pending_deferred == 0 {
                    dead = true;
                } else if want != entry.conn.armed {
                    entry.conn.armed = want;
                    dead = reactor.poller.modify(entry.conn.fd(), token, want).is_err();
                }
            }
            Err(_) => dead = true,
        }

        if dead {
            if let Some(entry) = self.remove(idx) {
                let _ = reactor.poller.remove(entry.conn.fd());
                // A connection that dies mid-stall still closes its
                // stall window (the flush arm above already took the
                // stamp when the flush completed before death).
                if let Some(since) = entry.stalled_since {
                    observer.on_backpressure_stall(since.elapsed().as_secs_f64());
                }
            }
            observer.on_close(self.open);
        }
    }

    /// Apply every reply delivered since the last wakeup: land its
    /// bytes on its connection (dropping replies whose connection or
    /// generation is gone), then flush and reconcile that connection.
    fn apply_replies(&mut self, reactor: &Reactor, observer: &mut dyn Observer) {
        for (token, bytes) in reactor.mailbox.take() {
            let Some((generation, idx)) = token_parts(token) else {
                continue;
            };
            {
                let Some(entry) = self.get_mut(idx) else {
                    continue; // connection died before its reply arrived
                };
                if entry.generation != generation {
                    continue; // slot reused; reply belongs to the old owner
                }
                // One delivery completes one piece of deferred work,
                // even when it carries no bytes.
                entry.pending_deferred = entry.pending_deferred.saturating_sub(1);
                entry.conn.queue_bytes(bytes);
            }
            self.settle(reactor, idx, observer);
        }
    }

    /// The graceful stop, once the lane has finished: the replies it
    /// delivered land on their connections first. Then, with the
    /// listener and the waker disarmed, every connection is closing and
    /// owes only its queued bytes: each closes once they are written
    /// (waiting on `EPOLLOUT`), and those left at `STOP_WRITE_BOUND`
    /// close with the slab.
    fn write_out(&mut self, reactor: &Reactor, observer: &mut dyn Observer) -> io::Result<()> {
        let poller = &reactor.poller;
        self.apply_replies(reactor, observer);
        let _ = reactor.arm_listener(Interest::default());
        let woken = reactor.mailbox.woken.as_raw_fd();
        let _ = poller.modify(woken, WAKER_TOKEN, Interest::default());
        let deadline = Instant::now() + STOP_WRITE_BOUND;
        let mut events = Vec::new();
        loop {
            for idx in 0..self.slots.len() {
                if let Some(entry) = self.get_mut(idx) {
                    entry.conn.closing = true;
                    entry.pending_deferred = 0;
                }
                self.settle(reactor, idx, observer);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if self.open == 0 || left.is_zero() {
                return Ok(());
            }
            poller.wait(&mut events, left.as_millis() as i32 + 1)?;
        }
    }
}

/// The reactor's descriptors, taken before its loop runs: the epoll
/// instance with the listener registered, and the waker pair its slow
/// lane wakes it through. Dropping it closes both.
pub struct Reactor {
    listener_fd: i32,
    poller: Poller,
    mailbox: Mailbox,
}

impl Reactor {
    /// Create the epoll instance and the waker pair, and register the
    /// bound, **nonblocking** `listener`, which must stay open until
    /// [`Reactor::run`] returns (an accept closure that owns it sees to
    /// that).
    ///
    /// # Errors
    /// The OS error from creating or registering a descriptor.
    pub fn new(listener: &impl AsRawFd) -> io::Result<Reactor> {
        let listener_fd = listener.as_raw_fd();
        let poller = Poller::new()?;
        poller.add(listener_fd, LISTENER_TOKEN, Interest::READ)?;
        let (wake, woken) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        woken.set_nonblocking(true)?;
        poller.add(woken.as_raw_fd(), WAKER_TOKEN, Interest::READ)?;
        let queue = Mutex::new(Vec::new());
        Ok(Reactor {
            listener_fd,
            poller,
            mailbox: Mailbox { wake, woken, queue },
        })
    }

    /// Run the event loop until [`Handler::should_stop`] returns
    /// `true`. `accept` takes one pending connection off the listener as
    /// a nonblocking stream (`WouldBlock` once none waits; other errors
    /// follow [`after_accept_error`]). Returns once the slow lane has
    /// finished the work already deferred to it and the replies queued
    /// are written out (or 5 s have passed).
    ///
    /// # Errors
    /// Only on a wait failure of the epoll instance itself;
    /// per-connection errors close that connection and keep the loop
    /// running.
    pub fn run<S, H>(
        self,
        mut accept: impl FnMut() -> io::Result<S>,
        cfg: &ReactorConfig,
        handler: &H,
        observer: &mut dyn Observer,
    ) -> io::Result<()>
    where
        S: Read + Write + AsRawFd,
        H: Handler + ?Sized,
    {
        // The scope joins the lane once the loop drops it (hanging up
        // its channel), so all the lane delivers precedes the write-out.
        let mut slab = Slab::new();
        std::thread::scope(|scope| {
            let event_loop = Loop {
                reactor: &self,
                cfg,
                lane: Lane::spawn(scope, handler, &self.mailbox),
                handler,
                stream: PhantomData,
            };
            event_loop.run(&mut slab, &mut accept, observer)
        })?;
        slab.write_out(&self, observer)
    }

    fn arm_listener(&self, interest: Interest) -> bool {
        let fd = self.listener_fd;
        self.poller.modify(fd, LISTENER_TOKEN, interest).is_ok()
    }
}

/// What every step of the event loop needs besides the slab of `S`
/// streams.
struct Loop<'a, H: Handler + ?Sized, S> {
    reactor: &'a Reactor,
    cfg: &'a ReactorConfig,
    lane: Lane,
    handler: &'a H,
    stream: PhantomData<S>,
}

impl<H: Handler + ?Sized, S: Read + Write + AsRawFd> Loop<'_, H, S> {
    fn run(
        &self,
        slab: &mut Slab<S>,
        accept: &mut dyn FnMut() -> io::Result<S>,
        observer: &mut dyn Observer,
    ) -> io::Result<()> {
        let reactor = self.reactor;
        let mut events: Vec<Event> = Vec::new();
        // The one read buffer every connection's lines are lent from.
        let mut scratch = vec![0u8; 16 * 1024];
        let mut rearm_at = None; // of a listener backing off

        loop {
            let wait_start = Instant::now();
            let n = reactor.poller.wait(&mut events, self.cfg.poll_timeout_ms)?;
            let woke = Instant::now();
            observer.on_wakeup(n);
            if self.handler.should_stop() {
                return Ok(());
            }
            if rearm_at.is_some_and(|at| at <= woke) && reactor.arm_listener(Interest::READ) {
                rearm_at = None;
            }
            // Tokens are stable across the iteration: epoll coalesces to
            // at most one event per fd per wait, and the generation tag
            // guards against a slot closed and reused within the same
            // batch.
            for i in 0..events.len() {
                let Some(&ev) = events.get(i) else { break };
                if ev.token == LISTENER_TOKEN {
                    if self.accept_ready(slab, accept, observer) {
                        rearm_at = Some(woke + ACCEPT_BACKOFF);
                    }
                } else if ev.token == WAKER_TOKEN {
                    slab.apply_replies(reactor, observer);
                } else {
                    self.service_connection(slab, ev, observer, &mut scratch);
                }
            }
            observer.on_loop_times(
                woke.duration_since(wait_start).as_secs_f64(),
                woke.elapsed().as_secs_f64(),
            );
            if self.handler.should_stop() {
                return Ok(());
            }
        }
    }

    /// Accept until the backlog is empty; `true` when an accept error
    /// took the listener out of the interest set to back off.
    fn accept_ready(
        &self,
        slab: &mut Slab<S>,
        accept: &mut dyn FnMut() -> io::Result<S>,
        observer: &mut dyn Observer,
    ) -> bool {
        loop {
            let mut stream = match accept() {
                Ok(stream) => stream,
                Err(e) => match after_accept_error(e.kind()) {
                    AcceptRetry::Poll => return false,
                    AcceptRetry::Now => continue,
                    AcceptRetry::CountAndBackOff => {
                        observer.on_accept_error();
                        return self.reactor.arm_listener(Interest::default());
                    }
                },
            };
            if slab.open >= self.cfg.max_connections {
                // Shed at the door: one explicit wire response, then
                // close (the stream drops). A fresh socket's send buffer
                // is empty, so the single nonblocking write virtually
                // always lands whole.
                let mut line = self
                    .handler
                    .shed_line(self.cfg.max_connections)
                    .into_bytes();
                line.push(b'\n');
                let _ = stream.write(&line);
                observer.on_accept_shed();
                continue;
            }
            let fd = stream.as_raw_fd();
            let (idx, generation) = slab.insert(Connection::new(stream, self.cfg.max_line_bytes));
            if self
                .reactor
                .poller
                .add(fd, conn_token(generation, idx), Interest::READ)
                .is_err()
            {
                let _ = slab.remove(idx);
                observer.on_close(slab.open);
                continue;
            }
            observer.on_open(slab.open);
        }
    }

    fn service_connection(
        &self,
        slab: &mut Slab<S>,
        ev: Event,
        observer: &mut dyn Observer,
        scratch: &mut [u8],
    ) {
        let Some((generation, idx)) = token_parts(ev.token) else {
            return;
        };
        {
            let Some(entry) = slab.get_mut(idx) else {
                return; // closed earlier this iteration
            };
            if entry.generation != generation {
                return; // stale event for a reused slot
            }
            if ev.readable || ev.hangup {
                // The reactor calls straight out of its read loop, so
                // "now" is the wire-receive stamp for every line read
                // on this wakeup.
                let received = Instant::now();
                let Entry {
                    conn,
                    pending_deferred,
                    ..
                } = entry;
                // Reading stops at the first deferral, and a readiness
                // event from before the fd was re-registered reads
                // nothing: what is behind deferred work waits in the
                // socket until its reply has landed. What is behind a
                // stop request owes nothing.
                let mut stopped = false;
                let eof = *pending_deferred == 0
                    && conn
                        .fill(scratch, |batch, out| {
                            stopped = stopped
                                || self.dispatch(
                                    batch,
                                    out,
                                    pending_deferred,
                                    ev.token,
                                    received,
                                    observer,
                                );
                            *pending_deferred == 0 && !stopped
                        })
                        .unwrap_or(true);
                if eof || ev.hangup || stopped {
                    // Drain-then-close: any complete lines above got
                    // their responses (deferred ones keep the connection
                    // open until they arrive); a mid-line fragment owes
                    // none.
                    entry.conn.closing = true;
                }
            }
        }
        slab.settle(self.reactor, idx, observer);
    }

    /// Answer one batch in its wire position: inline — into `out`, the
    /// connection's output buffer — up to the first line that would
    /// block, and from there (or whole, behind work already outstanding
    /// on this connection) through the slow lane. `true` when a line
    /// asked for a stop.
    fn dispatch(
        &self,
        batch: Batch<'_>,
        out: &mut Vec<u8>,
        pending_deferred: &mut usize,
        token: u64,
        received: Instant,
        observer: &mut dyn Observer,
    ) -> bool {
        let queued = *pending_deferred > 0;
        let work = match batch {
            Batch::Lines(lines) => {
                observer.on_batch_size(lines.len());
                let from = if queued {
                    0
                } else {
                    match self.handler.answer(lines, received, out, Caller::EventLoop) {
                        Answered::All => return false,
                        Answered::Stop => return true,
                        Answered::WouldBlock(k) => k,
                    }
                };
                let rest = lines.get(from..).unwrap_or(&[]).iter();
                Deferred::Lines(rest.map(|line| Cow::Owned(line.to_string())).collect())
            }
            Batch::Oversized { len } => {
                if !queued {
                    push_line(out, &self.handler.oversized_line(len));
                    return false;
                }
                Deferred::Oversized { len }
            }
        };
        match self.lane.defer(token, received, work) {
            Ok(()) => *pending_deferred += 1,
            // Lane thread gone (it panicked): answer here rather than
            // drop the work.
            Err(work) => return work.answer(self.handler, received, out),
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
    use std::os::fd::RawFd;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
    use std::sync::Arc;
    use std::time::Duration;

    /// Uppercases every line. Lines starting with "slow" or "hold"
    /// would block: the event loop is stopped before them, a caller that
    /// may wait gets them answered — a "hold" line only after the test
    /// releases one permit, so a test can race its reply against
    /// connection death, slot reuse, and other connections' traffic. A
    /// line ending in "stop" raises the stop flag, on whichever caller
    /// answers it. No helper threads: the reactor's own lane is the only
    /// caller that may wait.
    struct EchoUpper {
        stop: AtomicBool,
        permits: Mutex<Receiver<()>>,
        /// "hold" lines a caller that may wait has started on.
        held: AtomicUsize,
        /// Response lines written, by either caller.
        answered: AtomicUsize,
    }

    impl Handler for EchoUpper {
        fn answer(
            &self,
            lines: &[Cow<'_, str>],
            _received: Instant,
            out: &mut Vec<u8>,
            caller: Caller,
        ) -> Answered {
            for (k, line) in lines.iter().enumerate() {
                if line.starts_with("slow") || line.starts_with("hold") {
                    if caller == Caller::EventLoop {
                        return Answered::WouldBlock(k);
                    }
                    if line.starts_with("hold") {
                        self.held.fetch_add(1, Ordering::SeqCst);
                        let _ = self.permits.lock().unwrap().recv();
                    }
                }
                push_line(out, &line.to_uppercase());
                self.answered.fetch_add(1, Ordering::SeqCst);
                if line.ends_with("stop") {
                    self.stop.store(true, Ordering::SeqCst);
                    return Answered::Stop;
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
            self.stop.load(Ordering::SeqCst)
        }
    }

    #[derive(Default)]
    struct Counts {
        opens: usize,
        closes: usize,
        sheds: usize,
        accept_errors: usize,
        batches: Vec<usize>,
    }

    /// Shares its counts, so a test can look at them while the event
    /// loop runs.
    struct CountingObserver(Arc<Mutex<Counts>>);

    impl Observer for CountingObserver {
        fn on_open(&mut self, _open: usize) {
            self.0.lock().unwrap().opens += 1;
        }
        fn on_close(&mut self, _open: usize) {
            self.0.lock().unwrap().closes += 1;
        }
        fn on_accept_shed(&mut self) {
            self.0.lock().unwrap().sheds += 1;
        }
        fn on_batch_size(&mut self, lines: usize) {
            self.0.lock().unwrap().batches.push(lines);
        }
        fn on_accept_error(&mut self) {
            self.0.lock().unwrap().accept_errors += 1;
        }
        fn on_wakeup(&mut self, _events: usize) {}
        fn on_loop_times(&mut self, _wait_s: f64, _work_s: f64) {}
        fn on_backpressure_stall(&mut self, _stall_s: f64) {}
    }

    struct Rig {
        addr: SocketAddr,
        handler: Arc<EchoUpper>,
        /// One send lets one "hold" batch through.
        release: SyncSender<()>,
        counts: Arc<Mutex<Counts>>,
        thread: std::thread::JoinHandle<()>,
    }

    impl Rig {
        fn connect(&self) -> (TcpStream, BufReader<TcpStream>) {
            let sock = TcpStream::connect(self.addr).unwrap();
            let reader = BufReader::new(sock.try_clone().unwrap());
            (sock, reader)
        }

        fn wait_until(&self, what: &str, ready: impl Fn(&Rig) -> bool) {
            for _ in 0..1000 {
                if ready(self) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            panic!("timed out waiting for {what}");
        }

        fn wait_held(&self, n: usize) {
            self.wait_until("held batches", |r| {
                r.handler.held.load(Ordering::SeqCst) >= n
            });
        }

        /// Raise the stop flag, as an embedder does outside the wire.
        fn raise_stop(&self) {
            self.handler.stop.store(true, Ordering::SeqCst);
        }

        /// Stop the reactor (if a request has not already) and hand
        /// back what the observer counted.
        fn shut_down(self) -> Counts {
            self.raise_stop();
            self.thread.join().unwrap();
            std::mem::take(&mut *self.counts.lock().unwrap())
        }
    }

    /// Take one pending connection off `listener`, nonblocking.
    fn accept_nonblocking(listener: &TcpListener) -> io::Result<TcpStream> {
        let (stream, _) = listener.accept()?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    fn spawn_reactor(max_connections: usize) -> Rig {
        spawn_reactor_with(max_connections, accept_nonblocking)
    }

    /// A reactor whose connections come from `accept`.
    fn spawn_reactor_with<S: Read + Write + AsRawFd>(
        max_connections: usize,
        mut accept: impl FnMut(&TcpListener) -> io::Result<S> + Send + 'static,
    ) -> Rig {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let (release, permits) = sync_channel(16);
        let handler = Arc::new(EchoUpper {
            stop: AtomicBool::new(false),
            permits: Mutex::new(permits),
            held: AtomicUsize::new(0),
            answered: AtomicUsize::new(0),
        });
        let counts = Arc::new(Mutex::new(Counts::default()));
        let reactor = Reactor::new(&listener).unwrap();
        let thread = {
            let (handler, counts) = (Arc::clone(&handler), Arc::clone(&counts));
            std::thread::spawn(move || {
                let cfg = ReactorConfig {
                    max_connections,
                    max_line_bytes: 64,
                    poll_timeout_ms: 10,
                };
                let mut obs = CountingObserver(counts);
                reactor
                    .run(|| accept(&listener), &cfg, &*handler, &mut obs)
                    .unwrap();
            })
        };
        Rig {
            addr,
            handler,
            release,
            counts,
            thread,
        }
    }

    fn read_trimmed(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim().to_owned()
    }

    #[test]
    fn reactor_batches_pipelined_lines_and_preserves_order() {
        let rig = spawn_reactor(8);
        let (mut sock, mut reader) = rig.connect();
        sock.write_all(b"alpha\nbeta\ngamma\n").unwrap();
        let got: Vec<String> = (0..3).map(|_| read_trimmed(&mut reader)).collect();
        assert_eq!(got, ["ALPHA", "BETA", "GAMMA"]);
        let counts = rig.shut_down();
        // All three lines arrived in one readiness batch (loopback
        // coalesces the single write), so one batch of 3 — but a racy
        // kernel split is tolerated as long as order held above.
        assert_eq!(counts.batches.iter().sum::<usize>(), 3);
        assert_eq!(counts.opens, 1);
    }

    #[test]
    fn reactor_sheds_accepts_over_budget() {
        let rig = spawn_reactor(1);
        let (mut keep, mut reader) = rig.connect();
        keep.write_all(b"ping\n").unwrap();
        assert_eq!(read_trimmed(&mut reader), "PING");

        let (_shed, mut shed_reader) = rig.connect();
        assert_eq!(read_trimmed(&mut shed_reader), "shed");
        // The shed socket is closed right after the response.
        let mut rest = String::new();
        assert_eq!(shed_reader.read_line(&mut rest).unwrap(), 0);

        let counts = rig.shut_down();
        assert_eq!(counts.sheds, 1);
        assert_eq!(counts.opens, 1);
    }

    #[test]
    fn reactor_rejects_oversized_lines_and_recovers() {
        let rig = spawn_reactor(4);
        let (mut sock, mut reader) = rig.connect();
        sock.write_all(&[b'z'; 65]).unwrap();
        sock.write_all(b"\nping\n").unwrap();
        let line = read_trimmed(&mut reader);
        assert!(line.starts_with("oversized:"), "got {line:?}");
        assert_eq!(read_trimmed(&mut reader), "PING");
        rig.shut_down();
    }

    #[test]
    fn mid_line_disconnect_owes_no_response_and_keeps_serving() {
        let rig = spawn_reactor(4);
        {
            let (mut sock, _) = rig.connect();
            sock.write_all(b"half-a-lin").unwrap();
        } // dropped: mid-line disconnect
        let (mut sock, mut reader) = rig.connect();
        sock.write_all(b"still-alive\n").unwrap();
        assert_eq!(read_trimmed(&mut reader), "STILL-ALIVE");
        let counts = rig.shut_down();
        assert_eq!(counts.opens, 2);
        // The first (mid-line) disconnect was definitely processed
        // before the second connection's response round-tripped; the
        // second close may race the stop flag.
        assert!(counts.closes >= 1, "closes = {}", counts.closes);
    }

    /// A stop request is acknowledged before the loop exits — answered
    /// inline ("stop") or on the lane ("slow-stop") — and what follows
    /// it owes nothing: not the rest of its batch, nor the later
    /// batches of the same read (an oversized line cuts one), whether
    /// the loop or the lane would have answered them.
    #[test]
    fn stop_is_acked_before_the_loop_exits() {
        for request in ["stop", "slow-stop"] {
            let rig = spawn_reactor(4);
            let (mut sock, mut reader) = rig.connect();
            let mut script = format!("first\n{request}\nnever-answered\n").into_bytes();
            script.extend_from_slice(&[b'z'; 65]);
            script.extend_from_slice(b"\nnor-this\n");
            sock.write_all(&script).unwrap();
            assert_eq!(read_trimmed(&mut reader), "FIRST");
            assert_eq!(read_trimmed(&mut reader), request.to_uppercase());
            // The reactor stops on its own and closes the connection
            // without answering the trailing lines.
            let mut rest = String::new();
            assert_eq!(reader.read_to_string(&mut rest).unwrap(), 0, "{rest:?}");
            rig.thread.join().unwrap();
            assert_eq!(rig.handler.answered.load(Ordering::SeqCst), 2, "{request}");
        }
    }

    /// A stop waits on nothing the lane holds: a stop request on one
    /// connection is acknowledged while another connection's line is
    /// parked on the lane. And whichever way the stop comes — that
    /// request, or the embedder raising the flag — the lane's reply
    /// still reaches its connection before that connection closes.
    #[test]
    fn a_stop_passes_the_lane_and_the_lane_finishes_before_the_write_out() {
        for by_request in [true, false] {
            let rig = spawn_reactor(4);
            let (mut a, mut a_reader) = rig.connect();
            a.write_all(b"hold-a\n").unwrap();
            rig.wait_held(1);
            if by_request {
                let (mut b, mut b_reader) = rig.connect();
                b.write_all(b"stop\n").unwrap();
                b.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
                assert_eq!(read_trimmed(&mut b_reader), "STOP", "acked past the lane");
            } else {
                rig.raise_stop();
            }
            std::thread::sleep(Duration::from_millis(50)); // the loop sees the flag
            rig.release.send(()).unwrap();
            assert_eq!(
                read_trimmed(&mut a_reader),
                "HOLD-A",
                "by request: {by_request}"
            );
            let mut rest = String::new();
            assert_eq!(a_reader.read_to_string(&mut rest).unwrap(), 0, "{rest:?}");
            rig.thread.join().unwrap();
        }
    }

    /// The defer-from-line-k rule: a batch is answered inline up to its
    /// first line that would block — those responses leave at once —
    /// and that line plus everything behind it come back through the
    /// lane, still in request order. The loop's call leaves no mark of
    /// the line it stopped at: every line is answered exactly once.
    #[test]
    fn a_batch_is_answered_inline_up_to_its_first_would_block_line() {
        let rig = spawn_reactor(4);
        let (mut sock, mut reader) = rig.connect();
        sock.write_all(b"fast-1\nfast-2\nhold-3\nfast-4\nslow-5\nfast-6\n")
            .unwrap();
        // The inline part arrives while the lane is parked on line 3.
        assert_eq!(read_trimmed(&mut reader), "FAST-1");
        assert_eq!(read_trimmed(&mut reader), "FAST-2");
        rig.wait_held(1);
        sock.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        assert!(
            reader.fill_buf().is_err(),
            "a reply overtook the line that waits"
        );
        assert_eq!(rig.handler.answered.load(Ordering::SeqCst), 2);
        sock.set_read_timeout(None).unwrap();
        rig.release.send(()).unwrap();
        let got: Vec<String> = (0..4).map(|_| read_trimmed(&mut reader)).collect();
        assert_eq!(got, ["HOLD-3", "FAST-4", "SLOW-5", "FAST-6"]);
        assert_eq!(rig.handler.answered.load(Ordering::SeqCst), 6);
        rig.shut_down();
    }

    #[test]
    fn slow_batches_reply_through_the_lane_in_order() {
        let rig = spawn_reactor(4);
        let (mut sock, mut reader) = rig.connect();
        // One batch of two lines that would block, deferred from the
        // first:
        // replies come back through the mailbox, still in request order.
        sock.write_all(b"slow-one\nslow-two\n").unwrap();
        let got: Vec<String> = (0..2).map(|_| read_trimmed(&mut reader)).collect();
        assert_eq!(got, ["SLOW-ONE", "SLOW-TWO"]);
        // The connection is fully alive again: a fast inline line
        // round-trips.
        sock.write_all(b"after\n").unwrap();
        assert_eq!(read_trimmed(&mut reader), "AFTER");
        rig.shut_down();
    }

    /// While a connection has deferred work outstanding it is not read:
    /// what it sends meanwhile — fast lines and oversized ones alike —
    /// waits in the socket and is answered after it, in order, and
    /// nobody else waits. The same holds for what the deferring read
    /// itself still held: it queues behind on the lane.
    #[test]
    fn requests_behind_deferred_work_wait_their_turn_and_other_connections_do_not() {
        let rig = spawn_reactor(4);
        let (mut a, mut a_reader) = rig.connect();
        // One read: the held line, an oversized line, a fast line.
        let mut first = b"hold-a\n".to_vec();
        first.extend_from_slice(&[b'z'; 65]);
        first.extend_from_slice(b"\nsame-read\n");
        a.write_all(&first).unwrap();
        rig.wait_held(1);
        // More arrives while the lane thread is parked on A's line.
        a.write_all(b"fast-a\n").unwrap();
        a.write_all(&[b'z'; 65]).unwrap();
        a.write_all(b"\nlast-a\n").unwrap();

        // Connection B is answered inline, right past the parked lane.
        let (mut b, mut b_reader) = rig.connect();
        b.write_all(b"ping\n").unwrap();
        assert_eq!(read_trimmed(&mut b_reader), "PING");
        // ... while A has not been sent a byte, nor read any further:
        // nothing overtook.
        a.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        assert!(
            a_reader.fill_buf().is_err(),
            "a reply overtook the held line"
        );
        a.set_read_timeout(None).unwrap();
        assert_eq!(rig.counts.lock().unwrap().batches, [1, 1, 1]);

        rig.release.send(()).unwrap();
        let got: Vec<String> = (0..6).map(|_| read_trimmed(&mut a_reader)).collect();
        assert_eq!(got[0], "HOLD-A");
        assert!(got[1].starts_with("oversized:"), "got {got:?}");
        assert_eq!(got[2..4], ["SAME-READ", "FAST-A"]);
        assert!(got[4].starts_with("oversized:"), "got {got:?}");
        assert_eq!(got[5], "LAST-A");
        rig.shut_down();
    }

    #[test]
    fn stale_deferred_reply_is_dropped_when_the_slot_is_reused() {
        let rig = spawn_reactor(4);
        // Connection A parks five pieces of deferred work with one
        // read — three held lines, cut apart by oversized ones — then
        // disappears.
        let (mut a, _) = rig.connect();
        let mut script = Vec::new();
        for held in ["hold-1\n", "hold-2\n", "hold-3\n"] {
            script.extend_from_slice(&[b'z'; 65]);
            script.extend_from_slice(format!("\n{held}").as_bytes());
        }
        a.write_all(&script[66..]).unwrap();
        rig.wait_held(1);
        drop(a); // FIN; the entry survives on its deferred work

        // First replies still write cleanly (the peer's kernel answers
        // with RST); after the RST lands, the next reply's write fails
        // hard and the reactor frees the slot — with the last piece of
        // deferred work still outstanding: a connection died mid-drain.
        rig.release.send(()).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        rig.release.send(()).unwrap();
        std::thread::sleep(Duration::from_millis(60));

        // Connection B reuses A's slot (same index, bumped generation)
        // and is fully functional.
        let (mut b, mut reader) = rig.connect();
        b.write_all(b"ping\n").unwrap();
        assert_eq!(read_trimmed(&mut reader), "PING");

        // The last reply finally arrives under A's old token. The
        // generation tag must drop it: B's very next line is its own
        // response, not A's buffered "HOLD-3".
        rig.release.send(()).unwrap();
        rig.wait_held(3);
        std::thread::sleep(Duration::from_millis(60));
        b.write_all(b"after\n").unwrap();
        assert_eq!(
            read_trimmed(&mut reader),
            "AFTER",
            "stale deferred reply leaked onto the reused slot"
        );
        rig.shut_down();
    }

    #[test]
    fn peer_eof_with_a_deferred_batch_still_gets_its_reply() {
        let rig = spawn_reactor(4);
        let (sock, mut reader) = rig.connect();
        (&sock).write_all(b"hold-goodbye\n").unwrap();
        // Half-close: the reactor sees EOF while the batch is still
        // deferred; the connection must survive until the reply lands.
        sock.shutdown(Shutdown::Write).unwrap();
        rig.wait_held(1);
        std::thread::sleep(Duration::from_millis(30));
        rig.release.send(()).unwrap();
        assert_eq!(read_trimmed(&mut reader), "HOLD-GOODBYE");
        // ... and then the drain-then-close completes.
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0);
        let counts = rig.shut_down();
        assert_eq!(counts.opens, 1);
        assert!(counts.closes >= 1, "closes = {}", counts.closes);
    }

    /// xorshift64: the seeded source of every injected fault.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A socket that misbehaves at seeded points the way a nonblocking
    /// socket may: a read or write is `Interrupted`, fails with a
    /// spurious `WouldBlock`, or moves a single byte.
    struct Faulty {
        inner: TcpStream,
        state: u64,
    }

    impl Faulty {
        /// Draw this call's fault: an error to return instead of the
        /// call, or how many of its `len` bytes it may move.
        fn fault(&mut self, len: usize) -> Result<usize, io::Error> {
            match next(&mut self.state) % 4 {
                0 => Err(io::ErrorKind::Interrupted.into()),
                1 => Err(io::ErrorKind::WouldBlock.into()),
                2 => Ok(len.min(1)),
                _ => Ok(len),
            }
        }
    }

    impl Read for Faulty {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let len = self.fault(buf.len())?;
            self.inner.read(&mut buf[..len])
        }
    }

    impl Write for Faulty {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let len = self.fault(buf.len())?;
            self.inner.write(&buf[..len])
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl AsRawFd for Faulty {
        fn as_raw_fd(&self) -> RawFd {
            self.inner.as_raw_fd()
        }
    }

    /// `Interrupted`, spurious `WouldBlock` and 1-byte transfers on the
    /// connection, and `Interrupted` and `ConnectionAborted` from the
    /// accept, change none of the reply bytes to a pipelined script —
    /// its fast lines answered inline, its slow ones through the lane —
    /// and each `ConnectionAborted` is counted as an accept error.
    #[test]
    fn seeded_io_faults_leave_the_reply_bytes_unchanged() {
        let script: String = (0..300)
            .map(|i| match i % 11 {
                5 => format!("slow-{i}\n"),
                _ => format!("line-{i}\n"),
            })
            .collect();
        let replies = |rig: Rig| {
            let (mut sock, mut reader) = rig.connect();
            sock.write_all(script.as_bytes()).unwrap();
            sock.shutdown(Shutdown::Write).unwrap();
            let mut got = String::new();
            reader.read_to_string(&mut got).unwrap();
            (got, rig.shut_down())
        };
        let (clean, _) = replies(spawn_reactor(8));
        assert_eq!(clean, script.to_uppercase());

        let mut aborted_total = 0;
        for seed in 1..=6u64 {
            let aborted = Arc::new(AtomicUsize::new(0));
            let mut state = seed;
            let rig = spawn_reactor_with(8, {
                let aborted = Arc::clone(&aborted);
                move |listener| match next(&mut state) % 3 {
                    0 => Err(io::ErrorKind::Interrupted.into()),
                    1 => {
                        aborted.fetch_add(1, Ordering::SeqCst);
                        Err(io::ErrorKind::ConnectionAborted.into())
                    }
                    _ => accept_nonblocking(listener).map(|inner| Faulty {
                        inner,
                        state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    }),
                }
            });
            let (got, counts) = replies(rig);
            assert!(
                got == clean,
                "seed {seed}: replies differ from the clean run"
            );
            let aborted = aborted.load(Ordering::SeqCst);
            assert_eq!(counts.accept_errors, aborted, "seed {seed}");
            aborted_total += aborted;
        }
        assert!(aborted_total > 0, "no seed aborted an accept");
    }
}
