//! The single-threaded mini-reactor: one epoll instance multiplexing a
//! listening socket, every accepted connection, and an eventfd waker
//! for replies produced off the event loop.
//!
//! Protocol logic stays out of this crate: the embedding server
//! provides a [`Handler`] (answer a batch of request lines into the
//! connection's output bytes) and an [`Observer`] (metrics taps). The
//! reactor owns readiness, framing, batching, the connection budget,
//! `EPOLLOUT`-re-armed backpressure, and the slow lane.
//!
//! Event-loop shape per wakeup:
//!
//! 1. `epoll_wait` (bounded timeout, so [`Handler::should_stop`] is
//!    polled even when idle),
//! 2. listener readable → accept until `EAGAIN`, shedding with a final
//!    response line once the budget is reached,
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
//! ## Deferred work (internal)
//!
//! Called from the loop ([`Caller::EventLoop`]), [`Handler::answer`]
//! never blocks: it stops before the first line that would and says
//! where. The reactor ships an owned copy of the batch's lines from
//! there on — the one copy on this rare path — to its slow-lane thread
//! (`lane.rs`), which calls the same `answer` as a caller that may wait
//! and delivers the bytes to the eventfd-woken mailbox. The reactor
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

use crate::conn::Connection;
use crate::framing::{Batch, DEFAULT_MAX_LINE};
use crate::handler::{push_line, Answered, Caller, Handler};
use crate::lane::{Deferred, Lane};
use crate::poller::{Event, Interest, Poller};
use crate::sys;
use std::borrow::Cow;
use std::io;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

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

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_connections: 10_240,
            max_line_bytes: DEFAULT_MAX_LINE,
            poll_timeout_ms: 100,
        }
    }
}

/// Metrics taps. Every method has a no-op default so embedders
/// implement only what they export.
pub trait Observer {
    /// A connection was accepted; `open` is the new open count.
    fn on_open(&mut self, open: usize) {
        let _ = open;
    }
    /// A connection closed; `open` is the new open count.
    fn on_close(&mut self, open: usize) {
        let _ = open;
    }
    /// An accept was shed by the connection budget.
    fn on_accept_shed(&mut self) {}
    /// One handler batch of `lines` complete request lines.
    fn on_batch_size(&mut self, lines: usize) {
        let _ = lines;
    }
    /// One `epoll_wait` returned `events` readiness records.
    fn on_wakeup(&mut self, events: usize) {
        let _ = events;
    }
    /// Loop timing for one wakeup: `wait_s` seconds blocked in
    /// `epoll_wait`, `work_s` seconds servicing its events. Together
    /// they partition the event loop's wall time, so their ratio is
    /// the reactor's duty cycle.
    fn on_loop_times(&mut self, wait_s: f64, work_s: f64) {
        let _ = (wait_s, work_s);
    }
    /// A connection left `EPOLLOUT` backpressure (its flush completed,
    /// or it died mid-stall); `stall_s` is how long the write side was
    /// armed waiting for the peer to drain.
    fn on_backpressure_stall(&mut self, stall_s: f64) {
        let _ = stall_s;
    }
}

/// Ignores everything — for tests and minimal embedders.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {}

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
/// response bytes and signals the reactor's eventfd waker; the event loop
/// applies them on its next wakeup. [`run`] owns it and joins the lane
/// thread before dropping it, so the lane never writes to a closed fd.
pub(crate) struct Mailbox {
    efd: i32,
    queue: Mutex<Vec<(u64, Vec<u8>)>>,
}

impl Drop for Mailbox {
    fn drop(&mut self) {
        sys::close_fd(self.efd);
    }
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
        sys::eventfd_signal(self.efd);
    }

    fn take(&self) -> Vec<(u64, Vec<u8>)> {
        sys::eventfd_drain(self.efd);
        #[expect(
            clippy::disallowed_methods,
            reason = "leaf mailbox mutex held only to swap the Vec out; contenders are one-push slow-lane writers"
        )]
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *queue)
    }
}

struct Entry {
    conn: Connection,
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

struct Slab {
    slots: Vec<Option<Entry>>,
    /// Generation counter per slot, bumped on every reuse so stale
    /// tokens (deferred replies for a closed connection) cannot alias
    /// a new occupant.
    generations: Vec<u32>,
    free: Vec<usize>,
    open: usize,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            slots: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            open: 0,
        }
    }

    fn insert(&mut self, conn: Connection) -> (usize, u32) {
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

    fn get_mut(&mut self, idx: usize) -> Option<&mut Entry> {
        self.slots.get_mut(idx).and_then(Option::as_mut)
    }

    fn remove(&mut self, idx: usize) -> Option<Entry> {
        let entry = self.slots.get_mut(idx).and_then(Option::take);
        if entry.is_some() {
            self.open -= 1;
            self.free.push(idx);
        }
        entry
    }
}

/// Run the reactor over an already-bound, **nonblocking** listening
/// socket until [`Handler::should_stop`] returns `true`. The listener
/// fd is borrowed: registered with the reactor's epoll instance for
/// the duration, never closed. Returns once the slow lane has finished
/// the work already deferred to it (a stop request's drain, say).
///
/// # Errors
/// Only on setup or wait failures of the epoll instance itself;
/// per-connection errors close that connection and keep the loop
/// running.
pub fn run<H: Handler + ?Sized>(
    listener_fd: i32,
    cfg: &ReactorConfig,
    handler: &H,
    observer: &mut dyn Observer,
) -> io::Result<()> {
    let poller = Poller::new()?;
    poller.add(listener_fd, LISTENER_TOKEN, Interest::READ)?;
    let mailbox = Mailbox {
        efd: sys::eventfd_nonblocking()?,
        queue: Mutex::new(Vec::new()),
    };
    poller.add(mailbox.efd, WAKER_TOKEN, Interest::READ)?;
    // The scope joins the lane thread after `event_loop` returns and
    // drops the `Lane` (hanging its channel up).
    std::thread::scope(|scope| {
        let reactor = Reactor {
            listener_fd,
            cfg,
            poller: &poller,
            mailbox: &mailbox,
            lane: Lane::spawn(scope, handler, &mailbox),
            handler,
        };
        reactor.event_loop(observer)
    })
}

/// What every step of the event loop needs besides the slab.
struct Reactor<'a, H: Handler + ?Sized> {
    listener_fd: i32,
    cfg: &'a ReactorConfig,
    poller: &'a Poller,
    mailbox: &'a Mailbox,
    lane: Lane,
    handler: &'a H,
}

impl<H: Handler + ?Sized> Reactor<'_, H> {
    fn event_loop(&self, observer: &mut dyn Observer) -> io::Result<()> {
        let mut slab = Slab::new();
        let mut events: Vec<Event> = Vec::new();
        // The one read buffer every connection's lines are lent from.
        let mut scratch = vec![0u8; 16 * 1024];

        loop {
            let wait_start = Instant::now();
            let n = self.poller.wait(&mut events, self.cfg.poll_timeout_ms)?;
            let woke = Instant::now();
            observer.on_wakeup(n);
            if self.handler.should_stop() {
                break;
            }
            // Tokens are stable across the iteration: epoll coalesces to
            // at most one event per fd per wait, and the generation tag
            // guards against a slot closed and reused within the same
            // batch.
            for i in 0..events.len() {
                let Some(&ev) = events.get(i) else { break };
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready(&mut slab, observer);
                } else if ev.token == WAKER_TOKEN {
                    self.apply_replies(&mut slab, observer);
                } else {
                    self.service_connection(&mut slab, ev, observer, &mut scratch);
                }
            }
            observer.on_loop_times(
                woke.duration_since(wait_start).as_secs_f64(),
                woke.elapsed().as_secs_f64(),
            );
            if self.handler.should_stop() {
                break;
            }
        }

        // Graceful stop: deferred replies already delivered land on
        // their connections first, then one best-effort flush of
        // everything queued, then drop (and thereby close) every
        // connection.
        self.apply_replies(&mut slab, observer);
        for slot in &mut slab.slots {
            if let Some(entry) = slot.as_mut() {
                let _ = entry.conn.flush();
            }
            *slot = None;
        }
        let _ = self.poller.remove(self.listener_fd);
        Ok(())
    }

    fn accept_ready(&self, slab: &mut Slab, observer: &mut dyn Observer) {
        loop {
            let fd = match sys::accept_nonblocking(self.listener_fd) {
                Ok(fd) => fd,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // ECONNABORTED and friends: the would-be peer is gone.
                Err(_) => return,
            };
            if slab.open >= self.cfg.max_connections {
                // Shed at the door: one explicit wire response, then
                // close. A fresh socket's send buffer is empty, so the
                // single nonblocking write virtually always lands whole.
                let mut line = self.handler.shed_line().into_bytes();
                line.push(b'\n');
                let _ = sys::write_fd(fd, &line);
                sys::close_fd(fd);
                observer.on_accept_shed();
                continue;
            }
            let conn = Connection::new(fd, self.cfg.max_line_bytes);
            let (idx, generation) = slab.insert(conn);
            if self
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
        slab: &mut Slab,
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
                // socket until its reply has landed.
                let eof = *pending_deferred == 0
                    && conn
                        .fill(scratch, |batch, out| {
                            self.dispatch(
                                batch,
                                out,
                                pending_deferred,
                                ev.token,
                                received,
                                observer,
                            );
                            *pending_deferred == 0
                        })
                        .unwrap_or(true);
                if eof || ev.hangup {
                    // Drain-then-close: any complete lines above got
                    // their responses (deferred ones keep the connection
                    // open until they arrive); a mid-line fragment owes
                    // none.
                    entry.conn.closing = true;
                }
            }
        }
        self.settle_connection(slab, idx, observer);
    }

    /// Flush a connection's queued output and reconcile its lifecycle:
    /// re-register it on transitions — readable unless it is closing or
    /// has deferred work outstanding (its next requests wait in the
    /// socket, so one connection never queues more than one read's
    /// worth on the lane), writable while a flush is stopped short —
    /// close once it is `closing` with nothing left to write and no
    /// deferred work outstanding, close immediately on hard write
    /// errors.
    fn settle_connection(&self, slab: &mut Slab, idx: usize, observer: &mut dyn Observer) {
        let Some(entry) = slab.get_mut(idx) else {
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
                    dead = self.poller.modify(entry.conn.fd(), token, want).is_err();
                }
            }
            Err(_) => dead = true,
        }

        if dead {
            if let Some(entry) = slab.remove(idx) {
                let _ = self.poller.remove(entry.conn.fd());
                // A connection that dies mid-stall still closes its
                // stall window (the flush arm above already took the
                // stamp when the flush completed before death).
                if let Some(since) = entry.stalled_since {
                    observer.on_backpressure_stall(since.elapsed().as_secs_f64());
                }
            }
            observer.on_close(slab.open);
        }
    }

    /// Apply every reply delivered since the last wakeup: land its
    /// bytes on its connection (dropping replies whose connection or
    /// generation is gone), then flush and reconcile that connection.
    fn apply_replies(&self, slab: &mut Slab, observer: &mut dyn Observer) {
        for (token, bytes) in self.mailbox.take() {
            let Some((generation, idx)) = token_parts(token) else {
                continue;
            };
            {
                let Some(entry) = slab.get_mut(idx) else {
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
            self.settle_connection(slab, idx, observer);
        }
    }

    /// Answer one batch in its wire position: inline — into `out`, the
    /// connection's output buffer — up to the first line that would
    /// block, and from there (or whole, behind work already outstanding
    /// on this connection) through the slow lane.
    fn dispatch(
        &self,
        batch: Batch<'_>,
        out: &mut Vec<u8>,
        pending_deferred: &mut usize,
        token: u64,
        received: Instant,
        observer: &mut dyn Observer,
    ) {
        let queued = *pending_deferred > 0;
        let work = match batch {
            Batch::Lines(lines) => {
                observer.on_batch_size(lines.len());
                let from = if queued {
                    0
                } else {
                    match self.handler.answer(lines, received, out, Caller::EventLoop) {
                        Answered::All => return,
                        Answered::WouldBlock(k) => k,
                        // Off contract (a stop request would block the
                        // loop); still honoured rather than lost.
                        Answered::Stop => return self.handler.stop(),
                    }
                };
                let rest = lines.get(from..).unwrap_or(&[]).iter();
                Deferred::Lines(rest.map(|line| Cow::Owned(line.to_string())).collect())
            }
            Batch::Oversized { len } => {
                if !queued {
                    push_line(out, &self.handler.oversized_line(len));
                    return;
                }
                Deferred::Oversized { len }
            }
        };
        match self.lane.defer(token, received, work) {
            Ok(()) => *pending_deferred += 1,
            // Lane thread gone (it panicked): answer here rather than
            // drop the work.
            Err(work) => {
                if work.answer(self.handler, received, out) {
                    self.handler.stop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read as _, Write as _};
    use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
    use std::sync::Arc;
    use std::time::Duration;

    /// Uppercases every line. Lines starting with "slow" or "hold" and
    /// lines ending in "stop" would block: the event loop is stopped
    /// before them, a caller that may wait gets them answered — a
    /// "hold" line only after the test releases one permit, so a test
    /// can race its reply against connection death, slot reuse, and
    /// other connections' traffic; a "…stop" line asks for a stop. No
    /// helper threads: the reactor's own lane is the only caller that
    /// may wait.
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
                if line.starts_with("slow") || line.starts_with("hold") || line.ends_with("stop") {
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
                if caller == Caller::MayWait && line.ends_with("stop") {
                    return Answered::Stop;
                }
            }
            Answered::All
        }

        fn stop(&self) {
            self.stop.store(true, Ordering::SeqCst);
        }
        fn oversized_line(&self, len: usize) -> String {
            format!("oversized:{len}")
        }
        fn shed_line(&self) -> String {
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

        /// Stop the reactor (if a request has not already) and hand
        /// back what the observer counted.
        fn shut_down(self) -> Counts {
            self.handler.stop();
            self.thread.join().unwrap();
            std::mem::take(&mut *self.counts.lock().unwrap())
        }
    }

    fn spawn_reactor(max_connections: usize) -> Rig {
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
        let thread = {
            let (handler, counts) = (Arc::clone(&handler), Arc::clone(&counts));
            std::thread::spawn(move || {
                let cfg = ReactorConfig {
                    max_connections,
                    max_line_bytes: 64,
                    poll_timeout_ms: 10,
                };
                let mut obs = CountingObserver(counts);
                run(listener.as_raw_fd(), &cfg, &*handler, &mut obs).unwrap();
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

    /// A stop request is acknowledged before the loop exits (the lane
    /// delivers the ack to the mailbox before it calls `stop`), and
    /// lines after the request owe nothing.
    #[test]
    fn stop_is_acked_before_the_loop_exits() {
        for request in ["stop", "slow-stop"] {
            let rig = spawn_reactor(4);
            let (mut sock, mut reader) = rig.connect();
            sock.write_all(format!("first\n{request}\nnever-answered\n").as_bytes())
                .unwrap();
            assert_eq!(read_trimmed(&mut reader), "FIRST");
            assert_eq!(read_trimmed(&mut reader), request.to_uppercase());
            // The reactor stops on its own and closes the connection
            // without answering the trailing line.
            let mut rest = String::new();
            assert_eq!(reader.read_to_string(&mut rest).unwrap(), 0, "{rest:?}");
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
}
