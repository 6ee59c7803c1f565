//! The connection-handling daemon.
//!
//! One request path, two interchangeable wire drivers selected by
//! [`ServerConfig::net`]. The server's whole protocol logic is one
//! `dvfs_net::Handler` (implemented once, below): one pass over a
//! batch of request lines lent from the read buffer, each decoded once
//! and answered straight into the connection's output bytes,
//! consecutive submits folded into a single admission call. Both
//! drivers live in `dvfs-net` and share its framer, so they cannot
//! drift apart on the wire:
//!
//! - **`reactor`** (the Linux default): the single-threaded epoll
//!   mini-reactor, multiplexing tens of thousands of connections on one
//!   thread. Its event loop may not wait, so the handler stops there
//!   before the first request that waits on the shard workers, and the
//!   reactor's slow lane has the rest of that batch answered.
//! - **`threads`**: an accept loop plus `dvfs_net::blocking::serve` on
//!   one thread per connection. Kept for portability.
//!
//! Both shed connections over [`ServerConfig::max_connections`] at
//! accept time with the explicit `overloaded` wire response. A
//! malformed line produces a `bad_request` response and the connection
//! continues — client input can never crash the server. Shutdown (wire
//! `shutdown` command or [`ServerHandle::shutdown`]) drains the
//! scheduler backlog, catches the trace file up, and joins every thread
//! before [`ServerHandle::wait`] returns.
//!
//! The reactor exports its own registry series: `net_connections_open`
//! / `net_connections_peak` gauges, `net_accepts` / `net_accepts_shed`
//! / `net_wakeups` / `net_wait_micros` / `net_work_micros` /
//! `net_backpressure_stalls` / `net_backpressure_stall_micros`
//! counters, and `net_batch_lines` / `net_events_per_wakeup`
//! histograms. A supervisor thread (the `supervise` module) flags
//! workers that sit on an outstanding command without progress
//! (`worker_stalled` episodes, the `degraded` gauge) — all snapshotted
//! by the `health` wire command, which, like `stats`, is served inline
//! on the reactor fast path. Reactor lifecycle deliberately records
//! **no** trace events: the lifecycle trace schema is pinned by the
//! byte-identical replay contract, and connection-level visibility
//! belongs to metrics (and the Perfetto counter tracks built from them
//! at export time).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::indexing_slicing, clippy::unreachable, clippy::unimplemented)]

use crate::metrics::Registry;
use crate::protocol::{parse_request, ErrorKind, Request, Response};
use crate::service::{Mode, Pace, Scheduler, SchedulerConfig, SubmitItem, Submitted};
use dvfs_net::{Answered, Caller};
use std::borrow::Cow;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-request-line byte budget, shared by both wire front-ends.
pub const MAX_LINE_BYTES: usize = dvfs_net::DEFAULT_MAX_LINE;

/// Default open-connection budget (per server, either backend).
pub const DEFAULT_MAX_CONNECTIONS: usize = 10_240;

/// Which wire front-end accepts and serves connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetBackend {
    /// One blocking thread per connection, each running
    /// `dvfs_net::blocking::serve`. Kept for portability.
    Threads,
    /// The `dvfs-net` epoll mini-reactor: every connection on one
    /// thread. The default (`dvfs-net` is Linux-only today, so: the
    /// Linux default).
    #[default]
    Reactor,
}

impl NetBackend {
    /// Resolve the backend from `DVFS_SERVE_NET` (`reactor` or
    /// `threads`); anything else — including unset — is the default.
    /// This is the seam the CI sweep drives `tests/serve_e2e.rs`
    /// through unmodified against both backends.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("DVFS_SERVE_NET").as_deref() {
            Ok("reactor") => NetBackend::Reactor,
            Ok("threads") => NetBackend::Threads,
            _ => NetBackend::default(),
        }
    }

    /// The CLI/config spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NetBackend::Threads => "threads",
            NetBackend::Reactor => "reactor",
        }
    }
}

/// Where the server listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A Unix-domain socket at this path (removed on bind and on
    /// shutdown).
    Unix(PathBuf),
    /// A TCP bind address, e.g. `127.0.0.1:7077`.
    Tcp(String),
}

/// Full server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listening endpoint.
    pub endpoint: Endpoint,
    /// Scheduler parameters (cores, cost weights, mode, queue bound).
    pub scheduler: SchedulerConfig,
    /// Paced-mode tick interval.
    pub tick: Duration,
    /// Lifecycle-trace file (JSONL); append-only behind a written-lines
    /// cursor, caught up on every drain, trace fetch, `trace_stream`
    /// chunk, and shutdown — so the file holds the full stream even
    /// when `trace_stream` has already forgotten early chunks
    /// server-side. Requires `scheduler.trace_capacity > 0` to record
    /// anything.
    pub trace_out: Option<PathBuf>,
    /// Wire front-end ([`NetBackend::from_env`] by default).
    pub net: NetBackend,
    /// Open-connection budget; accepts beyond it are shed with the
    /// explicit `overloaded` wire response and closed.
    pub max_connections: usize,
}

impl ServerConfig {
    /// Defaults around an endpoint: 4 cores, replay mode, 1024-slot
    /// queue, 10 ms ticks, wire front-end from `DVFS_SERVE_NET` (the
    /// reactor unless set to `threads`).
    #[must_use]
    pub fn new(endpoint: Endpoint) -> Self {
        ServerConfig {
            endpoint,
            scheduler: SchedulerConfig::default(),
            tick: Duration::from_millis(10),
            trace_out: None,
            net: NetBackend::from_env(),
            max_connections: DEFAULT_MAX_CONNECTIONS,
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

struct Shared {
    scheduler: Scheduler,
    /// The paced tick interval: how often a worker is meant to empty
    /// its admission queue.
    tick: Duration,
    metrics: Arc<Registry>,
    max_connections: usize,
    shutdown: AtomicBool,
}

/// The wire protocol over the shared scheduler — the one request path
/// both drivers call into.
impl dvfs_net::Handler for Shared {
    /// One pass over a batch of complete request lines: each line is
    /// decoded once and answered — its response line appended to `out`
    /// — before the next is looked at. The batch's submits form one
    /// [`SubmitRun`](crate::service::SubmitRun) stamped with `received`
    /// (when the batch's bytes came off the wire). Pings, `health` and
    /// `stats` (published worker cells and leaf-locked metrics only),
    /// malformed lines and submits (admission is a bounded queue push,
    /// never a scheduling round) wait for nothing — bar a paced submit
    /// whose shard worker is behind. That submit, and every request
    /// that waits on the shard workers or a file write, is answered
    /// only when `caller` may wait; the event loop's pass stops before
    /// it.
    fn answer(
        &self,
        lines: &[Cow<'_, str>],
        received: Instant,
        out: &mut Vec<u8>,
        caller: Caller,
    ) -> Answered {
        let may_wait = caller == Caller::MayWait;
        let pace = Some(Pace::new(self.tick, may_wait));
        let mut run = self.scheduler.begin_run(received, pace);
        for (k, line) in lines.iter().enumerate() {
            let request = match parse_request(line) {
                Ok(request) => request,
                Err(msg) => {
                    self.metrics.counter("malformed_requests").inc();
                    Response::err(ErrorKind::BadRequest, msg).push_line(out);
                    continue;
                }
            };
            if !matches!(
                request,
                Request::Submit { .. } | Request::Ping | Request::Health | Request::Stats
            ) {
                if !may_wait {
                    return Answered::WouldBlock(k);
                }
                // The run holds the id ledger a `drain` takes.
                run.close();
            }
            let resp = match request {
                Request::Submit {
                    id,
                    cycles,
                    class,
                    arrival,
                } => match run.submit(SubmitItem {
                    id,
                    cycles,
                    class,
                    arrival,
                }) {
                    Submitted::Ack(ack) => {
                        ack.push_line(out);
                        continue;
                    }
                    Submitted::Refused(refused) => refused,
                    Submitted::WouldBlock => return Answered::WouldBlock(k),
                },
                Request::Ping => Response::ok(),
                Request::Health => self.scheduler.health(),
                Request::Stats => self.scheduler.stats(),
                Request::Drain => {
                    let resp = self.scheduler.drain_run();
                    self.scheduler.flush_trace_file();
                    resp
                }
                Request::Trace => {
                    let resp = self.scheduler.trace_run();
                    self.scheduler.flush_trace_file();
                    resp
                }
                Request::TraceStream => self.scheduler.trace_stream_run(),
                // Acknowledged here; the driver calls `stop` once the
                // ack is on its way. The lines behind owe nothing.
                Request::Shutdown => {
                    Response::ok().push_line(out);
                    return Answered::Stop;
                }
            };
            resp.push_line(out);
        }
        Answered::All
    }

    fn stop(&self) {
        begin_shutdown(self);
    }

    /// The response for a request line that blew the byte budget.
    fn oversized_line(&self, len: usize) -> String {
        self.metrics.counter("oversized_lines").inc();
        Response::err(
            ErrorKind::BadRequest,
            format!("request line exceeds {MAX_LINE_BYTES} bytes ({len} read)"),
        )
        .encode()
    }

    /// The explicit shed response written to a connection refused by
    /// the budget — the same `overloaded` error kind the admission
    /// queue uses.
    fn shed_line(&self) -> String {
        Response::err(
            ErrorKind::Overloaded,
            format!(
                "connection budget exhausted ({} open connections)",
                self.max_connections
            ),
        )
        .encode()
    }

    fn should_stop(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Handle to a running server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    /// The accept loop, the stall supervisor and (paced mode) the ticker.
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The endpoint the server is bound to (for TCP with port 0, the
    /// resolved address).
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The shared metrics registry.
    #[must_use]
    pub fn metrics(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.metrics)
    }

    /// Request shutdown programmatically (same path as the wire
    /// command).
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Block until the server has fully shut down (all threads
    /// joined).
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn begin_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    shared.scheduler.begin_shutdown();
    shared.scheduler.flush_trace_file();
}

/// Bind and serve. Returns once the listener is accepting, leaving the
/// accept loop, connection handlers, and (in paced mode) the ticker on
/// background threads.
///
/// # Errors
/// Propagates bind failures.
pub fn serve(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let metrics = Arc::new(Registry::new());
    let scheduler = Scheduler::new(cfg.scheduler, Arc::clone(&metrics));

    // Both front-ends poll the shutdown flag between accepts, which
    // needs nonblocking accepts; a blocking listener would wedge
    // shutdown forever, so failing to get one fails the bind.
    let (listener, endpoint) = match &cfg.endpoint {
        Endpoint::Unix(path) => {
            // A stale socket file from a crashed run would fail the
            // bind; remove it first.
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            (Listener::Unix(l), Endpoint::Unix(path.clone()))
        }
        Endpoint::Tcp(addr) => {
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            let resolved = l.local_addr()?.to_string();
            (Listener::Tcp(l), Endpoint::Tcp(resolved))
        }
    };

    let shared = Arc::new(Shared {
        scheduler,
        tick: cfg.tick,
        metrics,
        max_connections: cfg.max_connections.max(1),
        shutdown: AtomicBool::new(false),
    });
    if let Some(path) = &cfg.trace_out {
        shared.scheduler.set_trace_file(path.clone());
    }
    shared.scheduler.start_clock();

    let mut threads = Vec::with_capacity(3);
    if let Mode::Paced { .. } = cfg.scheduler.mode {
        let shared = Arc::clone(&shared);
        let tick = cfg.tick;
        threads.push(std::thread::spawn(move || {
            while !shared.shutdown.load(Ordering::SeqCst) {
                shared.scheduler.wait_for_work(tick);
                shared.scheduler.tick();
            }
        }));
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            crate::supervise::run(&shared.scheduler, &shared.shutdown);
        }));
    }
    {
        // Every arm drives the same handler value: `Shared`.
        let shared = Arc::clone(&shared);
        let net = cfg.net;
        threads.push(std::thread::spawn(move || match (net, &listener) {
            (NetBackend::Reactor, _) => reactor_loop(&listener, &shared),
            (NetBackend::Threads, Listener::Unix(l)) => {
                accept_loop(&shared, || Ok(l.accept()?.0), UnixStream::set_read_timeout);
            }
            (NetBackend::Threads, Listener::Tcp(l)) => {
                accept_loop(&shared, || Ok(l.accept()?.0), TcpStream::set_read_timeout);
            }
        }));
    }

    Ok(ServerHandle {
        shared,
        endpoint,
        threads,
    })
}

/// Decrements the open-connection count when a handler thread exits,
/// however it exits.
struct ConnGuard<'a>(&'a AtomicUsize);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// How long the threads backend's accept loop sleeps when no
/// connection is waiting.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// ... and after a failed `accept`, so a persistent failure (`EMFILE`
/// until some connection closes) cannot spin the loop.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// What the accept loop does after a failed `accept`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcceptRetry {
    /// Nothing was waiting (`WouldBlock`): poll again shortly.
    Poll,
    /// A signal interrupted the call: retry at once.
    Now,
    /// Anything else — the would-be peer is already gone
    /// (`ECONNABORTED`), the process is out of descriptors (`EMFILE`),
    /// ... — is counted in `accept_errors` and retried after a short
    /// back-off.
    CountAndBackOff,
}

/// The accept loop's whole error policy. No accept error is fatal:
/// every one of them concerns the connection that did not happen, not
/// the listener, and a daemon that silently stops accepting while it
/// keeps ticking is worse than one that retries (the reactor's accept
/// path survives the same errors).
fn after_accept_error(kind: std::io::ErrorKind) -> AcceptRetry {
    match kind {
        std::io::ErrorKind::WouldBlock => AcceptRetry::Poll,
        std::io::ErrorKind::Interrupted => AcceptRetry::Now,
        _ => AcceptRetry::CountAndBackOff,
    }
}

/// The `threads` backend: accept, shed over budget, and hand every
/// admitted connection to `dvfs_net::blocking::serve` on a thread of
/// its own. The scope joins the connection threads on the way out and
/// keeps no handle per connection, so connection churn accumulates
/// nothing.
fn accept_loop<S: Read + Write + Send>(
    shared: &Shared,
    accept: impl Fn() -> std::io::Result<S>,
    set_read_timeout: fn(&S, Option<Duration>) -> std::io::Result<()>,
) {
    let open = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        while !shared.shutdown.load(Ordering::SeqCst) {
            let mut stream = match accept() {
                Ok(stream) => stream,
                Err(e) => {
                    match after_accept_error(e.kind()) {
                        AcceptRetry::Poll => std::thread::sleep(ACCEPT_POLL),
                        AcceptRetry::Now => {}
                        AcceptRetry::CountAndBackOff => {
                            shared.metrics.counter("accept_errors").inc();
                            std::thread::sleep(ACCEPT_BACKOFF);
                        }
                    }
                    continue;
                }
            };
            if open.load(Ordering::SeqCst) >= shared.max_connections {
                // Shed at the door with the explicit wire response,
                // mirroring the reactor's budget.
                shared.metrics.counter("net_accepts_shed").inc();
                let _ = writeln!(stream, "{}", dvfs_net::Handler::shed_line(shared));
                continue; // stream drops: connection closed
            }
            open.fetch_add(1, Ordering::SeqCst);
            shared.metrics.counter("connections").inc();
            let guard = ConnGuard(&open);
            scope.spawn(move || {
                let _guard = guard;
                // The driver polls the shutdown flag between reads, so
                // idle connections must time out of `read` or they
                // would pin the server open.
                if set_read_timeout(&stream, Some(Duration::from_millis(100))).is_ok() {
                    let _ = dvfs_net::blocking::serve(&mut stream, MAX_LINE_BYTES, shared);
                }
            });
        }
    });
}

/// The `reactor` backend: run the `dvfs-net` mini-reactor over the
/// bound listener, in the same thread slot as [`accept_loop`].
/// Returns once the reactor's slow lane has finished its in-flight work
/// (a shutdown drain).
fn reactor_loop(listener: &Listener, shared: &Shared) {
    let fd = match listener {
        Listener::Unix(l) => l.as_raw_fd(),
        Listener::Tcp(l) => l.as_raw_fd(),
    };
    let cfg = dvfs_net::ReactorConfig {
        max_connections: shared.max_connections,
        max_line_bytes: MAX_LINE_BYTES,
        // The stop-flag polling cadence, matching the thread backend's
        // read-timeout granularity.
        poll_timeout_ms: 100,
    };
    let mut observer = MetricsObserver {
        metrics: Arc::clone(&shared.metrics),
        peak: 0,
    };
    if let Err(e) = dvfs_net::reactor::run(fd, &cfg, shared, &mut observer) {
        shared.metrics.counter("accept_errors").inc();
        eprintln!("dvfs-serve: reactor front-end failed ({e})");
    }
}

/// `dvfs-net` observer: reactor telemetry into the shared registry.
struct MetricsObserver {
    metrics: Arc<Registry>,
    peak: usize,
}

impl dvfs_net::Observer for MetricsObserver {
    fn on_open(&mut self, open: usize) {
        self.metrics.counter("connections").inc();
        self.metrics.counter("net_accepts").inc();
        self.metrics
            .gauge("net_connections_open")
            .set(i64::try_from(open).unwrap_or(i64::MAX));
        if open > self.peak {
            self.peak = open;
            self.metrics
                .gauge("net_connections_peak")
                .set(i64::try_from(open).unwrap_or(i64::MAX));
        }
    }

    fn on_close(&mut self, open: usize) {
        self.metrics
            .gauge("net_connections_open")
            .set(i64::try_from(open).unwrap_or(i64::MAX));
    }

    fn on_accept_shed(&mut self) {
        self.metrics.counter("net_accepts_shed").inc();
    }

    fn on_batch_size(&mut self, lines: usize) {
        self.metrics
            .histogram("net_batch_lines")
            .record(lines as f64);
    }

    fn on_wakeup(&mut self, events: usize) {
        self.metrics.counter("net_wakeups").inc();
        self.metrics
            .histogram("net_events_per_wakeup")
            .record(events as f64);
    }

    fn on_loop_times(&mut self, wait_s: f64, work_s: f64) {
        self.metrics.counter("net_wait_micros").add(micros(wait_s));
        self.metrics.counter("net_work_micros").add(micros(work_s));
    }

    fn on_backpressure_stall(&mut self, stall_s: f64) {
        self.metrics.counter("net_backpressure_stalls").inc();
        self.metrics
            .counter("net_backpressure_stall_micros")
            .add(micros(stall_s));
    }
}

/// Non-negative seconds to whole microseconds for counter arithmetic.
fn micros(seconds: f64) -> u64 {
    (seconds.max(0.0) * 1e6).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_command, encode_submit, value_u64};
    use dvfs_model::TaskClass;
    use dvfs_net::Handler;

    /// The one handler over a paced scheduler with `slots` admission
    /// slots a shard and no ticker: its workers pull only when a test
    /// ticks.
    fn paced(tick: Duration, slots: usize, shards: usize) -> Shared {
        let metrics = Arc::new(Registry::new());
        let cfg = SchedulerConfig {
            cores: 1,
            queue_capacity: slots * shards,
            shards,
            mode: Mode::Paced { speed: 1.0 },
            ..SchedulerConfig::default()
        };
        let scheduler = Scheduler::new(cfg, Arc::clone(&metrics));
        scheduler.start_clock();
        Shared {
            scheduler,
            tick,
            metrics,
            max_connections: 1,
            shutdown: AtomicBool::new(false),
        }
    }

    /// A submit long enough never to complete inside a test; the
    /// interactive class may use every slot.
    fn submit_id(id: Option<u64>) -> Cow<'static, str> {
        encode_submit(id, 1_000_000_000_000, TaskClass::Interactive, None).into()
    }

    fn submit() -> Cow<'static, str> {
        submit_id(None)
    }

    fn cmd(name: &str) -> Cow<'static, str> {
        encode_command(name).into()
    }

    fn responses(out: &[u8]) -> Vec<Response> {
        std::str::from_utf8(out)
            .unwrap()
            .lines()
            .map(|line| Response::decode(line).unwrap())
            .collect()
    }

    /// The pace-then-shed boundary: with a worker that never pulls, an
    /// 8-slot queue admits 8, the 9th submit waits out the bound and is
    /// shed for a reason of its own, the submits behind it are shed at
    /// once — a batch pays one bound, not one a line — and the
    /// `shutdown` behind them is still acknowledged.
    #[test]
    fn a_wedged_worker_costs_a_batch_one_bound_and_then_sheds() {
        let tick = Duration::from_millis(1);
        let bound = tick * 100;
        let shared = paced(tick, 8, 1);
        let mut lines = vec![submit(); 12];
        lines.push(cmd("shutdown"));
        lines.push(cmd("ping"));
        let mut out = Vec::new();
        let began = crate::clock::wall_now();
        let answered = shared.answer(&lines, began, &mut out, Caller::MayWait);
        let took = began.elapsed();
        assert_eq!(answered, Answered::Stop);
        assert!(took >= bound, "the 9th submit waits the bound: {took:?}");
        assert!(took < bound * 3, "one bound a batch, not a line: {took:?}");

        let got = responses(&out);
        assert_eq!(got.len(), 13, "nothing behind the shutdown is answered");
        assert!(got[..8].iter().all(Response::is_ok));
        for shed in &got[8..12] {
            let Response::Err { kind, message } = shed else {
                panic!("expected a shed: {shed:?}");
            };
            assert_eq!(*kind, ErrorKind::Overloaded);
            assert!(message.contains("shard worker behind"), "{message}");
            assert!(!message.contains("admission queue full"), "{message}");
        }
        assert_eq!(got[12], Response::ok());

        let count = |name: &str| shared.metrics.counter(name).get();
        assert_eq!(count("shed_worker_behind"), 4);
        assert_eq!(count("paced_waits"), 4);
        assert_eq!(shared.metrics.histogram("pace_wait_s").count(), 4);
        // The books balance once the round is drained.
        assert!(shared.scheduler.drain_run().is_ok());
        assert_eq!((count("submitted"), count("completed")), (12, 8));
        assert_eq!(
            count("submitted"),
            count("completed") + count("shed") + count("rejected_invalid")
        );
    }

    /// One wait a submit: once its own worker has pulled, it is admitted
    /// even though another shard's worker is (still) behind.
    #[test]
    fn a_submit_that_waited_for_its_worker_is_not_held_up_by_another() {
        let tick = Duration::from_millis(5);
        let shared = paced(tick, 8, 2);
        let now = crate::clock::wall_now();
        let mut out = Vec::new();
        // Explicit ids hash to shards: one task in each queue.
        let both = [submit_id(Some(0)), submit_id(Some(1))];
        shared.answer(&both, now, &mut out, Caller::MayWait);
        assert!(responses(&out).iter().all(Response::is_ok));
        std::thread::sleep(tick * 2); // both queues go stale
        out.clear();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let third = [submit_id(Some(2))];
                shared.answer(&third, now, &mut out, Caller::MayWait)
            });
            // It waits on shard 0, the first stale one; only that
            // shard's worker pulls.
            while shared.metrics.counter("paced_waits").get() == 0 {
                std::thread::yield_now();
            }
            assert_eq!(shared.scheduler.shard_queue(0).drain().len(), 1);
            assert_eq!(waiter.join().unwrap(), Answered::All);
        });
        assert!(responses(&out)[0].is_ok(), "{:?}", responses(&out));
        assert_eq!(shared.metrics.counter("shed").get(), 0);
    }

    /// A line the event loop stopped at is decoded again by the caller
    /// that may wait, and must still be counted once: answering a
    /// batch as the reactor does — on the loop up to the line that
    /// would block, from there as a caller that may wait — leaves every
    /// counter where answering the same lines without the loop does.
    #[test]
    fn a_line_the_loop_stopped_at_is_counted_once() {
        // Every counter but the ones the worker thread bumps in its own
        // time.
        let counters = |shared: &Shared| match shared.metrics.snapshot() {
            serde::Value::Object(mut sections) => match sections.swap_remove(0).1 {
                serde::Value::Object(mut counters) => {
                    counters.retain(|(name, _)| !name.starts_with("actuation"));
                    counters
                }
                other => panic!("counters are an object: {other:?}"),
            },
            other => panic!("snapshot is an object: {other:?}"),
        };
        // Would block at: a submit whose queue is full; a `trace`.
        let full_queue = vec![
            cmd("ping"),
            "garbage".into(),
            submit(),
            submit(),
            submit(),
            cmd("no-such-command"),
            submit(),
        ];
        let slow_command = vec![submit(), cmd("trace"), "garbage".into(), submit()];
        for (lines, at, malformed) in [(full_queue, 4, 2), (slow_command, 1, 1)] {
            let hour = Duration::from_secs(3600);
            let [split, whole] = [paced(hour, 2, 1), paced(hour, 2, 1)];
            let now = crate::clock::wall_now();

            let mut on_loop = Vec::new();
            let answered = split.answer(&lines, now, &mut on_loop, Caller::EventLoop);
            assert_eq!(answered, Answered::WouldBlock(at));
            let mut reference = Vec::new();
            whole.answer(&lines[..at], now, &mut reference, Caller::MayWait);
            assert_eq!(on_loop, reference);
            assert_eq!(counters(&split), counters(&whole), "nothing for line {at}");

            // The workers pull, and both answer the rest.
            let mut outs = [Vec::new(), Vec::new()];
            for (shared, out) in [&split, &whole].into_iter().zip(&mut outs) {
                shared.scheduler.tick();
                let answered = shared.answer(&lines[at..], now, out, Caller::MayWait);
                assert_eq!(answered, Answered::All);
                assert_eq!(responses(out).len(), lines.len() - at);
            }
            assert_eq!(counters(&split), counters(&whole));
            assert_eq!(split.metrics.counter("malformed_requests").get(), malformed);
        }
    }

    /// `stats` asks no worker, so the event loop answers it: a batch of
    /// one `stats` is answered in full, with the document, on a
    /// sharded paced service.
    #[test]
    fn the_event_loop_answers_stats() {
        let shared = paced(Duration::from_millis(10), 2, 2);
        let mut out = Vec::new();
        let now = crate::clock::wall_now();
        let answered = shared.answer(&[cmd("stats")], now, &mut out, Caller::EventLoop);
        assert_eq!(answered, Answered::All);
        let got = responses(&out);
        assert_eq!(got.len(), 1, "one stats line");
        assert_eq!(got[0].field("shards").and_then(value_u64), Some(2));
    }

    /// Regression: `accept_loop` used to `break` on any accept error, so
    /// one transient failure ended accepting for good while the daemon
    /// kept ticking. Every kind now maps to a retry.
    #[test]
    fn no_accept_error_ends_the_accept_loop() {
        use std::io::ErrorKind;
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
