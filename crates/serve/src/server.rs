//! The connection-handling daemon.
//!
//! One request path, two interchangeable wire drivers selected by
//! [`ServerConfig::net`]. The server's whole protocol logic is one
//! `dvfs_net::Handler`, the [`Scheduler`] itself (implemented once,
//! below): one pass over a batch of request lines lent from the read
//! buffer, each decoded once and answered straight into the
//! connection's output bytes, consecutive submits folded into a single
//! admission call. Both drivers live in `dvfs-net` and share its
//! framer, so they cannot drift apart on the wire:
//!
//! - **`reactor`** (the default): the single-threaded epoll
//!   mini-reactor, multiplexing tens of thousands of connections on one
//!   thread. Its event loop may not wait, so the handler stops there
//!   before the first request that waits on the shard workers, and the
//!   reactor's slow lane has the rest of that batch answered.
//! - **`threads`**: an accept loop plus `dvfs_net::blocking::serve` on
//!   one thread per connection.
//!
//! Both shed connections over [`ServerConfig::max_connections`] at
//! accept time with the explicit `overloaded` wire response, and both
//! follow `dvfs_net::accept`'s policy on a failed `accept`: count it in
//! `accept_errors` and pause accepting for its back-off. A
//! malformed line produces a `bad_request` response and the connection
//! continues — client input can never crash the server. A stop is one
//! flag, raised by a wire `shutdown` (answered wherever it is read, so
//! it never waits behind slow work) or [`ServerHandle::shutdown`]; the
//! drivers finish, [`Scheduler::begin_shutdown`] drains the backlog and
//! catches the trace file up once, and every thread is joined before
//! [`ServerHandle::wait`] returns. Everything between a socket and the
//! handler — threads, channels, the mailbox — is `dvfs-net`'s; this
//! crate owns none of its own on the wire path.
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
#![deny(clippy::string_slice)]

use crate::metrics::Registry;
use crate::protocol::{parse_request, ErrorKind, Request, Response};
use crate::service::{Mode, Pace, Scheduler, SchedulerConfig, SubmitItem, Submitted};
use dvfs_net::{Answered, Caller, Output, Reactor};
use std::borrow::Cow;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// `dvfs_net::blocking::serve`.
    Threads,
    /// The `dvfs-net` epoll mini-reactor: every connection on one
    /// thread. The default.
    #[default]
    Reactor,
}

impl NetBackend {
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
    /// Wire front-end (the reactor by default).
    pub net: NetBackend,
    /// Open-connection budget; accepts beyond it are shed with the
    /// explicit `overloaded` wire response and closed.
    pub max_connections: usize,
}

impl ServerConfig {
    /// Defaults around an endpoint: 4 cores, replay mode, 1024-slot
    /// queue, 10 ms ticks, the reactor front-end.
    #[must_use]
    pub fn new(endpoint: Endpoint) -> Self {
        ServerConfig {
            endpoint,
            scheduler: SchedulerConfig::default(),
            tick: Duration::from_millis(10),
            trace_out: None,
            net: NetBackend::default(),
            max_connections: DEFAULT_MAX_CONNECTIONS,
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// The wire protocol over the scheduler — the one request path both
/// drivers call into.
impl dvfs_net::Handler for Scheduler {
    /// One pass over a batch of complete request lines: each line is
    /// decoded once and answered — its response line written to `out`
    /// — before the next is looked at. The batch's submits form one
    /// submit run stamped with `received` (when the batch's bytes came
    /// off the wire). Pings, `health`,
    /// `stats` (published worker cells and leaf-locked metrics only),
    /// `shutdown` (a flag), malformed lines and submits (a bounded
    /// queue push) wait for nothing — bar a paced submit whose shard
    /// worker is behind. That submit, and every request that waits on
    /// the shard workers or a file write, is answered only when
    /// `caller` may wait; the event loop's pass stops before it.
    fn answer(
        &self,
        lines: &[Cow<'_, str>],
        received: Instant,
        out: &mut Output<'_>,
        caller: Caller,
    ) -> Answered {
        let may_wait = caller == Caller::MayWait;
        let pace = Some(Pace::new(self.pace_tick, may_wait));
        let mut run = self.begin_run(received, pace);
        for (k, line) in lines.iter().enumerate() {
            let request = match parse_request(line) {
                Ok(request) => request,
                Err(msg) => {
                    self.metrics().counter("malformed_requests").inc();
                    Response::err(ErrorKind::BadRequest, msg).push_line(out.bytes);
                    continue;
                }
            };
            if matches!(
                request,
                Request::Drain | Request::Trace | Request::TraceStream
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
                        ack.push_line(out.bytes);
                        continue;
                    }
                    Submitted::Refused(refused) => refused,
                    Submitted::WouldBlock => return Answered::WouldBlock(k),
                },
                Request::Trace | Request::TraceStream if self.config().trace_capacity == 0 => {
                    let hint = "tracing is disabled (start the server with --trace-cap)";
                    Response::err(ErrorKind::BadRequest, hint)
                }
                Request::Ping => Response::ok(),
                Request::Health => self.health(),
                Request::Stats => self.stats(),
                Request::Drain => {
                    let resp = self.drain_run();
                    self.trace.flush_file();
                    resp
                }
                // A failed spill stays in `out` for the driver.
                Request::Trace => {
                    let _ = self.trace.write_trace(out);
                    self.trace.flush_file();
                    continue;
                }
                Request::TraceStream => {
                    let _ = self.trace.write_chunk(out);
                    continue;
                }
                // The drain runs once the drivers have stopped. The lines
                // behind owe nothing.
                Request::Shutdown => {
                    self.stop_admitting();
                    Response::ok().push_line(out.bytes);
                    return Answered::Stop;
                }
            };
            resp.push_line(out.bytes);
        }
        Answered::All
    }

    /// The response for a request line that blew the byte budget.
    fn oversized_line(&self, len: usize) -> String {
        self.metrics().counter("oversized_lines").inc();
        Response::err(
            ErrorKind::BadRequest,
            format!("request line exceeds {MAX_LINE_BYTES} bytes ({len} read)"),
        )
        .encode()
    }

    /// The explicit shed response written to a connection refused by
    /// the budget — the same `overloaded` error kind the admission
    /// queue uses.
    fn shed_line(&self, max_connections: usize) -> String {
        Response::err(
            ErrorKind::Overloaded,
            format!("connection budget exhausted ({max_connections} open connections)"),
        )
        .encode()
    }

    fn should_stop(&self) -> bool {
        self.is_shutting_down()
    }
}

/// Handle to a running server.
pub struct ServerHandle {
    scheduler: Arc<Scheduler>,
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
        Arc::clone(self.scheduler.metrics())
    }

    /// [`Scheduler::books_balanced`] of the server's scheduler.
    #[must_use]
    pub fn books_balanced(&self) -> bool {
        self.scheduler.books_balanced()
    }

    /// Shut down programmatically: raise the wire command's stop flag and
    /// return once the backlog is drained ([`Scheduler::begin_shutdown`]).
    pub fn shutdown(&self) {
        self.scheduler.begin_shutdown();
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

/// Bind and serve. Returns once the listener is accepting — and the
/// reactor, if it is the front end, holds its descriptors — leaving the
/// accept loop, connection handlers, and (in paced mode) the ticker on
/// background threads.
///
/// # Errors
/// Propagates bind failures, and the reactor's failure to take its
/// descriptors (`EMFILE`, say).
pub fn serve(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let mut scheduler = Scheduler::new(cfg.scheduler, Arc::new(Registry::new()));
    scheduler.pace_tick = cfg.tick;

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
    let reactor = match (cfg.net, &listener) {
        (NetBackend::Threads, _) => None,
        (NetBackend::Reactor, Listener::Unix(l)) => Some(Reactor::new(l)?),
        (NetBackend::Reactor, Listener::Tcp(l)) => Some(Reactor::new(l)?),
    };

    if let Some(path) = &cfg.trace_out {
        scheduler.trace.set_file(path.clone());
    }
    scheduler.start_clock();
    let scheduler = Arc::new(scheduler);

    let mut threads = Vec::with_capacity(3);
    if let Mode::Paced { .. } = cfg.scheduler.mode {
        let scheduler = Arc::clone(&scheduler);
        let tick = cfg.tick;
        threads.push(std::thread::spawn(move || {
            while !scheduler.is_shutting_down() {
                scheduler.wait_for_work(tick);
                scheduler.tick();
            }
        }));
    }
    let supervised = Arc::clone(&scheduler);
    threads.push(std::thread::spawn(move || {
        crate::supervise::run(&supervised)
    }));
    let n = cfg.max_connections.max(1);
    threads.push(front_end(Arc::clone(&scheduler), reactor, listener, n));

    Ok(ServerHandle {
        scheduler,
        endpoint,
        threads,
    })
}

/// The front-end thread: `s` serves `l` — on the reactor `r`, or a
/// thread per connection without one, `n` connections at most — until
/// the stop flag is up, then runs the shutdown drain (or waits for the
/// one a `ServerHandle::shutdown` began).
fn front_end(s: Arc<Scheduler>, r: Option<Reactor>, l: Listener, n: usize) -> JoinHandle<()> {
    std::thread::spawn(move || {
        match (r, l) {
            (Some(r), Listener::Unix(l)) => {
                reactor_loop(&s, r, n, || l.accept(), UnixStream::set_nonblocking)
            }
            (Some(r), Listener::Tcp(l)) => {
                reactor_loop(&s, r, n, || l.accept(), TcpStream::set_nonblocking)
            }
            (None, Listener::Unix(l)) => {
                accept_loop(&s, n, || l.accept(), UnixStream::set_read_timeout)
            }
            (None, Listener::Tcp(l)) => {
                accept_loop(&s, n, || l.accept(), TcpStream::set_read_timeout)
            }
        }
        s.begin_shutdown();
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

/// How often a front end that is waiting on its sockets looks at the
/// shutdown flag: the reactor's `epoll_wait` timeout, and the read
/// timeout of a threads-backend connection.
const STOP_POLL: Duration = Duration::from_millis(100);

/// The `threads` backend: accept (sleeping out `dvfs_net::accept`'s
/// back-off after an error), shed over budget, and hand every admitted
/// connection to `dvfs_net::blocking::serve` on a thread of its own.
/// The scope joins the connection threads on the way out and keeps no
/// handle per connection, so connection churn accumulates nothing.
fn accept_loop<S: Read + Write + Send, A>(
    scheduler: &Scheduler,
    max_connections: usize,
    accept: impl Fn() -> std::io::Result<(S, A)>,
    set_read_timeout: fn(&S, Option<Duration>) -> std::io::Result<()>,
) {
    use dvfs_net::accept::{after_accept_error, AcceptRetry, ACCEPT_BACKOFF};
    let metrics = scheduler.metrics();
    let open = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        while !scheduler.is_shutting_down() {
            let mut stream = match accept() {
                Ok((stream, _)) => stream,
                Err(e) => {
                    match after_accept_error(e.kind()) {
                        AcceptRetry::Poll => std::thread::sleep(ACCEPT_POLL),
                        AcceptRetry::Now => {}
                        AcceptRetry::CountAndBackOff => {
                            metrics.counter("accept_errors").inc();
                            std::thread::sleep(ACCEPT_BACKOFF);
                        }
                    }
                    continue;
                }
            };
            if open.load(Ordering::SeqCst) >= max_connections {
                // Shed at the door with the explicit wire response,
                // mirroring the reactor's budget.
                metrics.counter("net_accepts_shed").inc();
                let shed = dvfs_net::Handler::shed_line(scheduler, max_connections);
                let _ = writeln!(stream, "{shed}");
                continue; // stream drops: connection closed
            }
            open.fetch_add(1, Ordering::SeqCst);
            metrics.counter("net_accepts").inc();
            let guard = ConnGuard(&open);
            scope.spawn(move || {
                let _guard = guard;
                // The driver polls the shutdown flag between reads, so
                // idle connections must time out of `read` or they
                // would pin the server open.
                if set_read_timeout(&stream, Some(STOP_POLL)).is_ok() {
                    let _ = dvfs_net::blocking::serve(&mut stream, MAX_LINE_BYTES, scheduler);
                }
            });
        }
    });
}

/// The `reactor` backend: run the `dvfs-net` mini-reactor over the
/// streams `accept` takes, made nonblocking, until the stop flag is up
/// and the replies owed are written out.
fn reactor_loop<S: Read + Write + AsRawFd, A>(
    scheduler: &Scheduler,
    reactor: Reactor,
    max_connections: usize,
    accept: impl Fn() -> std::io::Result<(S, A)>,
    set_nonblocking: fn(&S, bool) -> std::io::Result<()>,
) {
    let accept = || accept().and_then(|(s, _)| set_nonblocking(&s, true).map(|()| s));
    let cfg = dvfs_net::ReactorConfig {
        max_connections,
        max_line_bytes: MAX_LINE_BYTES,
        poll_timeout_ms: STOP_POLL.as_millis() as i32,
    };
    let mut observer = MetricsObserver {
        metrics: Arc::clone(scheduler.metrics()),
        peak: 0,
    };
    if let Err(e) = reactor.run(accept, &cfg, scheduler, &mut observer) {
        observer.metrics.counter("accept_errors").inc();
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

    fn on_accept_error(&mut self) {
        self.metrics.counter("accept_errors").inc();
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
    use std::io::{BufRead, BufReader};

    /// The one handler, a paced scheduler pacing submits to `tick`,
    /// with `slots` admission slots a shard and no ticker: its workers
    /// pull only when a test ticks.
    fn paced(tick: Duration, slots: usize, shards: usize) -> Scheduler {
        let cfg = SchedulerConfig {
            cores: 1,
            queue_capacity: slots * shards,
            shards,
            mode: Mode::Paced { speed: 1.0 },
            ..SchedulerConfig::default()
        };
        let mut scheduler = Scheduler::new(cfg, Arc::new(Registry::new()));
        scheduler.pace_tick = tick;
        scheduler.start_clock();
        scheduler
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
        let scheduler = paced(tick, 8, 1);
        let mut lines = vec![submit(); 12];
        lines.push(cmd("shutdown"));
        lines.push(cmd("ping"));
        let mut out = Vec::new();
        let began = crate::clock::wall_now();
        let answered = scheduler.answer(
            &lines,
            began,
            &mut Output::new(&mut out, None),
            Caller::MayWait,
        );
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

        let count = |name: &str| scheduler.metrics().counter(name).get();
        assert_eq!(count("shed_worker_behind"), 4);
        assert_eq!(count("paced_waits"), 4);
        assert_eq!(scheduler.metrics().histogram("pace_wait_s").count(), 4);
        // The books balance once the round is drained.
        assert!(scheduler.drain_run().is_ok());
        assert_eq!((count("submitted"), count("completed")), (12, 8));
        assert!(scheduler.books_balanced());
    }

    /// One wait a submit: once its own worker has pulled, it is admitted
    /// even though another shard's worker is (still) behind.
    #[test]
    fn a_submit_that_waited_for_its_worker_is_not_held_up_by_another() {
        let tick = Duration::from_millis(5);
        let scheduler = paced(tick, 8, 2);
        let now = crate::clock::wall_now();
        let mut out = Vec::new();
        // Explicit ids hash to shards: one task in each queue.
        let both = [submit_id(Some(0)), submit_id(Some(1))];
        scheduler.answer(
            &both,
            now,
            &mut Output::new(&mut out, None),
            Caller::MayWait,
        );
        assert!(responses(&out).iter().all(Response::is_ok));
        std::thread::sleep(tick * 2); // both queues go stale
        out.clear();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let third = [submit_id(Some(2))];
                scheduler.answer(
                    &third,
                    now,
                    &mut Output::new(&mut out, None),
                    Caller::MayWait,
                )
            });
            // It waits on shard 0, the first stale one; only that
            // shard's worker pulls.
            while scheduler.metrics().counter("paced_waits").get() == 0 {
                std::thread::yield_now();
            }
            assert_eq!(scheduler.shard_queue(0).drain().len(), 1);
            assert_eq!(waiter.join().unwrap(), Answered::All);
        });
        assert!(responses(&out)[0].is_ok(), "{:?}", responses(&out));
        assert_eq!(scheduler.metrics().counter("shed").get(), 0);
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
        let counters = |scheduler: &Scheduler| match scheduler.metrics().snapshot() {
            serde_json::Value::Object(mut sections) => match sections.swap_remove(0).1 {
                serde_json::Value::Object(mut counters) => {
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
            let answered = split.answer(
                &lines,
                now,
                &mut Output::new(&mut on_loop, None),
                Caller::EventLoop,
            );
            assert_eq!(answered, Answered::WouldBlock(at));
            let mut reference = Vec::new();
            whole.answer(
                &lines[..at],
                now,
                &mut Output::new(&mut reference, None),
                Caller::MayWait,
            );
            assert_eq!(on_loop, reference);
            assert_eq!(counters(&split), counters(&whole), "nothing for line {at}");

            // The workers pull, and both answer the rest.
            let mut outs = [Vec::new(), Vec::new()];
            for (scheduler, out) in [&split, &whole].into_iter().zip(&mut outs) {
                scheduler.tick();
                let answered = scheduler.answer(
                    &lines[at..],
                    now,
                    &mut Output::new(out, None),
                    Caller::MayWait,
                );
                assert_eq!(answered, Answered::All);
                assert_eq!(responses(out).len(), lines.len() - at);
            }
            assert_eq!(counters(&split), counters(&whole));
            assert_eq!(
                split.metrics().counter("malformed_requests").get(),
                malformed
            );
        }
    }

    /// `stats` asks no worker, so the event loop answers it: a batch of
    /// one `stats` is answered in full, with the document, on a
    /// sharded paced service.
    #[test]
    fn the_event_loop_answers_stats() {
        let scheduler = paced(Duration::from_millis(10), 2, 2);
        let mut out = Vec::new();
        let now = crate::clock::wall_now();
        let answered = scheduler.answer(
            &[cmd("stats")],
            now,
            &mut Output::new(&mut out, None),
            Caller::EventLoop,
        );
        assert_eq!(answered, Answered::All);
        let got = responses(&out);
        assert_eq!(got.len(), 1, "one stats line");
        assert_eq!(got[0].field("shards").and_then(value_u64), Some(2));
    }

    /// `serve`'s reactor front end and handle over `scheduler` (a
    /// `paced` fixture, so no ticker), listening on loopback TCP.
    fn serve_reactor(scheduler: Scheduler) -> ServerHandle {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
        let reactor = Reactor::new(&listener).unwrap();
        let scheduler = Arc::new(scheduler);
        let front = front_end(
            Arc::clone(&scheduler),
            Some(reactor),
            Listener::Tcp(listener),
            8,
        );
        ServerHandle {
            scheduler,
            endpoint,
            threads: vec![front],
        }
    }

    /// A connection to `handle` that sends `lines` in one write; a read
    /// gives up after 10 s rather than hang a failing test.
    fn send(handle: &ServerHandle, lines: &[Cow<'_, str>]) -> BufReader<TcpStream> {
        let Endpoint::Tcp(addr) = handle.endpoint() else {
            panic!("serve_reactor listens on TCP");
        };
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let bytes: String = lines.iter().map(|line| format!("{line}\n")).collect();
        stream.write_all(bytes.as_bytes()).unwrap();
        BufReader::new(stream)
    }

    /// Every response a connection reads before EOF.
    fn read_to_eof(reader: BufReader<TcpStream>) -> Vec<Response> {
        let lines = reader.lines().map(Result::unwrap);
        lines.map(|line| Response::decode(&line).unwrap()).collect()
    }

    /// Wait until a submit of the handle's server waits for its worker.
    fn wait_for_a_paced_wait(handle: &ServerHandle) {
        let began = crate::clock::wall_now();
        while handle.metrics().counter("paced_waits").get() == 0 {
            assert!(began.elapsed() < Duration::from_secs(5), "no submit waited");
            std::thread::yield_now();
        }
    }

    /// A `shutdown` waits on nothing the slow lane holds. Connection A
    /// sends one submit more than its shard has slots, so the last one
    /// waits on the lane for a worker that never pulls (its bound is
    /// 100 ticks, 3 s). Connection B's `shutdown` is answered on the
    /// event loop at once, the waiting submit is refused as the server
    /// drains, and A reads a reply for every line before EOF.
    #[test]
    fn a_shutdown_is_acked_past_a_submit_waiting_on_the_lane() {
        let handle = serve_reactor(paced(Duration::from_millis(30), 2, 1));
        let a = send(&handle, &[submit(), submit(), submit()]);
        wait_for_a_paced_wait(&handle);
        let began = crate::clock::wall_now();
        let mut b = send(&handle, &[cmd("shutdown")]);
        let mut ack = String::new();
        b.read_line(&mut ack).unwrap();
        let took = began.elapsed();
        assert_eq!(Response::decode(ack.trim()), Ok(Response::ok()));
        assert!(
            took < Duration::from_millis(500),
            "shutdown acked after {took:?}"
        );

        let got = read_to_eof(a);
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(got[..2].iter().all(Response::is_ok), "{got:?}");
        assert!(
            matches!(&got[2], Response::Err { kind, .. } if *kind == ErrorKind::ShuttingDown),
            "{got:?}"
        );
        let scheduler = Arc::clone(&handle.scheduler);
        handle.wait();
        assert!(scheduler.books_balanced());
    }

    /// A `drain` deferred to the lane behind a waiting submit is
    /// answered before its connection closes, whichever way the stop
    /// comes: a wire `shutdown` the event loop answers, or
    /// `ServerHandle::shutdown` while the drain is still on the lane.
    #[test]
    fn a_drain_on_the_lane_is_answered_before_its_connection_closes() {
        for by_wire in [true, false] {
            let handle = serve_reactor(paced(Duration::from_millis(30), 2, 1));
            let a = send(&handle, &[submit(), submit(), submit(), cmd("drain")]);
            wait_for_a_paced_wait(&handle);
            if by_wire {
                let b = send(&handle, &[cmd("shutdown")]);
                assert_eq!(read_to_eof(b), [Response::ok()]);
            } else {
                handle.shutdown();
            }
            let got = read_to_eof(a);
            assert_eq!(got.len(), 4, "by wire: {by_wire}: {got:?}");
            assert!(got[3].is_ok(), "the drain's report: {got:?}");
            let scheduler = Arc::clone(&handle.scheduler);
            handle.wait();
            assert!(scheduler.books_balanced());
        }
    }

    /// The backend is a config value: `ServerConfig::new` takes the
    /// reactor whatever the environment says, including the variable
    /// that used to select the backend (spelled in two halves here, so
    /// a search for the retired knob finds only the history).
    #[test]
    fn the_backend_is_not_read_from_the_environment() {
        std::env::set_var(concat!("DVFS_SERVE", "_NET"), "threads");
        let cfg = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()));
        assert_eq!(cfg.net, NetBackend::Reactor);
    }
}
