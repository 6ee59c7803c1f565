//! The scheduler service: wire requests in, LMC scheduling decisions
//! out.
//!
//! Arrival stamps and tick targets read one engine clock, shared with
//! every worker and restarted by every drain, so each round begins at
//! engine time zero. What moves it depends on the mode:
//!
//! * **Replay** — nothing: it reads zero. Submissions buffer in the
//!   admission queues with their explicit arrival times; a `drain`
//!   command runs the whole workload through the wall-clock executors
//!   at once. Because the buffered tasks reach each engine in
//!   submission order with untouched arrivals, a drained round on a
//!   single shard is *bit-identical* to running `LeastMarginalCost`
//!   over the same trace on the simulator — the determinism contract
//!   the end-to-end tests pin.
//! * **Paced** — wall time (`engine_seconds = wall_seconds * speed`),
//!   which a ticker thread steps the executors toward; submissions
//!   arrive at the current engine time and completions stream into the
//!   latency/cost histograms as they happen.
//!
//! ## Sharding
//!
//! The service runs `shards` independent engine instances, each owning
//! its own `RealTimeExecutor`, `LeastMarginalCost` policy state, and
//! bounded admission queue (the configured capacity is split across
//! shards). A router assigns each submission to a shard:
//!
//! * **Explicit ids** hash to `id % shards`, so replaying a recorded
//!   trace is reproducible — the same task always lands on the same
//!   shard.
//! * **Auto-assigned ids** go to the shard with the most class headroom
//!   against its admission depth plus engine backlog (`route` says why
//!   both).
//!
//! `tick`, `drain` and shutdown fan out across shards in ascending
//! index order and merge the per-shard results deterministically;
//! `stats` reads what each worker last published, in the same order.
//! With `shards = 1` the service is exactly the single-engine scheduler
//! it replaces.
//!
//! Routing is one-shot; shards that diverge afterwards are evened out
//! by the optional cross-shard rebalancer ([`crate::rebalance`]), which
//! runs at the end of every `tick` and never on the replay path.
//!
//! ## Threading model
//!
//! Every shard's engine lives on its shard's **worker thread** (the
//! crate's `worker` module says how it owns it). The submission path
//! never touches a worker: it reads an atomic shutdown flag, reserves
//! the task id in the id ledger (the `ids` module) under a small mutex
//! taken once per batch, and hands the task to one shard's admission
//! queue (which has its own lock and re-checks the shutdown flag inside
//! it — see `admission::AdmissionQueue::try_submit_stamped`).
//! `tick` and `drain` broadcast a command to every worker and collect
//! the one-shot replies in ascending shard order, so a slow scheduling
//! round never blocks admission, a slow round on one shard never blocks
//! the others — and with `shards = N` on an N-core host the rounds
//! genuinely run in parallel. `stats` and `health` touch no worker: they read the
//! advisory cells each worker publishes after every command, so
//! neither waits behind a running round.
//!
//! A drain is still a global round barrier: it holds the id ledger
//! across the engine clock's restart and the id namespace reset, which
//! serializes rounds, while per-shard reports are collected in
//! ascending order. The barrier is released *before* the reports are
//! merged and encoded — no cross-shard state is read during the merge,
//! so nothing needs to stay blocked across it.
//!
//! [`Scheduler`] itself is a façade over submit / tick / drain /
//! shutdown. What it decides with lives in sibling modules, one
//! decision each: the id namespace (`ids`), hot→cold migration
//! (`rebalance`), trace retention and the `--trace-out` file
//! (`tracestore`), the wire documents (`report`), and stall
//! detection (`supervise`).

use crate::admission::{GateOutcome, ShedReason};
use crate::clock::EngineClock;
use crate::codec::Ack;
pub use crate::config::{service_platform, Mode, SchedulerConfig, SubmitItem};
use crate::executor::RoundReport;
use crate::ids::IdLedger;
use crate::metrics::{AdvisoryCell, Counter, Histogram, Registry};
use crate::protocol::{field_u64, ErrorKind, Response};
pub use crate::rebalance::RebalanceConfig;
use crate::stage::{STAGE_ADMIT, STAGE_FRAME};
use crate::supervise::StallLatches;
use crate::tracestore::TraceStore;
use crate::worker::{self, Command, ShardShared, WorkerHandle};
use crate::{rebalance, report};
use dvfs_model::{Task, TaskClass};
use dvfs_trace::SharedRing;
use serde_json::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::time::{Duration, Instant};

#[cfg(test)]
type RoundHook = Box<dyn FnOnce(&Scheduler) + Send>;

/// The long-running scheduler: a router over N shards — each an
/// admission queue feeding an engine owned by a dedicated worker
/// thread — plus a global id ledger, the engine clock (shared with the
/// workers), and metrics.
pub struct Scheduler {
    cfg: SchedulerConfig,
    shards: Vec<Arc<ShardShared>>,
    /// One worker per shard, same indexing as `shards`. Commands are
    /// broadcast in ascending order and replies collected in ascending
    /// order, which is what makes every fan-out deterministic.
    workers: Vec<WorkerHandle>,
    metrics: Arc<Registry>,
    /// The books, resolved once: every submit ends in exactly one
    /// terminal state (see [`Scheduler::books_balanced`]).
    submitted: Arc<Counter>,
    admitted: Arc<Counter>,
    completed: Arc<Counter>,
    shed: Arc<Counter>,
    shed_worker_behind: Arc<Counter>,
    rejected_invalid: Arc<Counter>,
    rejected_duplicate_id: Arc<Counter>,
    rejected_shutting_down: Arc<Counter>,
    /// The wire-side stage histograms; the workers hold the rest.
    stage_frame: Arc<Histogram>,
    stage_admit: Arc<Histogram>,
    shutting_down: AtomicBool,
    shutdown_drain: Once,
    /// How often a paced worker is meant to empty its queue: what a
    /// wire submitter's [`Pace`] waits on (`serve` sets its tick).
    pub(crate) pace_tick: Duration,
    /// The round's task-id namespace, global across shards so
    /// duplicate-id rejection holds service-wide.
    ids: Mutex<IdLedger>,
    /// The engine clock, shared with every worker: submissions are
    /// stamped with it and ticks step toward it.
    clock: Arc<EngineClock>,
    /// Signals `wait_for_work` when any shard admits a task.
    work_mx: Mutex<()>,
    work_cv: Condvar,
    /// Rotating start offset for auto-id routing, so fully tied shards
    /// (e.g. a paced service whose ticker keeps every queue empty)
    /// round-robin instead of piling onto shard 0.
    router_cursor: AdvisoryCell,
    /// Trace events drained from the shard rings so far, in drain
    /// order (ascending shard within each round).
    trace: TraceStore,
    stalls: StallLatches,
    /// Test-only seam: runs once inside the next `tick`/`drain` after
    /// the queues were drained, standing in for a racing submitter.
    #[cfg(test)]
    round_hook: Mutex<Option<RoundHook>>,
}

impl Scheduler {
    /// Build a scheduler publishing into `metrics`, spawning one worker
    /// thread per shard.
    #[must_use]
    pub fn new(cfg: SchedulerConfig, metrics: Arc<Registry>) -> Self {
        let clock = match cfg.mode {
            Mode::Paced { speed } => EngineClock::Wall {
                speed,
                anchor: Mutex::default(),
            },
            Mode::Replay => EngineClock::Virtual(AtomicU64::default()),
        };
        Self::with_clock(cfg, metrics, Arc::new(clock))
    }

    /// [`Scheduler::new`] on `clock` — a virtual one lets its holder
    /// step a paced service by hand.
    pub(crate) fn with_clock(
        cfg: SchedulerConfig,
        metrics: Arc<Registry>,
        clock: Arc<EngineClock>,
    ) -> Self {
        let n = cfg.shards.max(1);
        let shards: Vec<Arc<ShardShared>> = (0..n)
            .map(|k| {
                // Split the total capacity evenly, remainder to the low
                // shards; every shard keeps at least one slot.
                let cap = (cfg.queue_capacity / n + usize::from(k < cfg.queue_capacity % n)).max(1);
                Arc::new(ShardShared::new(k, cap, cfg.trace_capacity, &metrics))
            })
            .collect();
        // Health-plane metrics exist from the start, so `stats` and
        // `health` expose them even before the first stall, failed send
        // or paced wait.
        let _ = metrics.counter("worker_stalled");
        let _ = metrics.counter("paced_waits");
        let _ = metrics.histogram("pace_wait_s");
        metrics.gauge("degraded").set(0);
        let lmc_hist = metrics.histogram("lmc_decision_us");
        let completed = metrics.counter("completed");
        let workers = shards
            .iter()
            .map(|sh| {
                let (lmc, done) = (Arc::clone(&lmc_hist), Arc::clone(&completed));
                worker::spawn(Arc::clone(sh), cfg, Arc::clone(&clock), &metrics, lmc, done)
            })
            .collect();
        Scheduler {
            trace: TraceStore::new(cfg.params, Arc::clone(&metrics)),
            shards,
            workers,
            submitted: metrics.counter("submitted"),
            admitted: metrics.counter("admitted"),
            completed,
            shed: metrics.counter("shed"),
            shed_worker_behind: metrics.counter("shed_worker_behind"),
            rejected_invalid: metrics.counter("rejected_invalid"),
            rejected_duplicate_id: metrics.counter("rejected_duplicate_id"),
            rejected_shutting_down: metrics.counter("rejected_shutting_down"),
            stage_frame: metrics.histogram(STAGE_FRAME),
            stage_admit: metrics.histogram(STAGE_ADMIT),
            metrics,
            shutting_down: AtomicBool::new(false),
            shutdown_drain: Once::new(),
            pace_tick: Duration::from_millis(10),
            ids: Mutex::default(),
            clock,
            work_mx: Mutex::new(()),
            work_cv: Condvar::new(),
            router_cursor: AdvisoryCell::default(),
            stalls: StallLatches::new(n),
            #[cfg(test)]
            round_hook: Mutex::new(None),
            cfg,
        }
    }

    fn lock_ids(&self) -> MutexGuard<'_, IdLedger> {
        self.ids.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// The metrics registry this scheduler publishes into.
    #[must_use]
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Tasks admitted and not yet completed (queued or in an engine).
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.admitted.get().saturating_sub(self.completed.get())
    }

    /// The books' one identity: nothing is in flight, and every submit
    /// ended in exactly one terminal state — completed, shed, or
    /// rejected (invalid, duplicate id, shutting down). Holds after
    /// every drain that no submit races.
    #[must_use]
    pub fn books_balanced(&self) -> bool {
        let rejected = self.rejected_invalid.get()
            + self.rejected_duplicate_id.get()
            + self.rejected_shutting_down.get();
        self.in_flight() == 0
            && self.submitted.get() == self.completed.get() + self.shed.get() + rejected
    }

    /// `stats`' and `health`'s `books` object: each books counter, what
    /// is in flight, and [`Scheduler::books_balanced`] as 0 or 1.
    fn books(&self) -> Value {
        Value::Object(vec![
            field_u64("submitted", self.submitted.get()),
            field_u64("admitted", self.admitted.get()),
            field_u64("completed", self.completed.get()),
            field_u64("shed", self.shed.get()),
            field_u64("shed_worker_behind", self.shed_worker_behind.get()),
            field_u64("rejected_invalid", self.rejected_invalid.get()),
            field_u64("rejected_duplicate_id", self.rejected_duplicate_id.get()),
            field_u64("rejected_shutting_down", self.rejected_shutting_down.get()),
            field_u64("in_flight", self.in_flight()),
            field_u64("balanced", u64::from(self.books_balanced())),
        ])
    }

    /// Total queued depth across all shards.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue.depth()).sum()
    }

    /// Block until any shard's queue is non-empty or `timeout` passes;
    /// returns the total depth observed. Lets a paced ticker sleep
    /// between ticks without missing a burst on any shard.
    pub fn wait_for_work(&self, timeout: Duration) -> usize {
        let guard = self.work_mx.lock().unwrap_or_else(PoisonError::into_inner);
        let depth = self.queue_depth();
        if depth > 0 {
            return depth;
        }
        let _unused = self
            .work_cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        self.queue_depth()
    }

    /// Whether shutdown has begun.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Start the engine clock (idempotent). The server calls it once it
    /// serves; until then paced engine time stands at zero.
    pub fn start_clock(&self) {
        self.clock.start();
    }

    /// Route a submission to a shard. Explicit ids hash (`id % shards`)
    /// so replays are reproducible; auto-assigned ids go to the shard
    /// with the most class headroom against its *combined* load —
    /// admission depth plus the engine backlog the worker publishes —
    /// ties broken by lower combined load and then by a rotating cursor,
    /// so fully tied shards (the steady state of a fast-ticking paced
    /// service) round-robin instead of all landing on shard 0. Scoring
    /// admission depth alone would go blind the moment a tick drains
    /// the queues: a shard with hundreds of tasks queued inside its
    /// engine would keep winning ties and attract every auto id.
    fn route(&self, explicit: bool, id: u64, class: TaskClass) -> usize {
        let n = self.shards.len();
        if n == 1 {
            return 0;
        }
        if explicit {
            return (id % n as u64) as usize;
        }
        let start = (self.router_cursor.add(1) % n as u64) as usize;
        let mut best = start;
        let mut best_headroom = 0usize;
        let mut best_load = usize::MAX;
        for i in 0..n {
            let k = (start + i) % n;
            let sh = &self.shards[k];
            let load = sh.queue.depth() + sh.backlog();
            let headroom = sh.queue.policy().effective_cap(class).saturating_sub(load);
            if headroom > best_headroom || (headroom == best_headroom && load < best_load) {
                best = k;
                best_headroom = headroom;
                best_load = load;
            }
        }
        best
    }

    /// Handle a submit request end to end: id assignment, validation,
    /// shard routing, admission, metrics. Touches the id ledger and one
    /// shard's admission queue, never a worker.
    pub fn submit(
        &self,
        id: Option<u64>,
        cycles: u64,
        class: TaskClass,
        arrival: Option<f64>,
    ) -> Response {
        self.submit_many(&[SubmitItem {
            id,
            cycles,
            class,
            arrival,
        }])
        .into_iter()
        .next()
        .unwrap_or_else(|| Response::err(ErrorKind::Internal, "empty submit batch"))
    }

    /// Handle one batch of submits. Semantics are exactly sequential
    /// [`Scheduler::submit`] calls (responses in order, same counters,
    /// same trace records), but the id ledger is locked once for the
    /// whole batch, the engine clock is read once and the paced ticker
    /// is signaled once at the end instead of per task.
    pub fn submit_many(&self, items: &[SubmitItem]) -> Vec<Response> {
        // In-process submitters have no wire seams (the frame stage
        // records as near zero) and bring no pace: a full queue sheds.
        let mut run = self.begin_run(crate::clock::wall_now(), None);
        items
            .iter()
            .map(|item| match run.submit(*item) {
                Submitted::Ack(ack) => ack.response(),
                Submitted::Refused(refused) => refused,
                Submitted::WouldBlock => Response::err(ErrorKind::Internal, "submit would block"),
            })
            .collect()
    }

    /// A run of submits whose bytes came off the wire at `recv` (see
    /// [`SubmitRun`]). Only a paced service has a `pace`: a replay
    /// queue empties on a `drain` alone — which the same client may be
    /// about to send.
    pub(crate) fn begin_run(&self, recv: Instant, pace: Option<Pace>) -> SubmitRun<'_> {
        SubmitRun {
            sched: self,
            recv,
            pace: pace.filter(|_| matches!(self.cfg.mode, Mode::Paced { .. })),
            admitted: 0,
            open: None,
        }
    }

    /// Run the test-only round hook, if one is armed (no-op otherwise
    /// and in non-test builds).
    fn fire_round_hook(&self) {
        #[cfg(test)]
        {
            let hook = self
                .round_hook
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(hook) = hook {
                hook(self);
            }
        }
    }

    /// One paced step: broadcast a tick to every worker — each pulls
    /// admitted work into its engine, advances the executor clock to
    /// its wall-mapped target, and streams completions into the
    /// histograms — then collect the replies in ascending shard order.
    /// With more shards than one, the per-shard steps run genuinely in
    /// parallel on the worker threads.
    pub fn tick(&self) {
        worker::broadcast(&self.workers, "tick", |reply| Command::Tick { reply }).for_each(drop);
        rebalance::pass(
            &self.cfg.rebalance,
            &self.shards,
            &self.workers,
            &self.metrics,
        );
        self.fire_round_hook();
    }

    /// Run everything buffered (and, in paced mode, everything still in
    /// flight) to completion on every shard; return the per-shard
    /// reports in shard order. Each worker runs its round concurrently
    /// and stands up a fresh engine; the reports are collected in
    /// ascending shard order under the round barrier.
    ///
    /// The barrier is the id ledger, held from the engine clock's
    /// restart to the namespace reset, so two concurrent drains cannot
    /// interleave across shards. It is released before the caller
    /// merges or encodes the reports — nothing cross-shard is read
    /// during a merge, so no worker or lock stays held across it.
    pub fn drain_shards(&self) -> Vec<RoundReport> {
        let reports: Vec<RoundReport>;
        {
            // Hold the id ledger across the whole barrier: submissions
            // assign ids, stamp arrivals and enqueue under this lock, so
            // every task admitted before we take it is already in its
            // shard's queue (and gets pulled by the worker's drain
            // below), and none can slip in between a worker's queue
            // pull and the namespace reset — the window where an
            // old-round task and a post-reset id reuse would collide in
            // the next round's engine.
            let mut ids = self.lock_ids();
            // The next round's clock starts before any worker sees the
            // `Drain`: a tick a worker takes after it targets the fresh
            // clock, and one queued ahead of it steps the old engine by
            // nothing (ticks never step an engine backwards).
            self.clock.restart();
            reports = worker::broadcast(&self.workers, "drain", |reply| Command::Drain { reply })
                .collect();
            // Capture the round's trace before anything of the next
            // round can be recorded (submits record under the ledger).
            self.collect_trace_residue();
            ids.reset();
        }
        self.fire_round_hook();
        reports
    }

    /// Run the round on every shard and merge the reports in
    /// deterministic shard order. The programmatic form of the wire
    /// `drain` — end-to-end tests use it to compare served rounds
    /// against library runs task by task. The merge happens after the
    /// round barrier is released.
    pub fn drain_round(&self) -> RoundReport {
        RoundReport::merge(&self.drain_shards())
    }

    /// Whether lifecycle tracing is on (`trace_capacity > 0`).
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.cfg.trace_capacity > 0
    }

    /// Mirror the lifecycle trace into a JSONL file at `path` (the
    /// server's `--trace-out`); caught up by
    /// [`Scheduler::flush_trace_file`] and by every `trace_stream`.
    pub(crate) fn set_trace_file(&self, path: PathBuf) {
        self.trace.set_file(path);
    }

    /// Move every shard's live ring residue (events recorded since the
    /// last round boundary) into the trace store, ascending shard
    /// order.
    fn collect_trace_residue(&self) {
        for sh in &self.shards {
            if let Some(ring) = &sh.ring {
                self.trace.absorb(sh.index, ring.drain());
            }
        }
    }

    /// The retained accumulated trace as JSONL lines (one event per
    /// line, no trailing newline per line). Live ring residue is folded
    /// in first, so the result covers everything recorded and not yet
    /// streamed away: on a server that never used `trace_stream`, that
    /// is the complete run. The same lines back a `--trace-out` file
    /// and the wire `trace` response, byte for byte.
    #[must_use]
    pub fn trace_lines(&self) -> Vec<String> {
        self.collect_trace_residue();
        self.trace.lines()
    }

    /// Catch the `--trace-out` file (if one is set) up to everything
    /// recorded so far.
    pub(crate) fn flush_trace_file(&self) {
        if self.trace_enabled() {
            self.collect_trace_residue();
            self.trace.flush_file();
        }
    }

    /// Wire handler for `trace_stream`: everything recorded and not yet
    /// streamed, appended to the `--trace-out` file, forgotten
    /// server-side, and written into `out` as one reply line.
    pub fn trace_stream_run(&self, out: &mut Vec<u8>) {
        if !self.trace_enabled() {
            return report::tracing_disabled().push_line(out);
        }
        self.collect_trace_residue();
        self.trace.write_chunk(out, self.trace_dropped());
    }

    /// Events dropped by full (or zero-capacity) trace rings so far.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.ring.as_ref())
            .map(SharedRing::dropped)
            .sum()
    }

    /// Wire handler for `trace`: the accumulated trace as an array of
    /// JSONL strings plus the ring-drop counter, written into `out` as
    /// one reply line.
    pub fn trace_run(&self, out: &mut Vec<u8>) {
        if !self.trace_enabled() {
            return report::tracing_disabled().push_line(out);
        }
        self.collect_trace_residue();
        self.trace.write_trace(out, self.trace_dropped());
    }

    /// Wire handler for `drain`: run the round and encode the merged
    /// report plus the per-shard reports (merging and encoding happen
    /// after the round barrier is released).
    pub fn drain_run(&self) -> Response {
        report::drain(self.cfg.params, &self.drain_shards())
    }

    /// Wire handler for `stats`: registry snapshot plus per-shard
    /// depths, pending counts and clocks, as each worker last published
    /// them. Touches no worker, so the reactor serves it inline on the
    /// fast path, and it never waits behind a running round.
    pub fn stats(&self) -> Response {
        report::stats(&self.shards, &self.metrics, self.books())
    }

    /// One supervisor pass over the worker heartbeats (the `supervise`
    /// module's latches); returns whether any shard is stalled.
    pub fn check_stalls(&self, stall_after: Duration) -> bool {
        self.stalls.check(&self.shards, &self.metrics, stall_after)
    }

    /// Wire handler for `health`. Touches no worker and no engine, so
    /// the reactor serves it inline on the fast path.
    pub fn health(&self) -> Response {
        report::health(
            &self.shards,
            &self.metrics,
            self.books(),
            self.cfg.telemetry,
            self.trace_dropped(),
            self.trace.streamed(),
        )
    }

    /// Refuse new work; the front ends stop once they see it.
    pub(crate) fn stop_admitting(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Graceful shutdown, run once (a later or racing call returns when
    /// it is done): refuse new submissions, then drain until every
    /// admission queue is observed empty after a drain, so nothing
    /// admitted is lost. The first drain always runs: a tick that has
    /// pulled tasks but not yet published reads as empty. A submitter
    /// that passed the shutdown check before the flag was stored is
    /// caught by the depth re-check (under the queue locks the
    /// admission gate takes); every later one sees the flag inside the
    /// gate — so the loop ends. Then the `--trace-out` file catches up.
    pub fn begin_shutdown(&self) {
        self.stop_admitting();
        self.shutdown_drain.call_once(|| {
            loop {
                let _ = self.drain_shards();
                if self.queue_depth() == 0 {
                    break;
                }
            }
            self.flush_trace_file();
        });
    }
}

impl Drop for Scheduler {
    /// Stop and join every shard worker: hang up every channel first,
    /// then join them all, so no worker waits on a sibling's exit. A
    /// worker finishes the commands already queued before it sees the
    /// hang-up, so no in-flight round is abandoned. A worker that
    /// panicked has already surfaced the failure to whichever caller
    /// waited on its reply, so its join error is dropped here (a second
    /// panic mid-unwind would abort the process).
    fn drop(&mut self) {
        let threads: Vec<_> = self.workers.drain(..).map(WorkerHandle::hang_up).collect();
        for thread in threads {
            let _ = thread.join();
        }
    }
}

/// What a paced service's wire submitter brings to a shard worker that
/// is behind — its queue full, or its oldest task waiting for longer
/// than a tick: the submit waits for the worker's next pull, so
/// closed-loop clients are paced to the workers instead of filling the
/// queue and being shed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pace {
    /// When to stop waiting and shed instead; `None` for a submitter
    /// that may not wait at all. One deadline serves a whole run, so a
    /// wedged worker costs a batch one bound, not one a line; every
    /// pull that does come pushes it out again.
    give_up: Option<Instant>,
}

impl Pace {
    /// A worker that has not pulled for this many ticks is wedged, not
    /// behind: a saturated one pulls about once a tick.
    const BOUND_TICKS: u32 = 100;

    pub(crate) fn new(tick: Duration, may_wait: bool) -> Pace {
        let give_up = may_wait.then(|| crate::clock::wall_now() + tick * Self::BOUND_TICKS);
        Pace { give_up }
    }
}

/// What became of one submit.
#[derive(Debug)]
pub(crate) enum Submitted {
    Ack(Ack),
    /// Invalid, duplicate id, shutting down, shed.
    Refused(Response),
    /// Its shard's worker is behind and the submitter may not wait:
    /// nothing is counted or traced, and its id is free again.
    WouldBlock,
}

/// A submit turned away at the queue: no room, or (paced) a worker is
/// behind. Nothing is counted or traced yet and its id is free again.
struct Behind {
    shard: usize,
    id: u64,
    arrival: f64,
    reason: ShedReason,
}

/// The submits that arrived together — the submit lines of one wire
/// batch, or one in-process batch — sharing what is per-batch rather
/// than per-task: the wire stage stamps, the engine clock's reading
/// (they came off the wire together, so they arrive on it together),
/// and, when the run closes, the stage samples and the ticker wake-up.
/// A run opens at its first submit and closes on drop, or earlier —
/// [`SubmitRun::close`], before its owner waits on anything — to open
/// again at the next submit.
pub(crate) struct SubmitRun<'a> {
    sched: &'a Scheduler,
    /// When the bytes were read.
    recv: Instant,
    pace: Option<Pace>,
    /// Admissions since the run opened.
    admitted: u64,
    open: Option<OpenRun<'a>>,
}

struct OpenRun<'a> {
    /// When the run opened, i.e. its first line was decoded.
    framed: Instant,
    /// The engine clock's reading when the run opened.
    now: f64,
    /// The id ledger, held while the run is open: one lock round-trip
    /// a batch, not one a task. It is held across every
    /// admission-queue touch — the drain barrier takes it first, so
    /// every task admitted before is already in its shard's queue and
    /// none can slip in between a worker's pull and the namespace
    /// reset. The only other multi-lock paths (drain, shutdown) release
    /// every queue lock before taking the ledger, so no cycle exists.
    ids: MutexGuard<'a, IdLedger>,
}

impl SubmitRun<'_> {
    /// One submit: id assignment, validation, shard routing, admission,
    /// metrics — and, when the shard's worker is behind, what the run's
    /// [`Pace`] says: shed (no pace), report would-block, or wait for
    /// the worker's next pull and shed only if none comes. Touches the
    /// id ledger and one shard's admission queue, never a worker.
    pub(crate) fn submit(&mut self, item: SubmitItem) -> Submitted {
        let behind = match self.admit(item, true) {
            Ok(done) => return done,
            Err(behind) => behind,
        };
        let Some(pace) = self.pace else {
            return self.shed(item, &behind);
        };
        let Some(deadline) = pace.give_up else {
            return Submitted::WouldBlock;
        };
        // The one place a submit waits: until the worker has caught up
        // — its queue has room for the task and nothing in it older
        // than a tick, i.e. its next pull — or shutdown begins. The run
        // is closed meanwhile: a `drain` needs the ledger it holds.
        self.close();
        let s = self.sched;
        s.metrics.counter("paced_waits").inc();
        let began = crate::clock::wall_now();
        let caught_up =
            s.shards[behind.shard]
                .queue
                .wait_for_worker(item.class, s.pace_tick, deadline, || !s.is_shutting_down());
        s.metrics
            .histogram("pace_wait_s")
            .record(began.elapsed().as_secs_f64());
        if !caught_up {
            let reason = ShedReason::WorkerBehind;
            return self.shed(item, &Behind { reason, ..behind });
        }
        self.pace = Some(Pace::new(s.pace_tick, true));
        // Room is not a reservation: if others took it first, the
        // submit is shed after all.
        self.admit(item, false)
            .unwrap_or_else(|behind| self.shed(item, &behind))
    }

    /// Count a submit as shed, trace it, and word the `overloaded`
    /// response.
    fn shed(&self, item: SubmitItem, behind: &Behind) -> Submitted {
        let s = self.sched;
        s.submitted.inc();
        s.shed.inc();
        if behind.reason == ShedReason::WorkerBehind {
            s.shed_worker_behind.inc();
        }
        let sh = &s.shards[behind.shard];
        sh.shed.inc();
        sh.trace_submit(behind.arrival, behind.id, item.class, item.cycles, None);
        let message = behind.reason.to_string();
        Submitted::Refused(Response::err(ErrorKind::Overloaded, message))
    }

    /// Admit `item` or refuse it with a response (both counted), opening
    /// the run if need be — unless its queue has no room or, for a
    /// `fresh` submit (one that has not waited yet), a worker is behind.
    fn admit(&mut self, item: SubmitItem, fresh: bool) -> Result<Submitted, Behind> {
        let SubmitItem {
            id,
            cycles,
            class,
            arrival,
        } = item;
        let s = self.sched;
        let refuse = |books: &Counter, kind, message: String| {
            s.submitted.inc();
            books.inc();
            Ok(Submitted::Refused(Response::err(kind, message)))
        };
        let draining = || {
            let message = "server is draining".into();
            refuse(&s.rejected_shutting_down, ErrorKind::ShuttingDown, message)
        };
        if s.is_shutting_down() {
            return draining();
        }
        // The run's first submit: is a worker more than a tick behind
        // already?
        let stale = match (&self.open, self.pace) {
            (None, Some(_)) if fresh => s
                .shards
                .iter()
                .position(|sh| sh.queue.is_stale(s.pace_tick)),
            _ => None,
        };
        let open = self.open.get_or_insert_with(|| OpenRun {
            framed: crate::clock::wall_now(),
            now: s.clock.now(),
            ids: s.lock_ids(),
        });
        let ids = &mut *open.ids;
        // Reserve the id so concurrent submitters can't race to the
        // same one; released again if validation or admission fails.
        let explicit = id.is_some();
        let id = match ids.reserve(id) {
            Ok(id) => id,
            Err(id) => {
                return refuse(
                    &s.rejected_duplicate_id,
                    ErrorKind::BadRequest,
                    format!("task id {id} already used this round"),
                );
            }
        };
        // A submission arrives "now" on the engine clock; an explicit
        // arrival in the future is honored, one in the past clamped
        // forward, and an invalid one left for `Task::online` to refuse.
        let arrival = match arrival {
            Some(a) if !(0.0..open.now).contains(&a) => a,
            _ => open.now,
        };
        let task = match Task::online(id, cycles, arrival, None, class) {
            Ok(task) => task,
            Err(e) => {
                ids.release(id);
                return refuse(&s.rejected_invalid, ErrorKind::BadRequest, e.to_string());
            }
        };
        let shard = s.route(explicit, id, class);
        let sh = &s.shards[shard];
        // The gate re-checks the shutdown flag *inside* the queue lock:
        // shutdown's post-drain depth re-check takes the same lock, so
        // a submission either lands before that check (and is drained)
        // or observes the flag and is refused — never silently lost.
        let outcome = match stale {
            Some(_) => GateOutcome::Shed(ShedReason::WorkerBehind),
            None => sh
                .queue
                .try_submit_stamped(task, self.recv, || !s.is_shutting_down()),
        };
        match outcome {
            GateOutcome::Admitted(depth) => {
                s.submitted.inc();
                s.admitted.inc();
                sh.admitted.inc();
                self.admitted += 1;
                let depth = depth as u64;
                sh.trace_submit(arrival, id, class, cycles, Some(depth));
                Ok(Submitted::Ack(Ack {
                    id,
                    depth,
                    shard: shard as u64,
                }))
            }
            GateOutcome::Shed(reason) => {
                ids.release(id);
                Err(Behind {
                    shard: stale.unwrap_or(shard),
                    id,
                    arrival,
                    reason,
                })
            }
            GateOutcome::Closed => {
                ids.release(id);
                draining()
            }
        }
    }

    /// Close the run: record its stage samples, wake the ticker,
    /// release the id ledger. Whoever owns the run calls this before
    /// waiting on anything (a `drain` takes the ledger first).
    pub(crate) fn close(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let n = std::mem::take(&mut self.admitted);
        if n == 0 {
            return;
        }
        let s = self.sched;
        if s.cfg.telemetry {
            // Close the wire-side seams — receive → run opened, run
            // opened → run admitted — once for the run: its acks leave
            // together, so every admitted task carries the run's two
            // spans.
            let frame = open.framed.duration_since(self.recv).as_secs_f64();
            let admit = crate::clock::wall_now()
                .duration_since(open.framed)
                .as_secs_f64();
            s.stage_frame.record_n(frame, n);
            s.stage_admit.record_n(admit, n);
        }
        // Wake a ticker sleeping in `wait_for_work`; the empty
        // critical section orders the wake after the admits.
        drop(s.work_mx.lock().unwrap_or_else(PoisonError::into_inner));
        s.work_cv.notify_all();
    }
}

impl Drop for SubmitRun<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::shard_metric;
    use crate::protocol::value_u64;
    use crate::stage::{REQUEST_E2E, TELESCOPE_STAGES};
    use dvfs_core::LeastMarginalCost;
    use dvfs_model::CostParams;
    use dvfs_sim::{SimConfig, Simulator};
    use serde_json::Value;
    use std::collections::HashSet;

    fn scheduler(capacity: usize) -> Scheduler {
        Scheduler::new(
            SchedulerConfig {
                cores: 2,
                queue_capacity: capacity,
                ..SchedulerConfig::default()
            },
            Arc::new(Registry::new()),
        )
    }

    fn sharded(shards: usize, capacity: usize) -> Scheduler {
        Scheduler::new(
            SchedulerConfig {
                cores: 2,
                queue_capacity: capacity,
                shards,
                ..SchedulerConfig::default()
            },
            Arc::new(Registry::new()),
        )
    }

    /// A paced scheduler on a virtual clock the test moves by hand.
    fn stepped(shards: usize) -> (Scheduler, Arc<EngineClock>) {
        let cfg = SchedulerConfig {
            cores: 1,
            queue_capacity: 64,
            mode: Mode::Paced { speed: 1.0 },
            shards,
            ..SchedulerConfig::default()
        };
        let clock = Arc::new(EngineClock::Virtual(AtomicU64::default()));
        let s = Scheduler::with_clock(cfg, Arc::new(Registry::new()), Arc::clone(&clock));
        (s, clock)
    }

    /// Every shard's published engine clock, ascending shard order.
    fn engine_clocks(s: &Scheduler) -> Vec<f64> {
        s.shards.iter().map(|sh| sh.engine_now()).collect()
    }

    /// A field of the `stats` document: top-level, or shard `k`'s.
    fn stat(s: &Scheduler, shard: Option<usize>, name: &str) -> u64 {
        let stats = s.stats();
        let doc = match shard {
            None => stats.field(name),
            Some(k) => match stats.field("shard_stats") {
                Some(Value::Array(shards)) => shards[k].get(name),
                other => panic!("stats carries a shard_stats array: {other:?}"),
            },
        };
        doc.and_then(value_u64)
            .unwrap_or_else(|| panic!("stats field {name}"))
    }

    impl Scheduler {
        /// Shard `k`'s admission queue, for tests that stand in for a
        /// racing submitter or a worker.
        pub(crate) fn shard_queue(&self, k: usize) -> &crate::admission::AdmissionQueue {
            &self.shards[k].queue
        }

        /// Arm the round hook: runs once inside the next `tick` or
        /// `drain`, after the queues were drained into the engines — the
        /// position of a submitter racing the round.
        fn set_round_hook(&self, hook: impl FnOnce(&Scheduler) + Send + 'static) {
            *self
                .round_hook
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(Box::new(hook));
        }
    }

    fn submit_one(s: &Scheduler, cycles: u64) {
        assert!(s
            .submit(None, cycles, TaskClass::NonInteractive, None)
            .is_ok());
    }

    #[test]
    fn replay_drain_matches_library_run() {
        let s = scheduler(64);
        let trace: Vec<Task> = (0..12)
            .map(|i| {
                let class = if i % 3 == 0 {
                    TaskClass::Interactive
                } else {
                    TaskClass::NonInteractive
                };
                Task::online(i, (i + 1) * 40_000_000, i as f64 * 0.01, None, class).unwrap()
            })
            .collect();
        for t in &trace {
            let r = s.submit(Some(t.id.0), t.cycles, t.class, Some(t.arrival));
            assert!(r.is_ok(), "submit failed: {r:?}");
        }
        let served = s.drain_run();
        assert!(served.is_ok());

        // Reference: the same trace through the simulator, in process.
        let platform = service_platform(2);
        let params = CostParams::online_paper();
        let mut policy = LeastMarginalCost::new(&platform, params);
        let mut sim = Simulator::new(SimConfig::new(platform));
        sim.add_tasks(&trace);
        let want = sim.run(&mut policy);

        let got_cost = crate::protocol::value_f64(served.field("total_cost").unwrap()).unwrap();
        assert!(
            (got_cost - want.cost(params).total()).abs() < 1e-12,
            "served cost {got_cost} != library cost {}",
            want.cost(params).total()
        );
        let got_makespan = crate::protocol::value_f64(served.field("makespan_s").unwrap()).unwrap();
        assert!((got_makespan - want.makespan).abs() < 1e-12);
        assert_eq!(value_u64(served.field("completed").unwrap()), Some(12));
        assert_eq!(value_u64(served.field("shards").unwrap()), Some(1));
    }

    #[test]
    fn duplicate_ids_rejected_within_a_round_and_allowed_across() {
        let s = scheduler(8);
        assert!(s
            .submit(Some(1), 1_000, TaskClass::Interactive, None)
            .is_ok());
        let dup = s.submit(Some(1), 1_000, TaskClass::Interactive, None);
        assert!(!dup.is_ok());
        assert!(s.drain_run().is_ok());
        // New round, id space reset.
        assert!(s
            .submit(Some(1), 1_000, TaskClass::Interactive, None)
            .is_ok());
    }

    #[test]
    fn overflow_sheds_with_overloaded_kind_and_releases_the_id() {
        let s = scheduler(2);
        // capacity 2, reserve 1 → one non-interactive slot.
        let first = s.submit(None, 1_000, TaskClass::NonInteractive, None);
        assert!(first.is_ok());
        assert_eq!(value_u64(first.field("id").unwrap()), Some(0));
        let shed = s.submit(None, 1_000, TaskClass::NonInteractive, None);
        match shed {
            Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::Overloaded),
            Response::Ok(_) => panic!("expected shed"),
        }
        assert_eq!(s.metrics().counter("shed").get(), 1);
        // The interactive reserve still admits, and the shed auto-id
        // was released for reuse.
        let third = s.submit(None, 1_000, TaskClass::Interactive, None);
        assert!(third.is_ok());
        assert_eq!(value_u64(third.field("id").unwrap()), Some(1));
    }

    #[test]
    fn shutdown_refuses_new_work_and_drains_backlog() {
        let s = scheduler(8);
        assert!(s
            .submit(Some(5), 2_000_000, TaskClass::NonInteractive, None)
            .is_ok());
        s.begin_shutdown();
        assert!(s.is_shutting_down());
        assert_eq!(s.metrics().counter("completed").get(), 1, "backlog drained");
        let r = s.submit(Some(6), 1_000, TaskClass::Interactive, None);
        match r {
            Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::ShuttingDown),
            Response::Ok(_) => panic!("submit must fail during shutdown"),
        }
        assert_eq!(s.metrics().counter("rejected_shutting_down").get(), 1);
        assert!(s.books_balanced(), "the refused submit is on the books");
        // Only the first call drains: a second one returns at once.
        s.set_round_hook(|_| panic!("a second shutdown drained again"));
        s.begin_shutdown();
    }

    /// 1.6 Gcycles take at most 1 s at the slowest rate: one tick at
    /// 10 s completes the task.
    #[test]
    fn paced_ticks_complete_tasks_and_actuate() {
        let (s, clock) = stepped(1);
        submit_one(&s, 1_600_000_000);
        clock.set(10.0);
        s.tick();
        assert_eq!(s.metrics().counter("completed").get(), 1);
        assert!(s.metrics().counter("actuations").get() >= 1);
        assert_eq!(s.metrics().histogram("task_latency_s").count(), 1);
    }

    #[test]
    fn paced_drain_counts_streamed_completions_once() {
        let (s, clock) = stepped(1);
        submit_one(&s, 1_600_000_000);
        clock.set(10.0);
        s.tick();
        assert_eq!(s.metrics().counter("completed").get(), 1);
        // The drain counts the round's single task — whose record the
        // tick already streamed and retired — but must not feed its
        // completion into the histograms again.
        let report = s.drain_round();
        assert_eq!(report.completed, 1);
        assert!(report.records.is_empty(), "the tick retired the record");
        assert_eq!(
            report.total_turnaround_s,
            s.metrics().histogram("task_latency_s").sum()
        );
        assert_eq!(s.metrics().counter("completed").get(), 1);
        assert_eq!(s.metrics().histogram("task_latency_s").count(), 1);
    }

    /// Regression (paced-clock time warp): a drain stands up fresh
    /// engines at time zero, so the clock must restart with them.
    /// Pre-fix, the first tick of the next round warped the fresh
    /// engine to the previous round's clock.
    #[test]
    fn paced_clock_restarts_with_the_round_on_drain() {
        let (s, clock) = stepped(1);
        submit_one(&s, 1_000_000);
        clock.set(240.0);
        s.tick();
        assert_eq!(s.drain_round().completed, 1);
        submit_one(&s, 1_000_000);
        s.tick();
        assert_eq!(engine_clocks(&s), [0.0], "the fresh round time-warped");
        assert_eq!(s.drain_round().completed, 1);
    }

    /// A drain restarts the shared clock before its workers see the
    /// `Drain`, so a tick a worker takes in between reads a clock far
    /// behind the old engine. That tick must leave the engine where it
    /// is — not trip `step_until`'s precedes-now assert — and the tick
    /// after the drain must land at zero.
    #[test]
    fn a_tick_behind_the_restarted_clock_leaves_the_engine_where_it_is() {
        let (s, clock) = stepped(1);
        submit_one(&s, 1_000_000);
        clock.set(240.0);
        s.tick();
        assert_eq!(engine_clocks(&s), [240.0]);
        clock.restart();
        s.tick();
        assert_eq!(engine_clocks(&s), [240.0], "the engine clock went back");
        assert_eq!(s.drain_round().completed, 1);
        s.tick();
        assert_eq!(
            engine_clocks(&s),
            [0.0],
            "the fresh round did not start at zero"
        );
    }

    /// Every paced server's shutdown drain races its ticker. One thread
    /// ticks in a loop while this one steps both engines ahead and then
    /// drains — restarting the clock behind them — round after round:
    /// no worker may panic, and every admitted task completes.
    #[test]
    fn ticks_racing_drains_never_step_an_engine_backwards() {
        let (s, clock) = stepped(2);
        let s = Arc::new(s);
        let stop = Arc::new(AtomicBool::new(false));
        let ticker = {
            let (s, stop) = (Arc::clone(&s), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    s.tick();
                }
            })
        };
        for _ in 0..50 {
            for _ in 0..4 {
                submit_one(&s, 50_000_000);
            }
            clock.set(1.0);
            s.tick();
            let _ = s.drain_round();
        }
        stop.store(true, Ordering::SeqCst);
        ticker.join().expect("the ticker's workers never panic");
        assert_eq!(s.metrics().counter("completed").get(), 200);
    }

    /// One arrival rule in both modes: a missing arrival is the clock's
    /// reading, a valid one behind it is clamped forward, and a negative
    /// or non-finite one is a `bad_request` whose id is free again.
    #[test]
    fn explicit_arrivals_follow_one_rule_in_both_modes() {
        let (paced, clock) = stepped(1);
        clock.set(5.0);
        for (s, now) in [(scheduler(8), 0.0), (paced, 5.0)] {
            for bad in [-1.0, f64::INFINITY, f64::NAN] {
                let r = s.submit(Some(7), 1_000, TaskClass::NonInteractive, Some(bad));
                let Response::Err { kind, .. } = r else {
                    panic!("arrival {bad} admitted at clock {now}");
                };
                assert_eq!(kind, ErrorKind::BadRequest);
            }
            for (id, arrival) in [(7, Some(1.0)), (8, None), (9, Some(7.5))] {
                assert!(s
                    .submit(Some(id), 1_000, TaskClass::NonInteractive, arrival)
                    .is_ok());
            }
            let mut got: Vec<(u64, f64)> = s
                .drain_round()
                .records
                .iter()
                .map(|r| (r.id.0, r.arrival))
                .collect();
            got.sort_by_key(|&(id, _)| id);
            assert_eq!(got, [(7, f64::max(1.0, now)), (8, now), (9, 7.5)]);
        }
    }

    /// A clock step: the clock jumps 10^6 engine seconds
    /// with tasks in flight on two shards. One tick completes them all
    /// and the books balance; the drain after it finds nothing left and
    /// the next round starts at zero. A restart mid-round then steps
    /// neither engine backwards.
    #[test]
    fn a_clock_step_completes_the_round_in_one_tick() {
        let (s, clock) = stepped(2);
        for _ in 0..8 {
            submit_one(&s, 4_000_000_000);
        }
        clock.set(0.5);
        s.tick();
        assert!(stat(&s, None, "pending_tasks") > 0, "tasks in flight");
        clock.set(1e6);
        s.tick();
        assert_eq!(stat(&s, None, "pending_tasks"), 0);
        assert_eq!(s.metrics().counter("completed").get(), 8);
        let round = s.drain_round();
        assert!(s.books_balanced());
        assert!(
            round.records.is_empty(),
            "the step's tick retired every task"
        );
        assert_eq!(engine_clocks(&s), [0.0, 0.0]);
        assert_eq!(clock.now(), 0.0);

        for _ in 0..4 {
            submit_one(&s, 4_000_000_000);
        }
        clock.set(0.5);
        s.tick();
        let before = engine_clocks(&s);
        clock.restart();
        s.tick();
        assert_eq!(engine_clocks(&s), before, "an engine stepped backwards");
        assert_eq!(s.drain_round().completed, 4);
    }

    /// Regression (shutdown/submit race): a task that enters the queue
    /// concurrently with shutdown's drain — the hook stands in for a
    /// submitter that passed the shutdown check before the flag was
    /// stored — must still be completed, not silently lost.
    #[test]
    fn shutdown_drains_tasks_admitted_during_its_own_drain() {
        let s = scheduler(8);
        assert!(s
            .submit(Some(1), 1_000_000, TaskClass::NonInteractive, None)
            .is_ok());
        // Fires inside the first shutdown drain, after the queue was
        // emptied into the engine: exactly the window the single-drain
        // shutdown lost tasks in.
        s.set_round_hook(|s| {
            let late = Task::online(99, 1_000_000, 0.0, None, TaskClass::NonInteractive).unwrap();
            s.shard_queue(0).try_submit(late).expect("late admit");
        });
        s.begin_shutdown();
        assert_eq!(
            s.metrics().counter("completed").get(),
            2,
            "the late-admitted task must be drained, not lost"
        );
        assert_eq!(s.queue_depth(), 0);
    }

    /// The same race, exercised with a real racing submitter thread:
    /// after shutdown returns, every acknowledged submission has been
    /// completed.
    #[test]
    fn shutdown_races_a_live_submitter_without_losing_admitted_tasks() {
        let s = Arc::new(scheduler(512));
        let submitter = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let mut admitted = 0u64;
                for _ in 0..100_000 {
                    match s.submit(None, 1_000_000, TaskClass::NonInteractive, None) {
                        Response::Ok(_) => admitted += 1,
                        Response::Err {
                            kind: ErrorKind::ShuttingDown,
                            ..
                        } => break,
                        Response::Err { .. } => {}
                    }
                }
                admitted
            })
        };
        // Give the submitter a head start, then shut down mid-stream.
        while s.metrics().counter("admitted").get() < 64 {
            std::thread::yield_now();
        }
        s.begin_shutdown();
        let admitted = submitter.join().expect("submitter thread");
        assert_eq!(
            s.metrics().counter("completed").get(),
            admitted,
            "every acknowledged submission must be completed"
        );
        assert_eq!(s.queue_depth(), 0);
    }

    /// Regression (stale queue depth): `tick` and `drain` used to write
    /// a constant zero into a stored depth gauge after emptying the
    /// queues, clobbering the depth of any task admitted concurrently.
    /// `stats` must report the live queues.
    #[test]
    fn queue_depth_gauge_tracks_tasks_admitted_during_a_round() {
        let s = scheduler(8);
        assert!(s
            .submit(Some(1), 1_000_000, TaskClass::NonInteractive, None)
            .is_ok());
        // Fires inside the tick, after the queue was drained into the
        // engine — the position of a submitter racing the tick.
        s.set_round_hook(|s| {
            let racing = Task::online(2, 1_000_000, 0.0, None, TaskClass::NonInteractive).unwrap();
            s.shard_queue(0).try_submit(racing).expect("racing admit");
        });
        s.tick();
        assert_eq!(s.queue_depth(), 1, "racing task still queued");
        assert_eq!(
            stat(&s, None, "queue_depth"),
            1,
            "stats must reflect the live queue, not a stale zero"
        );

        // Same window during a drain.
        s.set_round_hook(|s| {
            let racing = Task::online(3, 1_000_000, 0.0, None, TaskClass::NonInteractive).unwrap();
            s.shard_queue(0).try_submit(racing).expect("racing admit");
        });
        let _ = s.drain_round();
        assert_eq!(s.queue_depth(), 1);
        assert_eq!(stat(&s, None, "queue_depth"), 1);
        assert_eq!(stat(&s, Some(0), "queue_depth"), 1);
    }

    #[test]
    fn explicit_ids_hash_to_shards_and_auto_ids_balance() {
        let s = sharded(4, 64);
        // Explicit ids land on id % shards.
        for id in 0..8u64 {
            let r = s.submit(Some(id), 1_000, TaskClass::NonInteractive, Some(0.0));
            assert!(r.is_ok());
            assert_eq!(
                value_u64(r.field("shard").unwrap()),
                Some(id % 4),
                "id {id} routed to the wrong shard"
            );
        }
        // Auto ids spread by load: with all shards at depth 2, four
        // more submissions land on four distinct shards.
        let mut seen = HashSet::new();
        for _ in 0..4 {
            let r = s.submit(None, 1_000, TaskClass::NonInteractive, Some(0.0));
            assert!(r.is_ok());
            seen.insert(value_u64(r.field("shard").unwrap()).unwrap());
        }
        assert_eq!(seen.len(), 4, "auto ids must balance across shards");
    }

    #[test]
    fn auto_ids_round_robin_when_every_shard_is_equally_idle() {
        // The paced steady state: the ticker keeps every queue empty,
        // so headroom and depth tie everywhere. The rotating cursor
        // must spread submissions instead of piling onto shard 0.
        let s = sharded(4, 64);
        let mut seen = HashSet::new();
        for _ in 0..4 {
            let r = s.submit(None, 1_000, TaskClass::Interactive, Some(0.0));
            assert!(r.is_ok());
            let shard = value_u64(r.field("shard").unwrap()).unwrap();
            seen.insert(shard);
            // Drain the queue back to empty so the next submission
            // sees the same all-tied state.
            s.shard_queue(shard as usize).drain();
        }
        assert_eq!(seen.len(), 4, "ties must round-robin across shards");
    }

    #[test]
    fn router_folds_engine_backlog_into_auto_routing() {
        let s = sharded(2, 64);
        // Skew shard 0: six explicit even ids, then a tick pulls them
        // into its engine — two dispatch (cores = 2), four stay queued
        // inside the engine while the admission queue reads empty.
        for i in 0..6u64 {
            assert!(s
                .submit(
                    Some(2 * i),
                    400_000_000,
                    TaskClass::NonInteractive,
                    Some(0.0)
                )
                .is_ok());
        }
        s.tick();
        assert_eq!(s.queue_depth(), 0, "admission queues drained by the tick");
        // The reported depths must keep counting the engine-held tasks.
        assert_eq!(stat(&s, None, "queue_depth"), 4);
        assert_eq!(
            stat(&s, Some(0), "queue_depth"),
            4,
            "shard depth must include the engine backlog"
        );
        assert_eq!(stat(&s, Some(0), "pending_tasks"), 6);
        // Pre-fix the router scored both shards as equally empty and
        // kept feeding the deep shard 0; the published backlog must now
        // push every auto id to shard 1 until the loads equalize.
        for _ in 0..4 {
            let r = s.submit(None, 1_000, TaskClass::NonInteractive, Some(0.0));
            assert!(r.is_ok());
            assert_eq!(
                value_u64(r.field("shard").unwrap()),
                Some(1),
                "auto id routed onto the backlogged shard"
            );
        }
    }

    #[test]
    fn a_submit_many_batch_routes_each_auto_id_against_fresh_depths() {
        let s = sharded(4, 64);
        let items = vec![
            SubmitItem {
                id: None,
                cycles: 1_000,
                class: TaskClass::NonInteractive,
                arrival: Some(0.0),
            };
            4
        ];
        let out = s.submit_many(&items);
        let mut seen = HashSet::new();
        for r in &out {
            assert!(r.is_ok());
            seen.insert(value_u64(r.field("shard").unwrap()).unwrap());
        }
        assert_eq!(
            seen.len(),
            4,
            "a batch of auto ids must route per item against fresh depths, not pile onto one shard"
        );
    }

    #[test]
    fn sharded_drain_merges_per_shard_reports() {
        let s = sharded(2, 64);
        // Disjoint work: even ids to shard 0, odd to shard 1.
        for id in 0..10u64 {
            assert!(s
                .submit(
                    Some(id),
                    (id + 1) * 40_000_000,
                    TaskClass::NonInteractive,
                    Some(0.0)
                )
                .is_ok());
        }
        let reports = s.drain_shards();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].records.len(), 5);
        assert_eq!(reports[1].records.len(), 5);
        let merged = RoundReport::merge(&reports);
        assert_eq!(merged.records.len(), 10);
        assert_eq!(
            merged.active_energy_joules,
            reports[0].active_energy_joules + reports[1].active_energy_joules
        );
        assert_eq!(
            merged.total_turnaround_s,
            reports[0].total_turnaround_s + reports[1].total_turnaround_s
        );
        assert_eq!(
            merged.makespan_s,
            reports[0].makespan_s.max(reports[1].makespan_s)
        );
        // Per-shard completed counters saw the split.
        assert_eq!(s.metrics().counter("completed").get(), 10);
        assert_eq!(s.metrics().counter(&shard_metric("completed", 0)).get(), 5);
        assert_eq!(s.metrics().counter(&shard_metric("completed", 1)).get(), 5);
    }

    #[test]
    fn single_shard_drain_is_identical_to_the_unsharded_path() {
        // shards = 1 must stay bit-identical to the simulator: the
        // merge of one report is the identity.
        let trace: Vec<Task> = (0..8)
            .map(|i| {
                Task::online(i, (i + 1) * 30_000_000, i as f64 * 0.02, None, {
                    if i % 2 == 0 {
                        TaskClass::Interactive
                    } else {
                        TaskClass::NonInteractive
                    }
                })
                .unwrap()
            })
            .collect();
        let s = sharded(1, 64);
        for t in &trace {
            assert!(s
                .submit(Some(t.id.0), t.cycles, t.class, Some(t.arrival))
                .is_ok());
        }
        let got = s.drain_round();

        let platform = service_platform(2);
        let params = CostParams::online_paper();
        let mut policy = LeastMarginalCost::new(&platform, params);
        let mut sim = Simulator::new(SimConfig::new(platform));
        sim.add_tasks(&trace);
        let want = sim.run(&mut policy);
        assert_eq!(got.active_energy_joules, want.active_energy_joules);
        assert_eq!(got.total_turnaround_s, want.total_turnaround());
        assert_eq!(got.makespan_s, want.makespan);
    }

    /// `trace_stream` chunks drain-and-forget: their concatenation is
    /// byte-identical to the one-shot `trace` of an identical run that
    /// never streamed, and the retained trace really is forgotten.
    #[test]
    fn trace_stream_chunks_concatenate_to_the_one_shot_trace() {
        let run = |streamed: bool| -> (Vec<String>, Option<Scheduler>) {
            let s = Scheduler::new(
                SchedulerConfig {
                    cores: 2,
                    queue_capacity: 64,
                    trace_capacity: 256,
                    ..SchedulerConfig::default()
                },
                Arc::new(Registry::new()),
            );
            let mut lines = Vec::new();
            for round in 0..2u64 {
                for i in 0..5u64 {
                    assert!(s
                        .submit(
                            Some(round * 10 + i),
                            (i + 1) * 20_000_000,
                            TaskClass::NonInteractive,
                            Some(i as f64 * 0.01),
                        )
                        .is_ok());
                }
                assert!(s.drain_run().is_ok());
                if streamed {
                    let mut out = Vec::new();
                    s.trace_stream_run(&mut out);
                    let reply = std::str::from_utf8(&out).unwrap().trim_end();
                    let reply = Response::decode(reply).unwrap();
                    let chunk = reply.field("events").and_then(Value::as_array).unwrap();
                    lines.extend(chunk.iter().map(|l| l.as_str().unwrap().to_owned()));
                }
            }
            if streamed {
                (lines, Some(s))
            } else {
                (s.trace_lines(), Some(s))
            }
        };
        let (streamed, s) = run(true);
        let (oneshot, _) = run(false);
        assert!(!oneshot.is_empty());
        assert_eq!(
            streamed.join("\n"),
            oneshot.join("\n"),
            "concatenated trace_stream chunks must be byte-identical to a one-shot trace"
        );
        // Streamed events are forgotten: the retained trace is empty
        // and the cursor accounts for every line handed out.
        let s = s.unwrap();
        assert!(
            s.trace_lines().is_empty(),
            "streamed events must be forgotten"
        );
        let health = s.health();
        assert_eq!(
            value_u64(health.field("trace_streamed").unwrap()),
            Some(streamed.len() as u64)
        );
    }

    /// The tentpole invariant: in paced mode the per-stage histograms
    /// telescope — summed over all completed requests, the telescope
    /// stages account for the observed end-to-end latency within
    /// clock-seam tolerance (each seam overlap and the completion
    /// observation lag are bounded by one tick period per request).
    #[test]
    fn paced_stage_sums_telescope_to_e2e_latency() {
        let s = Scheduler::new(
            SchedulerConfig {
                cores: 1,
                queue_capacity: 64,
                mode: Mode::Paced { speed: 50.0 },
                ..SchedulerConfig::default()
            },
            Arc::new(Registry::new()),
        );
        s.start_clock();
        let n = 4u64;
        for _ in 0..n {
            assert!(s
                .submit(None, 1_600_000_000, TaskClass::NonInteractive, None)
                .is_ok());
        }
        for _ in 0..2_000 {
            std::thread::sleep(Duration::from_millis(1));
            s.tick();
            if s.metrics().counter("completed").get() == n {
                break;
            }
        }
        assert_eq!(s.metrics().counter("completed").get(), n, "tasks completed");
        let m = s.metrics();
        for name in TELESCOPE_STAGES {
            assert_eq!(
                m.histogram(name).count(),
                n,
                "stage {name} must record one sample per request"
            );
        }
        let e2e = m.histogram(REQUEST_E2E);
        assert_eq!(e2e.count(), n);
        let stage_total: f64 = TELESCOPE_STAGES
            .iter()
            .map(|name| m.histogram(name).sum())
            .sum();
        let e2e_total = e2e.sum();
        assert!(e2e_total > 0.0);
        // Seam tolerance: 30% relative (each of the handful of seams is
        // bounded by one ~1 ms tick against ~10-20 ms of service time
        // per task) plus a small absolute floor for scheduler jitter.
        let tol = 0.30 * e2e_total + 0.02 * n as f64;
        assert!(
            (stage_total - e2e_total).abs() <= tol,
            "stage sum {stage_total:.4}s must telescope to e2e {e2e_total:.4}s (tol {tol:.4}s)"
        );
    }

    /// `telemetry: false` silences the per-task stage records without
    /// touching the always-on health plane (heartbeats, health shape)
    /// or the scheduling outcome.
    #[test]
    fn telemetry_off_skips_stage_records_but_keeps_heartbeats() {
        let s = Scheduler::new(
            SchedulerConfig {
                cores: 2,
                queue_capacity: 64,
                telemetry: false,
                ..SchedulerConfig::default()
            },
            Arc::new(Registry::new()),
        );
        for id in 0..4u64 {
            assert!(s
                .submit(Some(id), 20_000_000, TaskClass::NonInteractive, Some(0.0))
                .is_ok());
        }
        assert!(s.drain_run().is_ok());
        assert_eq!(s.metrics().counter("completed").get(), 4);
        for name in TELESCOPE_STAGES {
            assert_eq!(
                s.metrics().histogram(name).count(),
                0,
                "stage {name} must stay silent with telemetry off"
            );
        }
        assert_eq!(s.metrics().histogram(REQUEST_E2E).count(), 0);
        let health = s.health();
        assert_eq!(value_u64(health.field("telemetry").unwrap()), Some(0));
        let Some(Value::Array(beats)) = health.field("heartbeats") else {
            panic!("heartbeats stay on with telemetry off");
        };
        assert_eq!(beats.len(), 1);
    }
}
