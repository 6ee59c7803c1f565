//! Per-shard worker threads: message-passing ownership of the engines.
//!
//! Each shard's engine — the wall-clock [`RealTimeExecutor`] and the
//! [`LeastMarginalCost`] policy state — is owned *outright* by one
//! worker thread. Nothing else in the process can reach an engine: the
//! scheduler talks to the worker over a bounded command channel, and
//! the worker applies commands in FIFO order against state only it can
//! touch. The compiler enforces it: `Engine` and its fields are private
//! to this module, so no other module can name an engine — let alone
//! wrap one in a `Mutex` or call its migration primitives
//! (`steal_longest`, `remove_ready`, `push_migrated`) off the owning
//! thread. Cross-shard migration is
//! [`Command::Steal`] / [`Command::Inject`] or it does not compile.
//!
//! ## Command/reply protocol
//!
//! Every command that owes its caller an answer carries a must-send
//! [`Reply`]: the only way to spend one is [`Reply::send`], and one
//! dropped unsent outside a panic unwind bumps `worker_reply_dropped`
//! and fails a `debug_assert!` — so an arm of the worker loop that
//! forgets to answer is a counted, loud bug instead of a hung drain
//! barrier. Callers never build the reply channel themselves: they go
//! through [`WorkerHandle::ask`] (one worker) or [`broadcast`] (every
//! worker, answers in ascending shard order), which also own the one
//! "worker exited" panic message.
//!
//! * [`Command::Tick`] — pull admitted work from the shard's queue,
//!   advance the executor to the shared engine clock's reading at
//!   processing time (never backwards: a tick queued ahead of a drain
//!   reads the already restarted clock and leaves the old engine where
//!   it is), stream completions into the histograms and retire them
//!   from the engine, reply once done (the tick barrier).
//! * [`Command::Drain`] — pull, run everything to completion, reply
//!   with the round's [`RoundReport`] (records of what was still
//!   resident, totals over the whole round), then stand up a fresh
//!   engine for the next round.
//! * [`Command::Steal`] / [`Command::Inject`] — the two halves of a
//!   cross-shard migration.
//! * [`Command::Shutdown`] — exit the worker loop (also triggered by
//!   channel disconnect, so a dropped scheduler can never leak
//!   threads).
//!
//! After every command that touches its engine the worker publishes
//! the engine's resting state — backlog, Eq. 32 queued cost, pending
//! count, engine clock — into [`ShardShared`]'s advisory cells, before
//! it replies. Whoever needs only that state (the router, the
//! rebalancer, `stats`) reads the cells and never asks the worker.
//!
//! Determinism: submissions never touch a worker — they land in the
//! shard's admission queue (its own short lock) and are pulled in FIFO
//! order by the next tick or drain, exactly as the mutex-based service
//! pulled them. A drained round therefore pushes the same tasks in the
//! same order through the same arithmetic, keeping the shards=1 replay
//! bit-identical to the simulator.

use crate::admission::{AdmissionPolicy, AdmissionQueue};
use crate::clock::EngineClock;
use crate::executor::{RealTimeExecutor, RoundReport};
use crate::metrics::{shard_metric, AdvisoryCell, Counter, Histogram, Registry};
use crate::service::{service_platform, SchedulerConfig};
use crate::stage::StageHists;
use dvfs_core::sched::{ExecutorView, Scheduler as PolicyHooks};
use dvfs_core::LeastMarginalCost;
use dvfs_model::{Task, TaskClass, TaskRecord};
use dvfs_trace::{ClassTag, EventKind, SharedRing};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Commands queued ahead of a worker rarely back up beyond a couple of
/// round barriers; a small bound keeps a wedged worker from absorbing
/// an unbounded command backlog silently.
const COMMAND_QUEUE_BOUND: usize = 32;

/// The answer half of a reply-bearing [`Command`]: a one-shot sender
/// that must be spent with [`Reply::send`]. Dropping one unsent means a
/// caller is blocked on an answer that will never come, so outside a
/// panic unwind (where the caller is about to learn the worker died
/// anyway) the drop is counted and asserted.
pub(crate) struct Reply<T> {
    /// `None` once sent. The channel is a `sync_channel(1)` and exactly
    /// one message ever crosses it, so the send never blocks.
    tx: Option<SyncSender<T>>,
    dropped: Arc<Counter>,
}

impl<T> Reply<T> {
    fn one_shot(dropped: &Arc<Counter>) -> (Reply<T>, Receiver<T>) {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let reply = Reply {
            tx: Some(tx),
            dropped: Arc::clone(dropped),
        };
        (reply, rx)
    }

    /// Answer the command. A caller that already went away is fine —
    /// nobody is left to hang.
    pub fn send(mut self, value: T) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(value);
        }
    }
}

impl<T> Drop for Reply<T> {
    fn drop(&mut self) {
        if self.tx.is_some() && !std::thread::panicking() {
            self.dropped.inc();
            debug_assert!(false, "worker command reply dropped without being sent");
        }
    }
}

/// The executor/policy pair a worker owns outright. No lock anywhere,
/// and private to this module: only the owning worker thread can reach
/// it.
struct Engine {
    exec: RealTimeExecutor,
    policy: LeastMarginalCost,
}

impl Engine {
    /// A fresh engine for a new round; `ring` re-attaches the shard's
    /// trace ring (sequence numbers continue — a round boundary is
    /// visible in the trace but never resets the stream).
    fn fresh(cfg: &SchedulerConfig, ring: Option<SharedRing>) -> Self {
        let platform = service_platform(cfg.cores);
        let mut exec = RealTimeExecutor::with_actuator(platform.clone(), cfg.actuator);
        exec.set_trace_ring(ring);
        Engine {
            policy: LeastMarginalCost::new(&platform, cfg.params),
            exec,
        }
    }
}

/// Wraps a shard's policy to time every scheduling decision into the
/// `lmc_decision_us` histogram. Timing goes through the blessed wall
/// clock seam and lands only in metrics — trace events themselves stay
/// wall-free, preserving the bit-identical replay contract.
struct TimedPolicy<'a> {
    inner: &'a mut LeastMarginalCost,
    hist: &'a Histogram,
}

impl TimedPolicy<'_> {
    fn observe(&self, t0: Instant) {
        let dt = crate::clock::wall_now().duration_since(t0);
        self.hist.record(dt.as_secs_f64() * 1e6);
    }
}

impl PolicyHooks for TimedPolicy<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_arrival(&mut self, x: &mut dyn ExecutorView, task: &Task) {
        let t0 = crate::clock::wall_now();
        self.inner.on_arrival(x, task);
        self.observe(t0);
    }

    fn on_completion(&mut self, x: &mut dyn ExecutorView, core: usize, task: &Task) {
        let t0 = crate::clock::wall_now();
        self.inner.on_completion(x, core, task);
        self.observe(t0);
    }

    fn on_tick(&mut self, x: &mut dyn ExecutorView, core: usize) {
        self.inner.on_tick(x, core);
    }
}

/// Which command a worker just serviced, for the heartbeat's
/// per-command service-time slots.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ServiceSlot {
    Tick,
    Drain,
    Steal,
    Inject,
}

/// One worker's lock-free heartbeat slot: the loop publishes progress
/// and service times here, and the supervisor / `health` snapshot read
/// them without ever touching the worker's channel. Every field is
/// advisory telemetry — nothing here feeds back into scheduling — so
/// every slot is an [`AdvisoryCell`].
#[derive(Debug)]
pub(crate) struct Heartbeat {
    /// Time base for the micros-since-epoch encoding below.
    epoch: Instant,
    /// Micros since epoch when the worker last finished a command
    /// (stamped once at loop start, so an idle worker reads as alive).
    last_progress_micros: AdvisoryCell,
    /// Commands enqueued by the scheduler side.
    cmd_sent: AdvisoryCell,
    /// Commands the worker has dequeued; `sent - dequeued` is the
    /// command-channel depth (including a sender blocked on the bound).
    cmd_dequeued: AdvisoryCell,
    /// Send→dequeue age of the most recently dequeued command, µs.
    dequeue_age_micros: AdvisoryCell,
    /// Most recent service time per command kind, µs.
    tick_micros: AdvisoryCell,
    drain_micros: AdvisoryCell,
    steal_micros: AdvisoryCell,
    inject_micros: AdvisoryCell,
}

/// A point-in-time copy of one worker's heartbeat for the `health`
/// document and the stall supervisor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeartbeatSnapshot {
    /// Seconds since the worker last finished a command.
    pub last_progress_age_s: f64,
    /// Commands sent but not yet dequeued.
    pub cmd_depth: u64,
    pub dequeue_age_us: u64,
    pub tick_us: u64,
    pub drain_us: u64,
    pub steal_us: u64,
    pub inject_us: u64,
}

impl Heartbeat {
    pub fn new() -> Self {
        Heartbeat {
            epoch: crate::clock::wall_now(),
            last_progress_micros: AdvisoryCell::default(),
            cmd_sent: AdvisoryCell::default(),
            cmd_dequeued: AdvisoryCell::default(),
            dequeue_age_micros: AdvisoryCell::default(),
            tick_micros: AdvisoryCell::default(),
            drain_micros: AdvisoryCell::default(),
            steal_micros: AdvisoryCell::default(),
            inject_micros: AdvisoryCell::default(),
        }
    }

    fn micros_since_epoch(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Stamp "the worker loop is alive right now".
    pub fn mark_progress(&self) {
        self.last_progress_micros.set(self.micros_since_epoch());
    }

    /// Count a command enqueued toward this worker.
    pub fn note_send(&self) {
        self.cmd_sent.add(1);
    }

    /// Count a dequeue and publish the send→dequeue age.
    pub fn note_dequeue(&self, sent: Instant) {
        self.cmd_dequeued.add(1);
        let age = crate::clock::wall_now().duration_since(sent);
        self.dequeue_age_micros.set(age.as_micros() as u64);
    }

    /// Publish a command's service time and mark progress.
    pub fn note_service(&self, slot: ServiceSlot, t0: Instant) {
        let micros = crate::clock::wall_now().duration_since(t0).as_micros() as u64;
        match slot {
            ServiceSlot::Tick => self.tick_micros.set(micros),
            ServiceSlot::Drain => self.drain_micros.set(micros),
            ServiceSlot::Steal => self.steal_micros.set(micros),
            ServiceSlot::Inject => self.inject_micros.set(micros),
        }
        self.mark_progress();
    }

    /// Snapshot for the `health` document / supervisor.
    pub fn snapshot(&self) -> HeartbeatSnapshot {
        let now = self.micros_since_epoch();
        let progress = self.last_progress_micros.get();
        let sent = self.cmd_sent.get();
        let dequeued = self.cmd_dequeued.get();
        HeartbeatSnapshot {
            last_progress_age_s: now.saturating_sub(progress) as f64 * 1e-6,
            cmd_depth: sent.saturating_sub(dequeued),
            dequeue_age_us: self.dequeue_age_micros.get(),
            tick_us: self.tick_micros.get(),
            drain_us: self.drain_micros.get(),
            steal_us: self.steal_micros.get(),
            inject_us: self.inject_micros.get(),
        }
    }
}

pub(crate) fn class_tag(class: TaskClass) -> ClassTag {
    match class {
        TaskClass::Batch => ClassTag::Batch,
        TaskClass::Interactive => ClassTag::Interactive,
        TaskClass::NonInteractive => ClassTag::NonInteractive,
    }
}

/// Shard state shared between the scheduler (submission path, `stats`,
/// trace drains) and the worker that owns the shard's engine. Only
/// leaf-locked structures live here — the admission queue and the
/// trace ring carry their own short internal locks.
pub(crate) struct ShardShared {
    pub index: usize,
    pub queue: AdmissionQueue,
    /// The shard's lifecycle trace ring, shared with its executor
    /// (`None` when tracing is disabled). Drained at round boundaries
    /// by the scheduler, in ascending shard order.
    pub ring: Option<SharedRing>,
    pub admitted: Arc<Counter>,
    pub shed: Arc<Counter>,
    pub completed: Arc<Counter>,
    /// Engine-held tasks that are queued but not yet dispatched,
    /// published by the worker after every engine mutation. The router
    /// folds this into its load score (admission depth alone is blind
    /// to work a tick already pulled). Advisory only: the value steers
    /// placement, never the replayed schedule.
    backlog: AdvisoryCell,
    /// `f64::to_bits` of the shard policy's summed Eq. 32 queued-cost
    /// total — the marginal-cost half of the load gauge, read by the
    /// rebalancer to find the hot/cold gap. Same advisory-only status
    /// as `backlog`.
    queued_cost_bits: AdvisoryCell,
    /// Tasks registered with the engine and not yet completed.
    pending: AdvisoryCell,
    /// `f64::to_bits` of the engine clock, in executor seconds.
    now_bits: AdvisoryCell,
    /// The worker's lock-free loop-telemetry slot.
    pub hb: Heartbeat,
    /// The shard's stage-attribution histogram bundle (global +
    /// per-shard handles, resolved once).
    pub stages: StageHists,
}

impl ShardShared {
    /// Shard `index`'s shared state: a `queue_capacity`-slot admission
    /// queue, a `trace_capacity`-event ring (`0` disables tracing: no
    /// ring is allocated), and its per-shard metric handles, resolved
    /// once.
    pub fn new(
        index: usize,
        queue_capacity: usize,
        trace_capacity: usize,
        metrics: &Registry,
    ) -> Self {
        ShardShared {
            index,
            queue: AdmissionQueue::new(AdmissionPolicy::with_capacity(queue_capacity)),
            ring: (trace_capacity > 0).then(|| SharedRing::new(index as u32, trace_capacity)),
            admitted: metrics.counter(&shard_metric("admitted", index)),
            shed: metrics.counter(&shard_metric("shed", index)),
            completed: metrics.counter(&shard_metric("completed", index)),
            backlog: AdvisoryCell::default(),
            queued_cost_bits: AdvisoryCell::default(),
            pending: AdvisoryCell::default(),
            now_bits: AdvisoryCell::default(),
            hb: Heartbeat::new(),
            stages: StageHists::new(metrics, index),
        }
    }

    /// Trace a submit and what admission made of it: `Admit` with the
    /// post-admit queue depth, or (`None`) `Shed`.
    pub fn trace_submit(
        &self,
        arrival: f64,
        task: u64,
        class: TaskClass,
        cycles: u64,
        admitted_depth: Option<u64>,
    ) {
        let Some(ring) = &self.ring else { return };
        let class = class_tag(class);
        ring.record(
            arrival,
            EventKind::Submit {
                task,
                class,
                cycles,
            },
        );
        let outcome = match admitted_depth {
            Some(depth) => EventKind::Admit { task, depth },
            None => EventKind::Shed { task, class },
        };
        ring.record(arrival, outcome);
    }

    /// The published engine queued-cost total.
    pub fn queued_cost(&self) -> f64 {
        f64::from_bits(self.queued_cost_bits.get())
    }

    /// The published engine backlog (queued, not-yet-dispatched tasks).
    pub fn backlog(&self) -> usize {
        self.backlog.get() as usize
    }

    /// The published count of tasks the engine holds, uncompleted.
    pub fn pending(&self) -> usize {
        self.pending.get() as usize
    }

    /// The published engine clock, in executor seconds.
    pub fn engine_now(&self) -> f64 {
        f64::from_bits(self.now_bits.get())
    }
}

/// One message across the scheduler→worker channel. Answers travel on
/// per-call one-shot [`Reply`]s, so concurrent callers (ticker thread,
/// wire drains, the rebalancer) can never receive each other's answers.
pub(crate) enum Command {
    Tick {
        reply: Reply<()>,
    },
    Drain {
        reply: Reply<RoundReport>,
    },
    /// Remove up to `max` queued (never dispatched) non-interactive
    /// tasks from the engine, longest first, and hand them back for
    /// re-enqueue elsewhere — the hot half of a migration.
    Steal {
        max: usize,
        reply: Reply<Vec<Task>>,
    },
    /// Re-register stolen tasks on this shard's engine — the cold half
    /// of a migration. Carries the decision provenance (`from_shard`
    /// and both queued-cost totals at decision time) so the receiving
    /// ring can record `migrate` trace events; replies with the count
    /// actually registered.
    Inject {
        from_shard: u32,
        from_cost: f64,
        to_cost: f64,
        tasks: Vec<Task>,
        reply: Reply<usize>,
    },
    Shutdown,
}

/// One message on the wire to a worker: the command plus its send
/// stamp, so the worker can publish send→dequeue age into the
/// heartbeat without any side channel.
pub(crate) struct Envelope {
    sent: Instant,
    cmd: Command,
}

/// The scheduler's handle to one shard worker.
pub(crate) struct WorkerHandle {
    tx: SyncSender<Envelope>,
    join: Option<JoinHandle<()>>,
    /// The shard this worker serves, for heartbeat accounting on send.
    shared: Arc<ShardShared>,
    /// Commands that hit a disconnected worker channel — a worker that
    /// is gone without being asked to stop is a crashed thread, and a
    /// silently swallowed send would turn that crash into a hang.
    send_failed: Arc<Counter>,
    /// Handed to every [`Reply`] this handle mints (resolved once, so
    /// a round trip costs no registry lookup).
    reply_dropped: Arc<Counter>,
}

impl WorkerHandle {
    /// Enqueue a command. A dead worker still surfaces at reply
    /// collection (the one-shot reply channel disconnects and
    /// [`Self::ask`] / [`broadcast`] panic naming the shard), but the
    /// failure is made observable here too: the `worker_send_failed`
    /// counter records it for release builds, and debug builds assert
    /// so tests catch a crashed worker at the earliest point.
    pub fn send(&self, cmd: Command) {
        // Counted before the (possibly blocking) bounded send, so a
        // sender stuck on a full channel shows up in the depth a
        // supervisor reads.
        self.shared.hb.note_send();
        let env = Envelope {
            sent: crate::clock::wall_now(),
            cmd,
        };
        // The refused envelope (and any `Reply` inside it) is dropped
        // after the assert, i.e. mid-unwind in debug builds, so a dead
        // worker is reported once, as a failed send.
        if let Err(_refused) = self.tx.send(env) {
            self.send_failed.inc();
            debug_assert!(false, "command sent to a shard worker whose thread is gone");
        }
    }

    /// Send one reply-bearing command; the answer arrives on the
    /// returned receiver.
    fn post<T>(&self, make: impl FnOnce(Reply<T>) -> Command) -> Receiver<T> {
        let (reply, rx) = Reply::one_shot(&self.reply_dropped);
        self.send(make(reply));
        rx
    }

    /// Block for a posted command's answer. A disconnected reply means
    /// the worker thread died (a bug, not load): panic naming the shard
    /// and the command (`what`).
    fn wait<T>(&self, rx: &Receiver<T>, what: &str) -> T {
        rx.recv()
            .unwrap_or_else(|_| panic!("shard {} worker exited during {what}", self.shared.index))
    }

    /// One command round trip: send the command `make` builds around a
    /// fresh [`Reply`], block for the answer.
    pub fn ask<T>(&self, what: &str, make: impl FnOnce(Reply<T>) -> Command) -> T {
        let rx = self.post(make);
        self.wait(&rx, what)
    }

    /// Ask the worker loop to exit (it finishes the commands already
    /// queued first, preserving FIFO semantics). Unlike [`Self::send`],
    /// an already-gone worker is fine here — stop is idempotent and
    /// this runs from `Scheduler::drop`, possibly mid-unwind, where a
    /// `debug_assert` panic would abort the process.
    pub fn begin_stop(&self) {
        let _ = self.tx.send(Envelope {
            sent: crate::clock::wall_now(),
            cmd: Command::Shutdown,
        });
    }

    /// Join the worker thread (idempotent). A worker that panicked has
    /// already surfaced the failure to whichever caller was waiting on
    /// its reply; the join itself swallows the secondary error so a
    /// scheduler drop mid-unwind cannot abort the process.
    pub fn join(&mut self) {
        if let Some(handle) = self.join.take() {
            let _ = handle.join();
        }
    }
}

/// Send every worker the command `make` builds (all sends first, so
/// the shards work concurrently), then yield the answers in ascending
/// shard order — lazily, so a caller can act on shard `k`'s answer
/// before blocking on shard `k + 1`'s.
pub(crate) fn broadcast<'a, T: 'a>(
    workers: &'a [WorkerHandle],
    what: &'a str,
    make: impl Fn(Reply<T>) -> Command,
) -> impl Iterator<Item = T> + 'a {
    let posted: Vec<Receiver<T>> = workers.iter().map(|w| w.post(&make)).collect();
    workers
        .iter()
        .zip(posted)
        .map(move |(w, rx)| w.wait(&rx, what))
}

/// Spawn the worker thread owning shard `shared`'s engine, stepping it
/// toward `clock`.
pub(crate) fn spawn(
    shared: Arc<ShardShared>,
    cfg: SchedulerConfig,
    clock: Arc<EngineClock>,
    metrics: &Registry,
    lmc_hist: Arc<Histogram>,
) -> WorkerHandle {
    let (tx, rx) = std::sync::mpsc::sync_channel(COMMAND_QUEUE_BOUND);
    let send_failed = metrics.counter("worker_send_failed");
    let reply_dropped = metrics.counter("worker_reply_dropped");
    let name = format!("dvfs-shard-{}", shared.index);
    let worker_shared = Arc::clone(&shared);
    let worker_metrics = StepMetrics {
        completed: metrics.counter("completed"),
        task_latency: metrics.histogram("task_latency_s"),
        task_cost: metrics.histogram("task_cost"),
        actuations: metrics.counter("actuations"),
        actuation_errors: metrics.counter("actuation_errors"),
    };
    let join = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            Worker {
                engine: Engine::fresh(&cfg, worker_shared.ring.clone()),
                shared: worker_shared,
                cfg,
                clock,
                metrics: worker_metrics,
                lmc_hist,
                recv_stamps: HashMap::new(),
            }
            .run(&rx);
        })
        .expect("spawn shard worker thread");
    WorkerHandle {
        tx,
        join: Some(join),
        shared,
        send_failed,
        reply_dropped,
    }
}

/// Samples buffered across one step's completions so they land with
/// one lock acquisition per histogram instead of one per task.
#[derive(Default)]
struct StepSamples {
    latency: Vec<f64>,
    cost: Vec<f64>,
    engine: Vec<f64>,
    service: Vec<f64>,
    e2e: Vec<f64>,
}

/// The service-wide metrics every step publishes into, resolved once
/// at spawn (the per-shard handles live in [`ShardShared`]).
struct StepMetrics {
    completed: Arc<Counter>,
    task_latency: Arc<Histogram>,
    task_cost: Arc<Histogram>,
    actuations: Arc<Counter>,
    actuation_errors: Arc<Counter>,
}

/// Everything one worker thread owns.
struct Worker {
    shared: Arc<ShardShared>,
    cfg: SchedulerConfig,
    /// The scheduler's engine clock.
    clock: Arc<EngineClock>,
    metrics: StepMetrics,
    lmc_hist: Arc<Histogram>,
    engine: Engine,
    /// Wire-receive stamps of tasks this engine currently holds, keyed
    /// by task id, closing the end-to-end seam at completion. Entries
    /// leave on completion, steal (the task completes elsewhere), and
    /// drain (fresh engine). Worker-local: no lock, no contention.
    recv_stamps: HashMap<u64, Instant>,
}

impl Worker {
    fn run(mut self, rx: &Receiver<Envelope>) {
        // An idle worker that has processed nothing yet is alive, not
        // stalled.
        self.shared.hb.mark_progress();
        loop {
            let env = match rx.recv() {
                Ok(env) => env,
                Err(_) => break,
            };
            self.shared.hb.note_dequeue(env.sent);
            let t0 = crate::clock::wall_now();
            if self.cfg.telemetry {
                self.shared
                    .stages
                    .cmd_dequeue
                    .record(t0.duration_since(env.sent).as_secs_f64());
            }
            match env.cmd {
                Command::Tick { reply } => {
                    self.tick();
                    reply.send(());
                    self.shared.hb.note_service(ServiceSlot::Tick, t0);
                }
                Command::Drain { reply } => {
                    let r = self.drain();
                    reply.send(r);
                    self.shared.hb.note_service(ServiceSlot::Drain, t0);
                }
                Command::Steal { max, reply } => {
                    let r = self.steal(max);
                    reply.send(r);
                    self.shared.hb.note_service(ServiceSlot::Steal, t0);
                }
                Command::Inject {
                    from_shard,
                    from_cost,
                    to_cost,
                    tasks,
                    reply,
                } => {
                    let r = self.inject(from_shard, from_cost, to_cost, &tasks);
                    reply.send(r);
                    self.shared.hb.note_service(ServiceSlot::Inject, t0);
                }
                Command::Shutdown => break,
            }
        }
    }

    /// Pull every admitted task from the shard queue into the engine
    /// (FIFO, exactly the order the admission queue accepted them).
    /// With telemetry on, this is where the queue-wait seam closes and
    /// the wire-receive stamp crosses into worker-local state for the
    /// end-to-end seam at completion.
    fn pull_admitted(&mut self) {
        if self.cfg.telemetry {
            let pulled = crate::clock::wall_now();
            let drained = self.shared.queue.drain_stamped();
            let mut waits = Vec::with_capacity(drained.len());
            for (task, stamp) in drained {
                waits.push(pulled.duration_since(stamp.admitted).as_secs_f64());
                self.recv_stamps.insert(task.id.0, stamp.recv);
                self.engine.exec.push_task(&task);
            }
            self.shared.stages.queue.record_many(&waits);
        } else {
            for task in self.shared.queue.drain() {
                self.engine.exec.push_task(&task);
            }
        }
    }

    /// Stream a step's completions into the histograms and publish
    /// actuation counters — the post-step bookkeeping both tick and
    /// drain share. Samples are buffered across the step's completions
    /// and landed with one lock acquisition per histogram, so a
    /// completion costs a few pushes, not a mutex round-trip per
    /// histogram per task.
    fn finish_step(&mut self, records: &[TaskRecord]) {
        let mut samples = StepSamples::default();
        let now = crate::clock::wall_now();
        for rec in records {
            self.observe_completion(rec, now, &mut samples);
        }
        let n = records.len() as u64;
        self.metrics.completed.add(n);
        self.shared.completed.add(n);
        self.metrics.task_latency.record_many(&samples.latency);
        self.metrics.task_cost.record_many(&samples.cost);
        if self.cfg.telemetry {
            let stages = &self.shared.stages;
            stages.engine.record_many(&samples.engine);
            stages.service.record_many(&samples.service);
            stages.e2e.record_many(&samples.e2e);
        }
        let (applied, errored) = self.engine.exec.take_actuations();
        self.metrics.actuations.add(applied);
        self.metrics.actuation_errors.add(errored);
    }

    /// Sample a finished task's latency and cost and, with telemetry
    /// on, close its stage seams: the engine-side stages come free from
    /// the record's engine-second stamps, and the end-to-end seam
    /// closes against the wire-receive stamp carried through the
    /// admission queue (every completion in one step shares the step's
    /// wall stamp — the seam tolerance already absorbs a step of
    /// quantization). Migrated-in tasks have no stamp here (their
    /// receive was observed on the origin shard), so they contribute
    /// engine stages only.
    fn observe_completion(&mut self, rec: &TaskRecord, now: Instant, samples: &mut StepSamples) {
        if let Some(turnaround) = rec.turnaround() {
            let params = self.cfg.params;
            samples.latency.push(turnaround);
            samples
                .cost
                .push(params.re * rec.energy_joules + params.rt * turnaround);
        }
        if self.cfg.telemetry {
            if let (Some(first_start), Some(completion)) = (rec.first_start, rec.completion) {
                // Engine-side stages in wall-equivalent seconds, so the
                // telescope sums to `request_e2e_s` at any speed.
                let scale = self.clock.wall_scale();
                samples
                    .engine
                    .push((first_start - rec.arrival).max(0.0) * scale);
                samples
                    .service
                    .push((completion - first_start).max(0.0) * scale);
            }
            if let Some(recv) = self.recv_stamps.remove(&rec.id.0) {
                samples.e2e.push(now.duration_since(recv).as_secs_f64());
            }
        }
    }

    /// Publish the engine's resting state: queued (not-yet-dispatched)
    /// backlog, the policy's Eq. 32 queued-cost total, the pending count
    /// and the engine clock. Runs after every engine mutation, before
    /// the reply, so the router, the rebalancer and `stats` always see
    /// the engine as its last command left it.
    fn publish_load(&self) {
        let (shared, exec) = (&self.shared, &self.engine.exec);
        shared.backlog.set(exec.queued_tasks() as u64);
        shared
            .queued_cost_bits
            .set(self.engine.policy.queued_cost().to_bits());
        shared.pending.set(exec.pending_tasks() as u64);
        shared.now_bits.set(exec.now().to_bits());
    }

    /// The hot half of a migration: remove up to `max` queued
    /// non-interactive tasks, longest-cycles first, from both the
    /// policy's ledgers and the executor, returning the original tasks.
    fn steal(&mut self, max: usize) -> Vec<Task> {
        let ids = {
            let Engine { exec, policy } = &mut self.engine;
            policy.steal_longest(&mut **exec, max)
        };
        let tasks: Vec<Task> = ids
            .iter()
            .filter_map(|&tid| self.engine.exec.remove_ready(tid))
            .collect();
        debug_assert_eq!(
            tasks.len(),
            ids.len(),
            "every ledger-resident task is Ready in the executor"
        );
        // Stolen tasks complete on another shard; their end-to-end seam
        // cannot close here.
        for task in &tasks {
            self.recv_stamps.remove(&task.id.0);
        }
        self.publish_load();
        tasks
    }

    /// The cold half of a migration: record a `migrate` trace event per
    /// task (receiving ring, engine time) and re-register the tasks.
    /// The arrival events fire on the next tick or drain, which routes
    /// them through the normal `on_arrival` insert path (Algorithm 5).
    fn inject(&mut self, from_shard: u32, from_cost: f64, to_cost: f64, tasks: &[Task]) -> usize {
        let now = self.engine.exec.now();
        for task in tasks {
            if let Some(ring) = self.shared.ring.as_ref() {
                ring.record(
                    now,
                    EventKind::Migrate {
                        task: task.id.0,
                        from_shard,
                        to_shard: self.shared.index as u32,
                        from_cost,
                        to_cost,
                    },
                );
            }
            self.engine.exec.push_migrated(task);
        }
        self.publish_load();
        tasks.len()
    }

    /// One step: pull admitted work, advance the executor clock to the
    /// engine clock's reading (0 in replay) or leave it where it is if
    /// that is behind it, stream the completions — which leave the
    /// engine here, so a long round's memory follows the work in flight
    /// rather than the work done.
    fn tick(&mut self) {
        let target = self.clock.now().max(self.engine.exec.now());
        self.pull_admitted();
        {
            let Engine { exec, policy } = &mut self.engine;
            let mut timed = TimedPolicy {
                inner: policy,
                hist: &self.lmc_hist,
            };
            exec.step_until(&mut timed, target);
        }
        let retired = self.engine.exec.retire_completions();
        self.finish_step(&retired);
        self.publish_load();
    }

    /// Run everything buffered (and still in flight) to completion,
    /// report the round, and stand up a fresh engine at time zero.
    fn drain(&mut self) -> RoundReport {
        self.pull_admitted();
        {
            let Engine { exec, policy } = &mut self.engine;
            let mut timed = TimedPolicy {
                inner: policy,
                hist: &self.lmc_hist,
            };
            exec.run_to_completion(&mut timed);
        }
        // Completions not yet streamed by a paced tick land in the
        // histograms now, exactly once, and stay resident for the
        // report's `records`.
        let fresh = self.engine.exec.take_completions();
        self.finish_step(&fresh);
        let report = self.engine.exec.round_report();
        // Fresh round: the trace ring carries over so sequence numbers
        // stay continuous. Any leftover receive stamps (tasks migrated
        // away mid-round) go with the old engine.
        self.recv_stamps.clear();
        self.engine = Engine::fresh(&self.cfg, self.shared.ring.clone());
        self.publish_load();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared() -> Arc<ShardShared> {
        Arc::new(ShardShared::new(0, 4, 0, &Registry::new()))
    }

    /// A send into a dead worker must be loud (debug assert) and
    /// counted (`worker_send_failed`), never a silent drop — while
    /// `begin_stop` stays quiet, because stopping an already-gone
    /// worker is the normal idempotent path out of `Scheduler::drop`.
    #[test]
    fn send_to_dead_worker_is_counted_and_asserts_in_debug() {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        drop(rx);
        let send_failed = Arc::new(Counter::default());
        let handle = WorkerHandle {
            tx,
            join: None,
            shared: test_shared(),
            send_failed: Arc::clone(&send_failed),
            reply_dropped: Arc::new(Counter::default()),
        };

        handle.begin_stop();
        assert_eq!(send_failed.get(), 0, "begin_stop is quiet by design");

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle.send(Command::Shutdown);
        }));
        assert_eq!(send_failed.get(), 1, "the failed send is counted");
        assert_eq!(
            outcome.is_err(),
            cfg!(debug_assertions),
            "debug builds surface the dead worker via debug_assert"
        );
    }

    // The must-send contract of `Reply<T>`, one case per test. Nothing
    // static checks reply-completeness: a worker-loop arm that drops its
    // `reply` trips the second case at run time, in every debug test
    // that sends that command.

    #[test]
    fn reply_sent_reaches_the_caller_and_counts_nothing() {
        let dropped = Arc::new(Counter::default());
        let (reply, rx) = Reply::one_shot(&dropped);
        reply.send(7u32);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(dropped.get(), 0);
    }

    #[test]
    fn reply_dropped_unsent_is_counted_and_asserts_in_debug() {
        let dropped = Arc::new(Counter::default());
        let (reply, rx) = Reply::<u32>::one_shot(&dropped);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(reply)));
        assert_eq!(dropped.get(), 1);
        assert_eq!(outcome.is_err(), cfg!(debug_assertions));
        assert!(rx.recv().is_err(), "the caller disconnects, never hangs");
    }

    /// A worker panicking mid-command drops its `Reply` during the
    /// unwind. A second panic there would abort the process instead of
    /// unwinding the worker, so the drop must stay quiet.
    #[test]
    fn reply_dropped_while_unwinding_does_not_panic_again() {
        let dropped = Arc::new(Counter::default());
        let (reply, rx) = Reply::<u32>::one_shot(&dropped);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _reply = reply;
            panic!("worker bug");
        }));
        assert!(outcome.is_err(), "the original panic propagates");
        assert_eq!(dropped.get(), 0);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn reply_send_to_a_departed_caller_is_a_no_op() {
        let dropped = Arc::new(Counter::default());
        let (reply, rx) = Reply::one_shot(&dropped);
        drop(rx);
        reply.send(7u32);
        assert_eq!(dropped.get(), 0);
    }

    /// The heartbeat's depth arithmetic: `send` counts immediately,
    /// dequeue settles it, and the snapshot never underflows even when
    /// stop envelopes (uncounted on send) are dequeued.
    #[test]
    fn heartbeat_depth_and_progress_tracking() {
        let hb = Heartbeat::new();
        let snap = hb.snapshot();
        assert_eq!(snap.cmd_depth, 0);
        hb.note_send();
        hb.note_send();
        assert_eq!(hb.snapshot().cmd_depth, 2);
        hb.note_dequeue(crate::clock::wall_now());
        assert_eq!(hb.snapshot().cmd_depth, 1);
        // Three dequeues against two sends (a begin_stop envelope is
        // not counted on send): saturates at zero, never wraps.
        hb.note_dequeue(crate::clock::wall_now());
        hb.note_dequeue(crate::clock::wall_now());
        assert_eq!(hb.snapshot().cmd_depth, 0);
        // Service notes refresh progress and fill the per-kind slot.
        let t0 = crate::clock::wall_now();
        hb.note_service(ServiceSlot::Tick, t0);
        let snap = hb.snapshot();
        assert!(snap.last_progress_age_s < 1.0, "progress just marked");
        assert!(snap.tick_us < 1_000_000, "tick slot holds a sane value");
    }

    /// A live worker keeps its heartbeat fresh: every processed command
    /// advances dequeue counts and last-progress.
    #[test]
    fn worker_loop_publishes_heartbeat() {
        let shared = test_shared();
        let cfg = SchedulerConfig::default();
        let metrics = Registry::new();
        let lmc = metrics.histogram("lmc_decision_us");
        let clock = Arc::new(EngineClock::Virtual(Default::default()));
        let mut handle = spawn(Arc::clone(&shared), cfg, clock, &metrics, lmc);
        handle.ask("tick", |reply| Command::Tick { reply });
        let snap = shared.hb.snapshot();
        assert_eq!(snap.cmd_depth, 0, "tick was dequeued");
        assert!(
            snap.last_progress_age_s < 5.0,
            "progress stamped by the tick"
        );
        handle.begin_stop();
        handle.join();
    }
}
