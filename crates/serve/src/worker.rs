//! Per-shard worker threads: message-passing ownership of the engines.
//!
//! Each shard's engine — the wall-clock [`RealTimeExecutor`], the
//! [`LeastMarginalCost`] policy state, and the shard's paced-clock
//! anchor — is owned *outright* by one worker thread. Nothing else in
//! the process can reach an engine: the scheduler talks to the worker
//! over a bounded command channel, and the worker applies commands in
//! FIFO order against state only it can touch. This replaces the old
//! `Mutex<Engine>` + ascending-lock-order discipline (and is enforced
//! by `dvfs-lint`'s `engine-ownership` rule: no `Mutex<Engine>` or
//! engine-lock helpers may appear outside this module).
//!
//! ## Command/reply protocol
//!
//! * [`Command::Tick`] — pull admitted work from the shard's queue,
//!   advance the executor to the wall-mapped target (computed from the
//!   worker's *own* anchor at processing time, so a queued tick can
//!   never warp a freshly drained engine onto the previous round's
//!   clock), stream completions into the histograms, reply with the
//!   pending-task count.
//! * [`Command::Drain`] — pull, run everything to completion, reply
//!   with the round's [`RoundReport`], then stand up a fresh engine and
//!   restart the local anchor for the next round.
//! * [`Command::Stats`] — reply with the pending count and engine
//!   clock.
//! * [`Command::StartClock`] — arm the paced anchor (idempotent).
//! * [`Command::Shutdown`] — exit the worker loop (also triggered by
//!   channel disconnect, so a dropped scheduler can never leak
//!   threads).
//!
//! Determinism: submissions never touch a worker — they land in the
//! shard's admission queue (its own short lock) and are pulled in FIFO
//! order by the next tick or drain, exactly as the mutex-based service
//! pulled them. A drained round therefore pushes the same tasks in the
//! same order through the same arithmetic, keeping the shards=1 replay
//! bit-identical to the simulator.

use crate::admission::AdmissionQueue;
use crate::executor::{RealTimeExecutor, RoundReport};
use crate::metrics::{Counter, Gauge, Histogram, Registry};
use crate::service::{service_platform, Mode, SchedulerConfig};
use crate::stage::StageHists;
use dvfs_core::sched::{ExecutorView, Scheduler as PolicyHooks};
use dvfs_core::LeastMarginalCost;
use dvfs_model::{CostParams, Task, TaskRecord};
use dvfs_trace::SharedRing;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Commands queued ahead of a worker rarely back up beyond a couple of
/// round barriers; a small bound keeps a wedged worker from absorbing
/// an unbounded command backlog silently.
const COMMAND_QUEUE_BOUND: usize = 32;

/// One-shot reply channel for a single worker command. This is the
/// only blessed construction site for an unbounded `channel()` in the
/// workspace (`dvfs-lint`'s `channel-protocol` rule): the command/reply
/// protocol guarantees at most one message ever crosses it, so the
/// missing bound can never absorb a backlog.
pub(crate) fn reply_channel<T>() -> (Sender<T>, Receiver<T>) {
    std::sync::mpsc::channel()
}

/// The executor/policy pair a worker owns outright. No lock anywhere:
/// only the owning worker thread can reach it.
pub(crate) struct Engine {
    pub exec: RealTimeExecutor,
    pub policy: LeastMarginalCost,
}

impl Engine {
    /// A fresh engine for a new round; `ring` re-attaches the shard's
    /// trace ring (sequence numbers continue — a round boundary is
    /// visible in the trace but never resets the stream).
    pub fn fresh(cfg: &SchedulerConfig, ring: Option<SharedRing>) -> Self {
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
/// and service times here with relaxed stores, and the supervisor /
/// `health` snapshot read them without ever touching the worker's
/// channel. Every field is advisory telemetry — nothing here feeds
/// back into scheduling, so relaxed ordering cannot perturb the
/// determinism contract. All atomic accesses stay behind the methods
/// of this impl (the lint blesses them per field in this file).
#[derive(Debug)]
pub(crate) struct Heartbeat {
    /// Time base for the micros-since-epoch encoding below.
    epoch: Instant,
    /// Micros since epoch when the worker last finished a command
    /// (stamped once at loop start, so an idle worker reads as alive).
    last_progress_micros: AtomicU64,
    /// Commands enqueued by the scheduler side.
    cmd_sent: AtomicU64,
    /// Commands the worker has dequeued; `sent - dequeued` is the
    /// command-channel depth (including a sender blocked on the bound).
    cmd_dequeued: AtomicU64,
    /// Send→dequeue age of the most recently dequeued command, µs.
    dequeue_age_micros: AtomicU64,
    /// Most recent service time per command kind, µs.
    tick_micros: AtomicU64,
    drain_micros: AtomicU64,
    steal_micros: AtomicU64,
    inject_micros: AtomicU64,
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
            last_progress_micros: AtomicU64::new(0),
            cmd_sent: AtomicU64::new(0),
            cmd_dequeued: AtomicU64::new(0),
            dequeue_age_micros: AtomicU64::new(0),
            tick_micros: AtomicU64::new(0),
            drain_micros: AtomicU64::new(0),
            steal_micros: AtomicU64::new(0),
            inject_micros: AtomicU64::new(0),
        }
    }

    fn micros_since_epoch(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Stamp "the worker loop is alive right now".
    pub fn mark_progress(&self) {
        self.last_progress_micros
            .store(self.micros_since_epoch(), Ordering::Relaxed);
    }

    /// Count a command enqueued toward this worker.
    pub fn note_send(&self) {
        self.cmd_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a dequeue and publish the send→dequeue age.
    pub fn note_dequeue(&self, sent: Instant) {
        self.cmd_dequeued.fetch_add(1, Ordering::Relaxed);
        let age = crate::clock::wall_now().duration_since(sent);
        self.dequeue_age_micros
            .store(age.as_micros() as u64, Ordering::Relaxed);
    }

    /// Publish a command's service time and mark progress.
    pub fn note_service(&self, slot: ServiceSlot, t0: Instant) {
        let micros = crate::clock::wall_now().duration_since(t0).as_micros() as u64;
        match slot {
            ServiceSlot::Tick => self.tick_micros.store(micros, Ordering::Relaxed),
            ServiceSlot::Drain => self.drain_micros.store(micros, Ordering::Relaxed),
            ServiceSlot::Steal => self.steal_micros.store(micros, Ordering::Relaxed),
            ServiceSlot::Inject => self.inject_micros.store(micros, Ordering::Relaxed),
        }
        self.mark_progress();
    }

    /// Snapshot for the `health` document / supervisor.
    pub fn snapshot(&self) -> HeartbeatSnapshot {
        let now = self.micros_since_epoch();
        let progress = self.last_progress_micros.load(Ordering::Relaxed);
        let sent = self.cmd_sent.load(Ordering::Relaxed);
        let dequeued = self.cmd_dequeued.load(Ordering::Relaxed);
        HeartbeatSnapshot {
            last_progress_age_s: now.saturating_sub(progress) as f64 * 1e-6,
            cmd_depth: sent.saturating_sub(dequeued),
            dequeue_age_us: self.dequeue_age_micros.load(Ordering::Relaxed),
            tick_us: self.tick_micros.load(Ordering::Relaxed),
            drain_us: self.drain_micros.load(Ordering::Relaxed),
            steal_us: self.steal_micros.load(Ordering::Relaxed),
            inject_us: self.inject_micros.load(Ordering::Relaxed),
        }
    }
}

/// Shard state shared between the scheduler (submission path, gauges,
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
    pub depth_gauge: Arc<Gauge>,
    pub pending_gauge: Arc<Gauge>,
    pub admitted: Arc<Counter>,
    pub shed: Arc<Counter>,
    pub completed: Arc<Counter>,
    /// Engine-held tasks that are queued but not yet dispatched,
    /// published by the worker after every engine mutation. The router
    /// folds this into its load score (admission depth alone is blind
    /// to work a tick already pulled). Advisory only: the value steers
    /// placement, never the replayed schedule, so a relaxed atomic
    /// cannot perturb the determinism contract.
    pub backlog: AtomicUsize,
    /// `f64::to_bits` of the shard policy's summed Eq. 32 queued-cost
    /// total — the marginal-cost half of the load gauge, read by the
    /// rebalancer to find the hot/cold gap. Same advisory-only status
    /// as `backlog`.
    pub queued_cost_bits: AtomicU64,
    /// The worker's lock-free loop-telemetry slot.
    pub hb: Heartbeat,
    /// The shard's stage-attribution histogram bundle (global +
    /// per-shard handles, resolved once).
    pub stages: StageHists,
}

impl ShardShared {
    /// The published engine queued-cost total.
    pub fn queued_cost(&self) -> f64 {
        f64::from_bits(self.queued_cost_bits.load(Ordering::Relaxed))
    }

    /// The published engine backlog (queued, not-yet-dispatched tasks).
    pub fn backlog(&self) -> usize {
        self.backlog.load(Ordering::Relaxed)
    }
}

/// Reply to [`Command::Tick`].
pub(crate) struct TickReply {
    /// Tasks registered but not yet completed after the step.
    pub pending: usize,
}

/// Reply to [`Command::Stats`].
pub(crate) struct StatsReply {
    pub pending: usize,
    /// Engine clock, in executor seconds.
    pub now: f64,
}

/// One message across the scheduler→worker channel. Replies travel on
/// per-call one-shot channels, so concurrent callers (ticker thread,
/// wire drains, stats) can never receive each other's answers.
pub(crate) enum Command {
    Tick {
        reply: Sender<TickReply>,
    },
    Drain {
        reply: Sender<RoundReport>,
    },
    Stats {
        reply: Sender<StatsReply>,
    },
    /// Remove up to `max` queued (never dispatched) non-interactive
    /// tasks from the engine, longest first, and hand them back for
    /// re-enqueue elsewhere — the hot half of a migration.
    Steal {
        max: usize,
        reply: Sender<Vec<Task>>,
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
        reply: Sender<usize>,
    },
    StartClock,
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
}

impl WorkerHandle {
    /// Enqueue a command. A dead worker still surfaces at reply
    /// collection (the one-shot reply channel disconnects, where
    /// callers attach a meaningful panic message), but the failure is
    /// made observable here too: the `worker_send_failed` counter
    /// records it for release builds, and debug builds assert so tests
    /// catch a crashed worker at the earliest point.
    pub fn send(&self, cmd: Command) {
        // Counted before the (possibly blocking) bounded send, so a
        // sender stuck on a full channel shows up in the depth a
        // supervisor reads.
        self.shared.hb.note_send();
        let env = Envelope {
            sent: crate::clock::wall_now(),
            cmd,
        };
        if self.tx.send(env).is_err() {
            self.send_failed.inc();
            debug_assert!(false, "command sent to a shard worker whose thread is gone");
        }
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

/// Spawn the worker thread owning shard `shared`'s engine.
pub(crate) fn spawn(
    shared: Arc<ShardShared>,
    cfg: SchedulerConfig,
    metrics: Arc<Registry>,
    lmc_hist: Arc<Histogram>,
) -> WorkerHandle {
    let (tx, rx) = std::sync::mpsc::sync_channel(COMMAND_QUEUE_BOUND);
    let send_failed = metrics.counter("worker_send_failed");
    let name = format!("dvfs-shard-{}", shared.index);
    let worker_shared = Arc::clone(&shared);
    let join = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            Worker {
                engine: Engine::fresh(&cfg, worker_shared.ring.clone()),
                shared: worker_shared,
                cfg,
                metrics,
                lmc_hist,
                anchor: None,
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
    }
}

/// Stage samples buffered across one step's completions so they land
/// with one lock acquisition per histogram instead of one per task.
#[derive(Default)]
struct StageBatch {
    engine: Vec<f64>,
    service: Vec<f64>,
    e2e: Vec<f64>,
}

/// Everything one worker thread owns.
struct Worker {
    shared: Arc<ShardShared>,
    cfg: SchedulerConfig,
    metrics: Arc<Registry>,
    lmc_hist: Arc<Histogram>,
    engine: Engine,
    /// This shard's paced-clock anchor. Worker-local on purpose: it is
    /// reset inside the worker's own drain processing, so a tick queued
    /// behind a drain computes its target against the *fresh* anchor —
    /// the per-worker FIFO makes the anti-time-warp regression hold
    /// without any cross-thread clock coordination.
    anchor: Option<Instant>,
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
                    let r = self.tick();
                    let _ = reply.send(r);
                    self.shared.hb.note_service(ServiceSlot::Tick, t0);
                }
                Command::Drain { reply } => {
                    let r = self.drain();
                    let _ = reply.send(r);
                    self.shared.hb.note_service(ServiceSlot::Drain, t0);
                }
                Command::Stats { reply } => {
                    let _ = reply.send(StatsReply {
                        pending: self.engine.exec.pending_tasks(),
                        now: self.engine.exec.exec_now(),
                    });
                    self.shared.hb.mark_progress();
                }
                Command::Steal { max, reply } => {
                    let r = self.steal(max);
                    let _ = reply.send(r);
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
                    let _ = reply.send(r);
                    self.shared.hb.note_service(ServiceSlot::Inject, t0);
                }
                Command::StartClock => {
                    if self.anchor.is_none() {
                        self.anchor = Some(crate::clock::wall_now());
                    }
                    self.shared.hb.mark_progress();
                }
                Command::Shutdown => break,
            }
        }
    }

    /// Wall-mapped target engine time for paced mode (0 in replay),
    /// computed at command-processing time from the worker's own
    /// anchor.
    fn target_time(&self) -> f64 {
        match (self.cfg.mode, self.anchor) {
            (Mode::Paced { speed }, Some(t0)) => t0.elapsed().as_secs_f64() * speed,
            _ => 0.0,
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

    /// Stream completions into the histograms and publish actuation
    /// counters — the post-step bookkeeping both tick and drain share.
    /// Stage samples are buffered across the step's completions and
    /// landed with one lock acquisition per histogram, so telemetry
    /// costs a round of batched records, not a mutex round-trip per
    /// task.
    fn finish_step(&mut self) {
        let params = self.cfg.params;
        let mut batch = StageBatch::default();
        let now = crate::clock::wall_now();
        for rec in self.engine.exec.take_completions() {
            self.observe_completion(&rec, params, now, &mut batch);
        }
        if self.cfg.telemetry {
            let stages = &self.shared.stages;
            stages.engine.record_many(&batch.engine);
            stages.service.record_many(&batch.service);
            stages.e2e.record_many(&batch.e2e);
        }
        let (applied, errored) = self.engine.exec.take_actuations();
        self.metrics.counter("actuations").add(applied);
        self.metrics.counter("actuation_errors").add(errored);
    }

    /// Record a finished task into the latency/cost histograms and,
    /// with telemetry on, close its stage seams: the engine-side stages
    /// come free from the record's engine-second stamps, and the
    /// end-to-end seam closes against the wire-receive stamp carried
    /// through the admission queue (every completion in one step shares
    /// the step's wall stamp — the seam tolerance already absorbs a
    /// step of quantization). Migrated-in tasks have no stamp here
    /// (their receive was observed on the origin shard), so they
    /// contribute engine stages only.
    fn observe_completion(
        &mut self,
        rec: &TaskRecord,
        params: CostParams,
        now: Instant,
        batch: &mut StageBatch,
    ) {
        self.metrics.counter("completed").inc();
        self.shared.completed.inc();
        if let Some(turnaround) = rec.turnaround() {
            self.metrics.histogram("task_latency_s").record(turnaround);
            let cost = params.re * rec.energy_joules + params.rt * turnaround;
            self.metrics.histogram("task_cost").record(cost);
        }
        if self.cfg.telemetry {
            if let (Some(first_start), Some(completion)) = (rec.first_start, rec.completion) {
                // In paced mode engine seconds map to wall seconds
                // through the speed factor; dividing it back out keeps
                // the engine-side stages in wall-equivalent seconds, so
                // the telescope sums to `request_e2e_s` at any speed.
                // Replay compresses engine time arbitrarily, so the raw
                // engine seconds are reported there (no wall telescope
                // exists to honor).
                let scale = match self.cfg.mode {
                    Mode::Paced { speed } if speed > 0.0 => speed.recip(),
                    _ => 1.0,
                };
                batch
                    .engine
                    .push((first_start - rec.arrival).max(0.0) * scale);
                batch
                    .service
                    .push((completion - first_start).max(0.0) * scale);
            }
            if let Some(recv) = self.recv_stamps.remove(&rec.id.0) {
                batch.e2e.push(now.duration_since(recv).as_secs_f64());
            }
        }
    }

    /// Publish the engine's load gauge: queued (not-yet-dispatched)
    /// backlog and the policy's Eq. 32 queued-cost total. Runs after
    /// every engine mutation so the router and rebalancer always see
    /// the engine's latest resting state.
    fn publish_load(&self) {
        self.shared
            .backlog
            .store(self.engine.exec.queued_tasks(), Ordering::Relaxed);
        self.shared.queued_cost_bits.store(
            self.engine.policy.queued_cost().to_bits(),
            Ordering::Relaxed,
        );
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
        let now = self.engine.exec.exec_now();
        for task in tasks {
            if let Some(ring) = self.shared.ring.as_ref() {
                ring.record(
                    now,
                    dvfs_trace::EventKind::Migrate {
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

    /// One paced step: pull admitted work, advance the executor clock
    /// to the wall-mapped target, stream completions.
    fn tick(&mut self) -> TickReply {
        let target = self.target_time();
        self.pull_admitted();
        {
            let Engine { exec, policy } = &mut self.engine;
            let mut timed = TimedPolicy {
                inner: policy,
                hist: &self.lmc_hist,
            };
            exec.step_until(&mut timed, target);
        }
        self.finish_step();
        self.publish_load();
        let pending = self.engine.exec.pending_tasks();
        self.shared.pending_gauge.set(pending as i64);
        TickReply { pending }
    }

    /// Run everything buffered (and still in flight) to completion,
    /// report the round, and stand up a fresh engine — restarting the
    /// local paced anchor with it, so the next tick's target starts
    /// near engine time zero instead of inheriting the old round's
    /// clock.
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
        // histograms now, exactly once.
        self.finish_step();
        let report = self.engine.exec.round_report();
        // Fresh round: the trace ring carries over so sequence numbers
        // stay continuous. Any leftover receive stamps (tasks migrated
        // away mid-round) go with the old engine.
        self.recv_stamps.clear();
        self.engine = Engine::fresh(&self.cfg, self.shared.ring.clone());
        if self.anchor.is_some() {
            self.anchor = Some(crate::clock::wall_now());
        }
        self.publish_load();
        self.shared.pending_gauge.set(0);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;

    fn test_shared() -> Arc<ShardShared> {
        let r = Registry::new();
        Arc::new(ShardShared {
            index: 0,
            queue: AdmissionQueue::new(AdmissionPolicy::with_capacity(4)),
            ring: None,
            depth_gauge: r.gauge("queue_depth"),
            pending_gauge: r.gauge("pending_tasks"),
            admitted: r.counter("admitted"),
            shed: r.counter("shed"),
            completed: r.counter("completed"),
            backlog: AtomicUsize::new(0),
            queued_cost_bits: AtomicU64::new(0),
            hb: Heartbeat::new(),
            stages: StageHists::new(&r, 0),
        })
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
        };

        handle.begin_stop();
        assert_eq!(send_failed.get(), 0, "begin_stop is quiet by design");

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle.send(Command::StartClock);
        }));
        assert_eq!(send_failed.get(), 1, "the failed send is counted");
        assert_eq!(
            outcome.is_err(),
            cfg!(debug_assertions),
            "debug builds surface the dead worker via debug_assert"
        );
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
        let metrics = Arc::new(Registry::new());
        let lmc = metrics.histogram("lmc_decision_us");
        let mut handle = spawn(Arc::clone(&shared), cfg, metrics, lmc);
        let (tx, rx) = reply_channel();
        handle.send(Command::Tick { reply: tx });
        rx.recv().expect("worker replies to tick");
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
