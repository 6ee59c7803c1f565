//! The two paced wire workloads, and the `--ramp` diagnostic, all on
//! the same server: the epoll reactor in front of two paced shards.

use crate::inputs::{self, BurstSchedule};
use crate::report::Report;
use crate::spans::SpanLog;
use crate::stats::{percentile_sorted, WindowedSamples};
use crate::verify::check_books;
use crate::wire::{closed_loop, open_loop, Client, ClosedLoopRun, Phase, Tally};
use crate::workloads::{
    io_err, median_setup, paced_reactor_config, put_acks, put_failures, put_rates,
    put_server_layers, sample_boundaries, start_server, stop_server, Ctx, Outcome, ServerDocs,
    BATCH, WINDOWS,
};
use dvfs_serve::{NetBackend, ServerHandle, SubmitItem};
use std::time::{Duration, Instant};

/// Untimed warm-up, at the workload's own load.
const WARMUP: Duration = Duration::from_secs(1);
/// An open-loop ack later than this after its due time counts as
/// failed: a backlog detector, not a latency objective.
const LATE_ACK_NS: u64 = 1_000_000_000;
/// Distinct pre-encoded payloads a generator cycles through.
const POOL: usize = 1024;
const OPEN_RATE: usize = 40_000;
const CLOSED_CLIENTS: usize = 2;

fn sorted_quantile_us(samples: &mut [u64], q: f64) -> f64 {
    samples.sort_unstable();
    percentile_sorted(samples, q).map_or(0.0, |ns| ns as f64 / 1e3)
}

/// A live paced server with its connected clients and payload pools
/// (one pool per client).
struct PacedRig {
    handle: ServerHandle,
    clients: Vec<Client>,
    pools: Vec<Vec<Vec<u8>>>,
    items: Vec<SubmitItem>,
}

impl PacedRig {
    fn build(ctx: &Ctx, name: &str, clients: usize, per_payload: usize) -> Result<Self, String> {
        let (handle, sock) = start_server(ctx, name, NetBackend::Reactor, paced_reactor_config())?;
        let mut rig = PacedRig {
            handle,
            clients: Vec::new(),
            pools: Vec::new(),
            items: Vec::new(),
        };
        for k in 0..clients {
            // Each client draws its own stream from the one seed.
            let items = inputs::synthetic_mix(ctx.seed.wrapping_add(k as u64), POOL * per_payload);
            rig.pools.push(inputs::payloads(&items, per_payload));
            rig.clients
                .push(Client::connect(&sock).map_err(io_err("connect"))?);
            if k == 0 {
                rig.items = items;
            }
        }
        Ok(rig)
    }

    /// End the round the warm-up (or the timed phase) ran in: every
    /// admitted task completes and the id ledger starts over.
    fn drain(&mut self) -> Result<(), String> {
        let reply = self.clients[0].request("drain").map_err(io_err("drain"))?;
        reply
            .is_ok()
            .then_some(())
            .ok_or_else(|| format!("drain refused: {reply:?}"))
    }

    fn teardown(self) {
        drop(self.clients);
        stop_server(self.handle);
    }

    fn outcome(self, report: Report, spans: SpanLog) -> Outcome {
        let wire_sample = self.pools[0].concat();
        let items_sample = self.items.clone();
        self.teardown();
        Outcome {
            report,
            spans,
            wire_sample,
            items_sample,
        }
    }
}

/// Open loop, 40 000 submits/s: every millisecond a burst of 40
/// auto-id submit lines on one pipelined connection, each ack timed
/// from its burst's due time.
pub fn wire_open_40k(ctx: &Ctx) -> Result<Outcome, String> {
    let burst = OPEN_RATE / 1000;
    let (mut rig, setup_s) = median_setup(
        || {
            let mut rig = PacedRig::build(ctx, "wire_open_40k", 1, burst)?;
            let warm = BurstSchedule::per_millisecond(OPEN_RATE, WARMUP.as_secs_f64());
            open_loop(&mut rig.clients[0], &warm, &rig.pools[0], Instant::now())
                .map_err(io_err("warm-up"))?;
            rig.drain()?;
            Ok(rig)
        },
        PacedRig::teardown,
    )?;

    let sched = BurstSchedule::per_millisecond(OPEN_RATE, ctx.seconds);
    let before = ServerDocs::over_wire(&mut rig.clients[0])?;
    let completed = rig.handle.metrics().counter("completed");
    let t0 = Instant::now();
    let (run, bounds) = std::thread::scope(|scope| {
        let sampler =
            scope.spawn(|| sample_boundaries(t0, Duration::from_secs_f64(ctx.seconds), &completed));
        let run = open_loop(&mut rig.clients[0], &sched, &rig.pools[0], t0);
        (run, sampler.join().expect("sampler thread panicked"))
    });
    let run = run.map_err(io_err("open loop"))?;
    rig.drain()?;
    let after = ServerDocs::over_wire(&mut rig.clients[0])?;

    let mut report = Report::default();
    report.put("setup_s", setup_s, "s");
    put_rates(&mut report, &bounds, ctx.trace);

    // Everything below is arithmetic on the timestamps the generator
    // kept: latency from the due time, from the send, and lateness.
    let mut from_due = WindowedSamples::new(WINDOWS);
    let mut from_send = Vec::with_capacity(run.acks_ns.len());
    let mut spans = SpanLog::new(ctx.trace);
    for (b, &(write_start, write_end)) in run.writes_ns.iter().enumerate() {
        let window = sched.window_of(b, WINDOWS);
        let due = sched.due_ns(b);
        let acks = &run.acks_ns[sched.acks_of(b)];
        for &ack in acks {
            from_due.push(window, ack.saturating_sub(due));
            from_send.push(ack.saturating_sub(write_start));
        }
        spans.set_enabled(ctx.trace && window.is_multiple_of(2));
        let last_ack = acks.last().copied().unwrap_or(write_end);
        let parent = spans.open("burst", due, None, b as u64);
        spans.leaf("write", write_start, write_end, parent, b as u64);
        spans.leaf("ack_wait", write_end, last_ack, parent, b as u64);
        spans.close(parent, last_ack);
    }
    let late = from_due.count_above(LATE_ACK_NS);
    let from_send_p50 = sorted_quantile_us(&mut from_send, 0.5);
    put_acks(&mut report, &mut from_due, Some(from_send_p50));
    let mut lateness: Vec<u64> = run
        .writes_ns
        .iter()
        .enumerate()
        .map(|(b, w)| w.0.saturating_sub(sched.due_ns(b)))
        .collect();
    let bursts = lateness.len() as u64;
    report.put_n(
        "loadgen.late_p50_us",
        sorted_quantile_us(&mut lateness, 0.5),
        "us",
        bursts,
    );
    report.put_n(
        "loadgen.late_p99_us",
        sorted_quantile_us(&mut lateness, 0.99),
        "us",
        bursts,
    );

    let server = after.counts()?.since(before.counts()?);
    put_failures(&mut report, run.tally, server.completed, late);
    report.problems = check_books(run.tally, server.completed, Some(server));
    put_server_layers(&mut report, &before, &after);
    report.put("cost_per_task", after.cost_per_task_since(&before), "cost");
    Ok(rig.outcome(report, spans))
}

/// Closed loop at saturation: two client threads, one connection each,
/// each writing a window of 64 submits and reading its 64 acks.
pub fn wire_closed_sat(ctx: &Ctx) -> Result<Outcome, String> {
    fn drive(rig: &mut PacedRig, phase: Phase) -> Result<Vec<ClosedLoopRun>, String> {
        std::thread::scope(|scope| {
            let drivers: Vec<_> = rig
                .clients
                .iter_mut()
                .zip(&rig.pools)
                .zip(0u64..)
                .map(|((client, pool), k)| {
                    scope.spawn(move || closed_loop(client, pool, BATCH, phase, k << 32))
                })
                .collect();
            drivers
                .into_iter()
                .map(|d| {
                    d.join()
                        .expect("closed-loop client thread panicked")
                        .map_err(io_err("closed loop"))
                })
                .collect()
        })
    }

    let (mut rig, setup_s) = median_setup(
        || {
            let mut rig = PacedRig::build(ctx, "wire_closed_sat", CLOSED_CLIENTS, BATCH)?;
            let warm = Phase {
                t0: Instant::now(),
                length: WARMUP,
                windows: 1,
                trace: false,
            };
            drive(&mut rig, warm)?;
            rig.drain()?;
            Ok(rig)
        },
        PacedRig::teardown,
    )?;

    let before = ServerDocs::over_wire(&mut rig.clients[0])?;
    let completed = rig.handle.metrics().counter("completed");
    let phase = Phase {
        t0: Instant::now(),
        length: Duration::from_secs_f64(ctx.seconds),
        windows: WINDOWS,
        trace: ctx.trace,
    };
    let (runs, bounds) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_boundaries(phase.t0, phase.length, &completed));
        let runs = drive(&mut rig, phase);
        (runs, sampler.join().expect("sampler thread panicked"))
    });
    let runs = runs?;
    rig.drain()?;
    let after = ServerDocs::over_wire(&mut rig.clients[0])?;

    let mut report = Report::default();
    report.put("setup_s", setup_s, "s");
    put_rates(&mut report, &bounds, ctx.trace);
    let mut tally = Tally::default();
    let mut acks = WindowedSamples::new(WINDOWS);
    let mut spans = SpanLog::new(true);
    for run in runs {
        tally.add(run.tally);
        acks.merge(run.ack_ns);
        spans.absorb(run.spans);
    }
    put_acks(&mut report, &mut acks, None);
    let server = after.counts()?.since(before.counts()?);
    put_failures(&mut report, tally, server.completed, 0);
    report.problems = check_books(tally, server.completed, Some(server));
    put_server_layers(&mut report, &before, &after);
    report.put("cost_per_task", after.cost_per_task_since(&before), "cost");
    Ok(rig.outcome(report, spans))
}

/// Submit rates the ramp steps through, and how long it holds each.
const RAMP_RATES: [usize; 5] = [50_000, 100_000, 150_000, 200_000, 250_000];
const RAMP_STEP_S: f64 = 3.0;
/// Within a 3 s step a growing backlog shows as acks later than this.
const RAMP_LATE_NS: u64 = 250_000_000;
/// A step passes while fewer than this share of its submits fail
/// (shed, error, or acknowledged later than [`RAMP_LATE_NS`]).
const RAMP_FAIL_LIMIT: f64 = 0.002;

/// The `--ramp` diagnostic: open-loop steps on the `wire_open_40k`
/// server, printing what each rate achieved and the last rate that
/// passed (`wire.knee_submits_per_s`). Not part of the benchmark's
/// gated set: it locates the knee and the shed-not-collapse plateau.
pub fn ramp(ctx: &Ctx) -> Result<(), String> {
    let largest = RAMP_RATES.iter().max().map_or(1, |r| r / 1000);
    let mut rig = PacedRig::build(ctx, "ramp", 1, largest)?;
    let mut knee = 0usize;
    let mut passing = true;
    for rate in RAMP_RATES {
        let sched = BurstSchedule::per_millisecond(rate, RAMP_STEP_S);
        // Whole bursts only: every payload must answer with `burst` acks.
        let whole = rig.items.len() / sched.burst * sched.burst;
        let pool = inputs::payloads(&rig.items[..whole], sched.burst);
        let run = open_loop(&mut rig.clients[0], &sched, &pool, Instant::now())
            .map_err(io_err("ramp step"))?;
        rig.drain()?;
        let mut from_due = WindowedSamples::new(1);
        for b in 0..run.writes_ns.len() {
            for &ack in &run.acks_ns[sched.acks_of(b)] {
                from_due.push(0, ack.saturating_sub(sched.due_ns(b)));
            }
        }
        from_due.sort();
        let t = run.tally;
        let failed = t.shed + t.errors + from_due.count_above(RAMP_LATE_NS);
        let failed_ratio = failed as f64 / t.sent.max(1) as f64;
        let wall_s = run
            .acks_ns
            .last()
            .map_or(RAMP_STEP_S, |&ns| ns as f64 / 1e9);
        println!(
            "ramp.step offered {rate} 1/s achieved {:.0} 1/s ack_p50_us {:.1} shed_ratio {:.5} failed_ratio {:.5}",
            t.ok as f64 / wall_s.max(RAMP_STEP_S),
            from_due.quantile_us(0.5).unwrap_or(0.0),
            t.shed as f64 / t.sent.max(1) as f64,
            failed_ratio,
        );
        passing &= failed_ratio < RAMP_FAIL_LIMIT;
        if passing {
            knee = rate;
        }
    }
    println!("wire.knee_submits_per_s {knee} 1/s");
    rig.teardown();
    Ok(())
}
