//! The two replay workloads, measured round by round: submit a whole
//! task set, `drain`, (on the wire) `trace_stream`, repeat.

use crate::inputs;
use crate::report::Report;
use crate::spans::SpanLog;
use crate::stats::{median, WindowedSamples};
use crate::verify::{check_books, simulate, RoundTotals};
use crate::wire::{nanos_since, Client, Tally};
use crate::workloads::{
    io_err, median_setup, put_acks, put_failures, put_rates, put_server_layers, scheduler_config,
    start_server, stop_server, Boundary, Ctx, Outcome, ServerDocs, BATCH, CORES, DEEP_TASKS,
    WINDOWS,
};
use dvfs_model::CostParams;
use dvfs_serve::protocol::{value_u64, Response};
use dvfs_serve::{
    Mode, NetBackend, Registry, Scheduler, SchedulerConfig, ServerHandle, SubmitItem,
};
use serde_json::Value;
use std::sync::Arc;
use std::time::Instant;

/// One replay shard, no trace ring.
pub fn deep_config() -> SchedulerConfig {
    scheduler_config(Mode::Replay, 1, 0)
}

/// Two replay shards with half-million-event trace rings.
pub fn judge_config() -> SchedulerConfig {
    scheduler_config(Mode::Replay, 2, 1 << 19)
}

/// Submits sampled for the per-layer stage.
const SAMPLE: usize = 1 << 16;

/// One measured round of a replay workload.
struct Round {
    start: Boundary,
    tally: Tally,
    totals: RoundTotals,
    drain_s: f64,
    submit_s: f64,
    trace_s: f64,
    trace_bytes: u64,
}

/// Run rounds until the phase is over — at least [`WINDOWS`] of them, so
/// the medians always have their five samples. Odd rounds of a traced
/// run record no spans. Returns the rounds and the closing boundary.
fn run_rounds(
    ctx: &Ctx,
    mut round: impl FnMut(usize, bool) -> Result<Round, String>,
) -> Result<(Vec<Round>, Boundary), String> {
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < WINDOWS || t0.elapsed().as_secs_f64() < ctx.seconds {
        let k = rounds.len();
        rounds.push(round(k, ctx.trace && k.is_multiple_of(2))?);
    }
    Ok((rounds, Boundary::now(0)))
}

/// Report the medians over rounds; returns the rounds' summed tally.
fn put_rounds(
    report: &mut Report,
    rounds: &[Round],
    end: Boundary,
    tasks_per_round: u64,
    trace: bool,
) -> Tally {
    // A round starts where the one before it ended, so the round starts
    // plus the closing boundary are the phase's window boundaries.
    let bounds: Vec<Boundary> = rounds
        .iter()
        .map(|r| &r.start)
        .chain([&end])
        .zip(0u64..)
        .map(|(b, k)| Boundary {
            at: b.at,
            completed: tasks_per_round * k,
            cpu_s: b.cpu_s,
        })
        .collect();
    put_rates(report, &bounds, trace);
    let mut tally = Tally::default();
    for r in rounds {
        tally.add(r.tally);
    }
    let n = rounds.len() as u64;
    let med =
        |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    report.put_n("round_p50_s", med(|r| r.drain_s), "s", n);
    report.put_n("wire.phase_submit_s", med(|r| r.submit_s), "s", n);
    report.put_n("wire.phase_drain_s", med(|r| r.drain_s), "s", n);
    report.put_n("wire.phase_trace_s", med(|r| r.trace_s), "s", n);
    report.put_n(
        "cost_per_task",
        med(|r| r.totals.total_cost / r.totals.completed.max(1) as f64),
        "cost",
        n,
    );
    report.put(
        "trace.bytes_per_task",
        med(|r| r.trace_bytes as f64 / r.totals.completed.max(1) as f64),
        "B",
    );
    tally
}

/// Every round must report the same totals as every other, bit for
/// bit (`cost_per_task` repeats to the last bit under `Mode::Replay`).
fn check_rounds_repeat(rounds: &[Round]) -> Vec<String> {
    let first = rounds.first().map(|r| r.totals);
    rounds
        .iter()
        .enumerate()
        .flat_map(|(k, r)| {
            first
                .map(|f| r.totals.diff(&f, &format!("round {k} vs round 0")))
                .unwrap_or_default()
        })
        .collect()
}

/// What the round workloads accumulate across rounds.
struct Probe {
    /// Zero of the span clock.
    origin: Instant,
    acks: WindowedSamples,
    spans: SpanLog,
    problems: Vec<String>,
}

impl Probe {
    fn new() -> Self {
        Probe {
            origin: Instant::now(),
            acks: WindowedSamples::new(1),
            spans: SpanLog::new(false),
            problems: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        nanos_since(self.origin, t)
    }
}

/// One `engine_drain_deep` round: every item through `submit_many` in
/// batches of 64, then `drain_round()`.
fn deep_round(
    probe: &mut Probe,
    scheduler: &Scheduler,
    items: &[SubmitItem],
    k: usize,
    traced: bool,
) -> Round {
    let params = scheduler.config().params;
    let group = k as u64;
    probe.spans.set_enabled(traced);
    let start = Boundary::now(0);
    let parent = probe.spans.open("round", probe.at(start.at), None, group);
    let mut tally = Tally::default();
    for chunk in items.chunks(BATCH) {
        let call = Instant::now();
        let responses = scheduler.submit_many(chunk);
        let returned = Instant::now();
        tally.sent += chunk.len() as u64;
        for response in &responses {
            tally.count_response(response);
        }
        probe.acks.push(0, nanos_since(call, returned));
        let (a, b) = (probe.at(call), probe.at(returned));
        probe.spans.leaf("submit_many", a, b, parent, group);
    }
    let submitted = Instant::now();
    let merged = scheduler.drain_round();
    let drained = Instant::now();
    let (a, b) = (probe.at(submitted), probe.at(drained));
    probe.spans.leaf("drain_round", a, b, parent, group);
    probe.spans.close(parent, b);
    Round {
        submit_s: submitted.duration_since(start.at).as_secs_f64(),
        drain_s: drained.duration_since(submitted).as_secs_f64(),
        trace_s: 0.0,
        trace_bytes: 0,
        start,
        tally,
        totals: RoundTotals::of_report(&merged, params),
    }
}

/// In-process, no wire: 100 000 `NonInteractive` tasks that all arrive
/// at time zero go through `submit_many` in batches of 64 into one
/// replay shard, then `drain_round()`.
pub fn engine_drain_deep(ctx: &Ctx) -> Result<Outcome, String> {
    let mut probe = Probe::new();
    let ((scheduler, items), setup_s) = median_setup(
        || {
            let items = inputs::deep_batch(ctx.seed, DEEP_TASKS);
            let scheduler = Scheduler::new(deep_config(), Arc::new(Registry::new()));
            deep_round(&mut probe, &scheduler, &items, 0, false);
            Ok((scheduler, items))
        },
        drop,
    )?;

    // The warm-up rounds' samples are not part of the timed phase.
    probe.acks = WindowedSamples::new(1);
    let before = ServerDocs::in_process(&scheduler);
    let (rounds, end) = run_rounds(ctx, |k, traced| {
        Ok(deep_round(&mut probe, &scheduler, &items, k, traced))
    })?;
    let after = ServerDocs::in_process(&scheduler);

    let mut report = Report::default();
    report.put("setup_s", setup_s, "s");
    let tally = put_rounds(&mut report, &rounds, end, DEEP_TASKS as u64, ctx.trace);
    put_acks(&mut report, &mut probe.acks, None);
    let completed: u64 = rounds.iter().map(|r| r.totals.completed).sum();
    put_failures(&mut report, tally, completed, 0);
    let server = after.counts()?.since(before.counts()?);
    report.problems = check_books(tally, completed, Some(server));
    report.problems.extend(check_rounds_repeat(&rounds));
    let params = scheduler.config().params;
    let (reference, _) = simulate(&inputs::as_replay_tasks(&items), CORES, params);
    if let Some(r) = rounds.first() {
        report
            .problems
            .extend(r.totals.diff(&reference, "merged report vs dvfs_sim"));
    }
    put_server_layers(&mut report, &before, &after);
    drop(scheduler);

    let items_sample: Vec<SubmitItem> = items.iter().take(SAMPLE).copied().collect();
    Ok(Outcome {
        report,
        spans: probe.spans,
        wire_sample: inputs::payloads(&items_sample, BATCH).concat(),
        items_sample,
    })
}

/// The fields a `trace_stream` reply carries ahead of its event array.
struct TraceHeader {
    count: u64,
    dropped: u64,
}

/// Decode the small header of a `trace_stream` reply without parsing
/// the multi-megabyte event array behind it.
fn trace_header(line: &[u8]) -> Option<TraceHeader> {
    const EVENTS: &[u8] = b",\"events\":[";
    let cut = line.windows(EVENTS.len()).position(|w| w == EVENTS)?;
    let mut head = line[..cut].to_vec();
    head.push(b'}');
    let reply = Response::decode(std::str::from_utf8(&head).ok()?).ok()?;
    Some(TraceHeader {
        count: reply.field("count").and_then(value_u64)?,
        dropped: reply.field("dropped").and_then(value_u64)?,
    })
}

/// `complete` events in a raw `trace_stream` reply (events are JSON
/// strings, so their own quotes arrive escaped).
fn count_complete_events(line: &[u8]) -> u64 {
    const COMPLETE: &[u8] = b"\\\"ev\\\":\\\"complete\\\"";
    line.windows(COMPLETE.len())
        .filter(|w| *w == COMPLETE)
        .count() as u64
}

/// A live replay server with the Judgegirl trace ready to send.
struct JudgeRig {
    handle: ServerHandle,
    client: Client,
    tasks: Vec<dvfs_model::Task>,
    payloads: Vec<Vec<u8>>,
    /// Events the verified warm-up round's `trace_stream` returned,
    /// which every later round must repeat.
    events_per_round: u64,
}

impl JudgeRig {
    fn teardown(self) {
        drop(self.client);
        stop_server(self.handle);
    }
}

/// One `judge_replay_traced` round: submit the trace in windows of 64,
/// `drain`, `trace_stream`. With `verify`, also run the expensive
/// checks: each shard's report against the simulator, and a full scan
/// of the trace reply.
fn judge_round(
    probe: &mut Probe,
    rig: &mut JudgeRig,
    k: usize,
    traced: bool,
    verify: bool,
) -> Result<Round, String> {
    let group = k as u64;
    probe.spans.set_enabled(traced);
    let start = Boundary::now(0);
    let parent = probe.spans.open("round", probe.at(start.at), None, group);
    let mut tally = Tally::default();
    let mut left = rig.tasks.len();
    for payload in &rig.payloads {
        let lines = left.min(BATCH);
        left -= lines;
        let write = Instant::now();
        std::io::Write::write_all(&mut rig.client.writer, payload).map_err(io_err("submit"))?;
        let written = Instant::now();
        tally.sent += lines as u64;
        tally.sent_bytes += payload.len() as u64;
        let mut last = written;
        let acks = &mut probe.acks;
        rig.client
            .reader
            .read_lines(lines, |stamp, line| {
                tally.count(line);
                acks.push(0, nanos_since(write, stamp));
                last = stamp;
            })
            .map_err(io_err("acks"))?;
        let (a, b, c) = (probe.at(write), probe.at(written), probe.at(last));
        probe.spans.leaf("write", a, b, parent, group);
        probe.spans.leaf("ack_wait", b, c, parent, group);
    }
    let submitted = Instant::now();
    let drain = rig.client.request("drain").map_err(io_err("drain"))?;
    let drained = Instant::now();
    let mut header = None;
    let mut trace_bytes = 0u64;
    let mut completes = None;
    rig.client
        .request_raw("trace_stream", |line| {
            trace_bytes = line.len() as u64 + 1;
            header = trace_header(line);
            completes = verify.then(|| count_complete_events(line));
        })
        .map_err(io_err("trace_stream"))?;
    let streamed = Instant::now();
    let (a, b, c) = (probe.at(submitted), probe.at(drained), probe.at(streamed));
    probe.spans.leaf("drain", a, b, parent, group);
    probe.spans.leaf("trace_stream", b, c, parent, group);
    probe.spans.close(parent, c);

    let label = format!("round {k}");
    let totals = RoundTotals::of_value(|name| drain.field(name))
        .ok_or_else(|| format!("{label}: malformed drain reply: {drain:?}"))?;
    match header {
        None => probe
            .problems
            .push(format!("{label}: malformed trace_stream reply")),
        Some(h) => {
            if h.dropped != 0 {
                probe
                    .problems
                    .push(format!("{label}: trace ring dropped {} events", h.dropped));
            }
            if verify {
                rig.events_per_round = h.count;
            } else if h.count != rig.events_per_round {
                probe.problems.push(format!(
                    "{label}: trace_stream returned {} events, the verified round {}",
                    h.count, rig.events_per_round
                ));
            }
        }
    }
    if completes.is_some_and(|n| n != totals.completed) {
        probe.problems.push(format!(
            "{label}: {completes:?} complete events in the trace for {} completed tasks",
            totals.completed
        ));
    }
    if verify {
        // Explicit ids route by `id % shards`, so each shard's report
        // must equal the simulator run over exactly those tasks.
        let params = CostParams::online_paper();
        let shards = drain
            .field("shard_reports")
            .and_then(Value::as_array)
            .unwrap_or(&[]);
        for (shard, reported) in shards.iter().enumerate() {
            let mine: Vec<_> = rig
                .tasks
                .iter()
                .filter(|t| t.id.0 % shards.len() as u64 == shard as u64)
                .cloned()
                .collect();
            let (reference, _) = simulate(&mine, CORES, params);
            match RoundTotals::of_value(|name| reported.get(name)) {
                Some(got) => probe
                    .problems
                    .extend(got.diff(&reference, &format!("shard {shard} vs dvfs_sim"))),
                None => probe
                    .problems
                    .push(format!("shard {shard}: malformed shard report")),
            }
        }
        if shards.len() != 2 {
            probe.problems.push(format!(
                "{label}: {} shard reports, expected 2",
                shards.len()
            ));
        }
    }
    Ok(Round {
        submit_s: submitted.duration_since(start.at).as_secs_f64(),
        drain_s: drained.duration_since(submitted).as_secs_f64(),
        trace_s: streamed.duration_since(drained).as_secs_f64(),
        trace_bytes,
        start,
        tally,
        totals,
    })
}

/// The paper's Judgegirl trace (explicit ids and arrivals) replayed
/// over the wire in windows of 64 on the threads backend, two replay
/// shards, trace ring on: submit all, `drain`, `trace_stream`.
pub fn judge_replay_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut probe = Probe::new();
    let mut verified = None;
    let (mut rig, setup_s) = median_setup(
        || {
            let tasks = inputs::judge_trace(ctx.seed);
            let items: Vec<SubmitItem> = tasks.iter().map(inputs::task_as_item).collect();
            let (handle, sock) = start_server(
                ctx,
                "judge_replay_traced",
                NetBackend::Threads,
                judge_config(),
            )?;
            let mut rig = JudgeRig {
                handle,
                client: Client::connect(&sock).map_err(io_err("connect"))?,
                payloads: inputs::payloads(&items, BATCH),
                tasks,
                events_per_round: 0,
            };
            // The warm-up round is also the verified one.
            verified = Some(judge_round(&mut probe, &mut rig, 0, false, true)?.totals);
            Ok(rig)
        },
        JudgeRig::teardown,
    )?;

    probe.acks = WindowedSamples::new(1);
    let before = ServerDocs::over_wire(&mut rig.client)?;
    let (rounds, end) = run_rounds(ctx, |k, traced| {
        judge_round(&mut probe, &mut rig, k, traced, false)
    })?;
    let after = ServerDocs::over_wire(&mut rig.client)?;

    let mut report = Report::default();
    report.put("setup_s", setup_s, "s");
    let tasks_per_round = rig.tasks.len() as u64;
    let tally = put_rounds(&mut report, &rounds, end, tasks_per_round, ctx.trace);
    put_acks(&mut report, &mut probe.acks, None);
    let completed: u64 = rounds.iter().map(|r| r.totals.completed).sum();
    put_failures(&mut report, tally, completed, 0);
    let server = after.counts()?.since(before.counts()?);
    report.problems = std::mem::take(&mut probe.problems);
    report
        .problems
        .extend(check_books(tally, completed, Some(server)));
    report.problems.extend(check_rounds_repeat(&rounds));
    if let (Some(first), Some(verified)) = (rounds.first(), verified) {
        report.problems.extend(
            first
                .totals
                .diff(&verified, "round 0 vs the verified round"),
        );
    }
    put_server_layers(&mut report, &before, &after);

    let items_sample: Vec<SubmitItem> = rig
        .tasks
        .iter()
        .take(SAMPLE)
        .map(inputs::task_as_item)
        .collect();
    let wire_sample = rig.payloads.concat();
    rig.teardown();
    Ok(Outcome {
        report,
        spans: probe.spans,
        wire_sample,
        items_sample,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_header_and_complete_count_read_a_raw_reply() {
        let line = br#"{"ok":true,"count":3,"dropped":0,"streamed":9,"events":["{\"t\":0,\"ev\":\"submit\"}","{\"t\":1,\"ev\":\"complete\"}","{\"t\":2,\"ev\":\"complete\"}"]}"#;
        let h = trace_header(line).unwrap();
        assert_eq!((h.count, h.dropped), (3, 0));
        assert_eq!(count_complete_events(line), 2);
        assert!(trace_header(br#"{"ok":false,"kind":"bad_request","error":"x"}"#).is_none());
    }
}
