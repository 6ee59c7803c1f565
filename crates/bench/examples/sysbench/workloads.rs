//! The four named workloads. Each sets the system up (three times; the
//! median is `setup_s`), runs a timed phase cut into windows or rounds,
//! verifies the outputs, and reports the median over windows/rounds of
//! every value.
//!
//! Common server shape, fixed so commits compare: 4 cores per shard
//! (the paper's quad-core i7-950 table), `CostParams::online_paper()`,
//! the simulated actuator, telemetry on (what users run), rebalancer
//! off, and a 131 072-slot admission queue: the replay workloads hold a
//! whole round in it, and at saturation on two cores a starved ticker
//! lets tens of milliseconds of submits pile up, which a smaller queue
//! sheds — and the benchmark runs only workloads on which nothing
//! fails.

use crate::report::Report;
use crate::spans::SpanLog;
use crate::stats::{median, WindowedSamples};
use crate::verify::ServerCounts;
use crate::wire::{Client, Tally};
use dvfs_model::CostParams;
use dvfs_serve::metrics::{bucket_value, Counter, HIST_BUCKETS};
use dvfs_serve::protocol::{value_u64, Response};
use dvfs_serve::{
    serve, ActuatorKind, Endpoint, Mode, NetBackend, RebalanceConfig, Scheduler, SchedulerConfig,
    ServerConfig, ServerHandle, SubmitItem,
};
use serde_json::Value;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = [
    "wire_open_40k",
    "wire_closed_sat",
    "engine_drain_deep",
    "judge_replay_traced",
];

/// Windows (or minimum rounds) a timed phase is cut into.
pub const WINDOWS: usize = 5;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
pub const CORES: usize = 4;
const QUEUE_CAPACITY: usize = 1 << 17;
/// Submits per closed-loop window, per `submit_many` call, and per
/// replay write.
pub const BATCH: usize = 64;
pub const DEEP_TASKS: usize = 100_000;

/// What every workload is given.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where sockets and span files go (inside the checkout).
    pub out_dir: PathBuf,
}

/// What a run hands to the per-layer stage: the report so far, the
/// spans, and a sample of the workload's own wire bytes and submits.
pub struct Outcome {
    pub report: Report,
    pub spans: SpanLog,
    pub wire_sample: Vec<u8>,
    pub items_sample: Vec<SubmitItem>,
}

pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "wire_open_40k" => crate::paced::wire_open_40k(ctx),
        "wire_closed_sat" => crate::paced::wire_closed_sat(ctx),
        "engine_drain_deep" => crate::rounds::engine_drain_deep(ctx),
        "judge_replay_traced" => crate::rounds::judge_replay_traced(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

pub fn scheduler_config(mode: Mode, shards: usize, trace_capacity: usize) -> SchedulerConfig {
    SchedulerConfig {
        cores: CORES,
        params: CostParams::online_paper(),
        mode,
        queue_capacity: QUEUE_CAPACITY,
        shards,
        trace_capacity,
        actuator: ActuatorKind::Simulated,
        rebalance: RebalanceConfig::default(),
        telemetry: true,
    }
}

/// The paced two-shard server both `wire_*` workloads (and the ramp)
/// drive: 1000 engine seconds a wall second, so tasks finish at once.
pub fn paced_reactor_config() -> SchedulerConfig {
    scheduler_config(Mode::Paced { speed: 1000.0 }, 2, 0)
}

/// The effective server shape of a workload, for the run header.
pub fn describe(name: &str) -> String {
    let (front, cfg) = match name {
        "engine_drain_deep" => ("in-process", crate::rounds::deep_config()),
        "judge_replay_traced" => ("net=threads", crate::rounds::judge_config()),
        _ => ("net=reactor", paced_reactor_config()),
    };
    format!("{front} {cfg:?}")
}

pub fn start_server(
    ctx: &Ctx,
    name: &str,
    net: NetBackend,
    scheduler: SchedulerConfig,
) -> Result<(ServerHandle, PathBuf), String> {
    let sock = ctx.out_dir.join(format!("{name}.sock"));
    let cfg = ServerConfig {
        scheduler,
        net,
        ..ServerConfig::new(Endpoint::Unix(sock.clone()))
    };
    let handle = serve(cfg).map_err(|e| format!("serve on {}: {e}", sock.display()))?;
    Ok((handle, sock))
}

pub fn stop_server(handle: ServerHandle) {
    handle.shutdown();
    handle.wait();
}

pub fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Run `build` [`SETUPS`] times, tearing all but the last down, and
/// return the last with the median of the set-up times.
pub fn median_setup<T>(
    mut build: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let t = Instant::now();
        kept = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&times).expect("SETUPS > 0");
    Ok((kept.expect("SETUPS > 0"), setup_s))
}

/// One reading of the process at a window boundary.
pub struct Boundary {
    pub at: Instant,
    pub completed: u64,
    pub cpu_s: f64,
}

impl Boundary {
    pub fn now(completed: u64) -> Self {
        Boundary {
            at: Instant::now(),
            completed,
            cpu_s: crate::host::cpu_seconds(),
        }
    }
}

/// Sleep to each of the `WINDOWS + 1` window boundaries of the phase
/// and read the server's completion counter and the process CPU there.
pub fn sample_boundaries(t0: Instant, length: Duration, completed: &Counter) -> Vec<Boundary> {
    (0..=WINDOWS)
        .map(|k| {
            let due = t0 + length.mul_f64(k as f64 / WINDOWS as f64);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            Boundary::now(completed.get())
        })
        .collect()
}

/// Throughput between consecutive boundaries, one value per window
/// (or round).
fn window_rates(bounds: &[Boundary]) -> Vec<f64> {
    bounds
        .windows(2)
        .filter_map(|pair| {
            let tasks = (pair[1].completed - pair[0].completed) as f64;
            let wall = pair[1].at.duration_since(pair[0].at).as_secs_f64();
            (tasks > 0.0 && wall > 0.0).then(|| tasks / wall)
        })
        .collect()
}

/// Report throughput as the median over windows and CPU per task over
/// the whole phase (`/proc` counts CPU in 10 ms ticks, too coarse for
/// one window), plus — on a traced run — how the traced (even) windows
/// compare with the untraced (odd) ones.
pub fn put_rates(report: &mut Report, bounds: &[Boundary], trace: bool) {
    let tps = window_rates(bounds);
    report
        .notes
        .push(format!("tasks_per_s per window: {tps:.0?}"));
    report.put_n(
        "tasks_per_s",
        median(&tps).unwrap_or(0.0),
        "1/s",
        tps.len() as u64,
    );
    if let (Some(first), Some(last)) = (bounds.first(), bounds.last()) {
        let tasks = last.completed - first.completed;
        report.put_n(
            "cpu_us_per_task",
            (last.cpu_s - first.cpu_s) * 1e6 / tasks.max(1) as f64,
            "us",
            tasks,
        );
    }
    let every_other =
        |from: usize| -> Vec<f64> { tps.iter().skip(from).step_by(2).copied().collect() };
    let ratio = match (median(&every_other(0)), median(&every_other(1))) {
        (Some(traced), Some(untraced)) if trace && untraced > 0.0 => traced / untraced,
        _ => 1.0,
    };
    report.put("loadgen.trace_overhead_ratio", ratio, "ratio");
}

/// Report the ack latency percentiles. `from_send_p50_us` is given by
/// the open loop, which times from the due time; every other workload
/// already times from its own write, so there the two are one number.
pub fn put_acks(report: &mut Report, acks: &mut WindowedSamples, from_send_p50_us: Option<f64>) {
    acks.sort();
    let n = acks.count();
    let p50 = acks.quantile_us(0.50).unwrap_or(0.0);
    report.notes.push(format!(
        "ack_p50_us per window: {:.1?}",
        acks.per_window_us(0.50)
    ));
    report.put_n("ack_p50_us", p50, "us", n);
    report.put_n(
        "wire.ack_from_send_p50_us",
        from_send_p50_us.unwrap_or(p50),
        "us",
        n,
    );
    for (name, q) in [
        ("wire.ack_p90_us", 0.90),
        ("wire.ack_p99_us", 0.99),
        ("wire.ack_p999_us", 0.999),
    ] {
        report.put_n(name, acks.quantile_us(q).unwrap_or(0.0), "us", n);
    }
}

pub fn put_failures(report: &mut Report, tally: Tally, completed: u64, late: u64) {
    report.attempted = tally.sent;
    let unanswered = tally
        .sent
        .saturating_sub(tally.ok + tally.shed + tally.errors);
    let incomplete = tally.ok.saturating_sub(completed);
    report.failed = tally.shed + tally.errors + unanswered + incomplete + late;
    report.put(
        "fail_ratio",
        report.failed as f64 / tally.sent.max(1) as f64,
        "ratio",
    );
    report.put(
        "serve.protocol.bytes_per_submit",
        tally.sent_bytes as f64 / tally.sent.max(1) as f64,
        "B",
    );
    let acks = tally.ok + tally.shed + tally.errors;
    report.put(
        "serve.protocol.bytes_per_ack",
        tally.ack_bytes as f64 / acks.max(1) as f64,
        "B",
    );
}

/// A histogram's bucket counts as the server snapshots them
/// (`"buckets":[[index,count],...]`).
struct Buckets(Vec<u64>);

impl Buckets {
    fn of(hist: Option<&Value>) -> Self {
        let mut counts = vec![0u64; HIST_BUCKETS];
        let pairs = hist
            .and_then(|h| h.get("buckets"))
            .and_then(Value::as_array)
            .unwrap_or(&[]);
        for pair in pairs {
            let pair = pair.as_array().unwrap_or(&[]);
            let idx = pair.first().and_then(value_u64);
            let count = pair.get(1).and_then(value_u64);
            if let (Some(i), Some(c)) = (idx, count) {
                if let Some(slot) = counts.get_mut(i as usize) {
                    *slot = c;
                }
            }
        }
        Buckets(counts)
    }

    /// Nearest-rank quantile of the samples recorded between `earlier`
    /// and `self`, as the bucket's representative value; 0 when none.
    fn quantile_since(&self, earlier: &Buckets, q: f64) -> f64 {
        let delta: Vec<u64> = self
            .0
            .iter()
            .zip(&earlier.0)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let total: u64 = delta.iter().sum();
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, c) in delta.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_value(i);
            }
        }
        bucket_value(HIST_BUCKETS - 1)
    }
}

/// The server's own `health` and `stats` documents, taken before and
/// after the timed phase; the layer values are what was recorded in
/// between.
pub struct ServerDocs {
    health: Response,
    stats: Response,
}

impl ServerDocs {
    pub fn over_wire(client: &mut Client) -> Result<Self, String> {
        Ok(ServerDocs {
            health: client.request("health").map_err(io_err("health"))?,
            stats: client.request("stats").map_err(io_err("stats"))?,
        })
    }

    pub fn in_process(scheduler: &Scheduler) -> Self {
        ServerDocs {
            health: scheduler.health(),
            stats: scheduler.stats(),
        }
    }

    /// One stage histogram of the `health` document.
    fn stage(&self, name: &str) -> Option<&Value> {
        self.health.field("stages")?.get(name)
    }

    /// One entry of the `health` document's `reactor` section.
    fn reactor(&self, name: &str) -> Option<&Value> {
        self.health.field("reactor")?.get(name)
    }

    /// One histogram of the `stats` document's registry snapshot.
    fn stats_histogram(&self, name: &str) -> Option<&Value> {
        self.stats.field("metrics")?.get("histograms")?.get(name)
    }

    /// Eq. 27 cost per completed task between `earlier` and `self`, from
    /// the server's `task_cost` histogram (a paced server has no drain
    /// report to read it from).
    pub fn cost_per_task_since(&self, earlier: &ServerDocs) -> f64 {
        let read = |docs: &ServerDocs, field: &str| {
            docs.stats_histogram("task_cost")
                .and_then(|h| h.get(field))
                .and_then(dvfs_serve::protocol::value_f64)
                .unwrap_or(0.0)
        };
        let tasks = read(self, "count") - read(earlier, "count");
        if tasks > 0.0 {
            (read(self, "sum") - read(earlier, "sum")) / tasks
        } else {
            0.0
        }
    }

    pub fn counts(&self) -> Result<ServerCounts, String> {
        ServerCounts::from_stats(&self.stats).ok_or_else(|| "stats reply lacks counters".into())
    }
}

pub fn put_server_layers(report: &mut Report, before: &ServerDocs, after: &ServerDocs) {
    for (short, name) in [
        ("frame", dvfs_serve::STAGE_FRAME),
        ("admit", dvfs_serve::STAGE_ADMIT),
        ("queue", dvfs_serve::STAGE_QUEUE),
        ("engine", dvfs_serve::STAGE_ENGINE),
        ("service", dvfs_serve::STAGE_SERVICE),
        ("request_e2e", dvfs_serve::REQUEST_E2E),
    ] {
        let (b, a) = (
            Buckets::of(before.stage(name)),
            Buckets::of(after.stage(name)),
        );
        for (suffix, q) in [("p50", 0.50), ("p99", 0.99)] {
            // Stage histograms are in seconds.
            report.put(
                &format!("stage.{short}_{suffix}_us"),
                a.quantile_since(&b, q) * 1e6,
                "us",
            );
        }
    }
    for (metric, name) in [
        ("net.reactor.batch_lines_p50", "batch_lines"),
        ("net.reactor.events_per_wakeup_p50", "events_per_wakeup"),
    ] {
        let (b, a) = (
            Buckets::of(before.reactor(name)),
            Buckets::of(after.reactor(name)),
        );
        report.put(metric, a.quantile_since(&b, 0.5), "count");
    }
    let delta = |name: &str| {
        let count = |docs: &ServerDocs| docs.reactor(name).and_then(value_u64).unwrap_or(0);
        count(after).saturating_sub(count(before)) as f64
    };
    let (work, wait) = (delta("work_micros"), delta("wait_micros"));
    let share = if work + wait > 0.0 {
        work / (work + wait)
    } else {
        0.0
    };
    report.put("net.reactor.work_share", share, "ratio");
    report.put(
        "net.reactor.backpressure_stalls",
        delta("backpressure_stalls"),
        "count",
    );
    let lmc = |docs: &ServerDocs| Buckets::of(docs.stats_histogram("lmc_decision_us"));
    report.put(
        "core.lmc.decision_us_p50",
        lmc(after).quantile_since(&lmc(before), 0.5),
        "us",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_quantiles_cover_only_the_delta() {
        let snap = |pairs: &[(u64, u64)]| {
            let arr = pairs
                .iter()
                .map(|&(i, c)| {
                    Value::Array(vec![
                        Value::Number(serde_json::Number::PosInt(i)),
                        Value::Number(serde_json::Number::PosInt(c)),
                    ])
                })
                .collect();
            Value::Object(vec![("buckets".to_string(), Value::Array(arr))])
        };
        let before = Buckets::of(Some(&snap(&[(3, 100)])));
        let after = Buckets::of(Some(&snap(&[(3, 100), (7, 10)])));
        // Only the ten new samples in bucket 7 count.
        assert_eq!(after.quantile_since(&before, 0.5), bucket_value(7));
        assert_eq!(before.quantile_since(&before, 0.5), 0.0);
        assert_eq!(Buckets::of(None).0.len(), HIST_BUCKETS);
    }
}
