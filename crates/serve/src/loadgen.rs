//! The companion load generator.
//!
//! Three drive modes against a running server:
//!
//! * **Replay** — submit a recorded task trace (e.g. a Judgegirl trace
//!   from `dvfs-workloads`) with its explicit ids and arrivals, then
//!   `drain` and report the served totals. Round-trips deterministically
//!   against a replay-mode server.
//! * **Poisson** — one connection sending on an exponential-gap
//!   schedule at a target rate for a fixed duration. It is *not* an
//!   open loop: every submit waits for its reply, and the next send
//!   waits for that reply as well as for its scheduled time, so a slow
//!   server slows the generator down and the target rate is an upper
//!   bound on the offered load. For a real open loop (a scheduled
//!   writer and a separate reader) use sysbench's `wire_open_40k`
//!   driver in `crates/bench/examples/sysbench/wire.rs`.
//! * **Closed** — `clients` connections, each submitting its next task
//!   only after the previous acknowledgment; throughput is bounded by
//!   round-trip latency, the classic closed-loop profile. The run ends
//!   with a `drain`, so the report carries the served totals and the
//!   per-shard completion counts from `shard_reports`.
//!
//! Every acknowledgment round-trip lands in a shared wire-latency
//! histogram — globally and per task class — and the run report
//! carries throughput and p50/p95/p99. After the run the generator
//! fetches the server's `health` document (best-effort: older servers
//! without the command are tolerated) so the summary can print the
//! client-observed percentiles next to the server-side stage
//! attribution and show where the round-trip time actually went.

use crate::metrics::{AdvisoryCell, Histogram};
use crate::protocol::{encode_command, encode_submit, value_f64, value_u64, ErrorKind, Response};
use crate::server::Endpoint;
use dvfs_model::{Task, TaskClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// What to offer the server.
#[derive(Debug, Clone)]
pub enum LoadMode {
    /// Replay a recorded trace verbatim, then drain.
    Replay {
        /// The tasks to submit, in order.
        trace: Vec<Task>,
    },
    /// Exponential-gap sends on one connection, each after the previous
    /// reply: the rate is an upper bound, not an open loop.
    Poisson {
        /// Mean arrival rate in tasks per second.
        rate_hz: f64,
        /// How long to offer load.
        duration: Duration,
        /// RNG seed (arrivals, sizes, classes).
        seed: u64,
        /// Probability a task is interactive.
        interactive_fraction: f64,
        /// Mean task size in cycles (exponentially distributed).
        mean_cycles: f64,
    },
    /// Closed-loop clients.
    Closed {
        /// Concurrent connections.
        clients: usize,
        /// Submissions per connection.
        requests_per_client: usize,
        /// RNG seed.
        seed: u64,
        /// Probability a task is interactive.
        interactive_fraction: f64,
        /// Mean task size in cycles.
        mean_cycles: f64,
        /// Fraction of submissions pinned to shard 0 via explicit ids
        /// (`id % shards == 0`), skewing load onto one shard — the
        /// scenario the cross-shard rebalancer exists for. Zero keeps
        /// every submission auto-routed.
        skew: f64,
    },
    /// Hold a herd of mostly-idle connections while one active client
    /// submits — the scenario the epoll front-end exists for, and the
    /// driver of the 10k-connection bench. Reports submit-latency
    /// quantiles under the idle herd plus a per-connection RSS
    /// estimate.
    Idle {
        /// Idle connections to open and hold for the whole run.
        connections: usize,
        /// Submissions from the single active connection.
        active_requests: usize,
        /// RNG seed (sizes, classes).
        seed: u64,
        /// Probability a task is interactive.
        interactive_fraction: f64,
        /// Mean task size in cycles.
        mean_cycles: f64,
    },
}

/// Served-workload totals returned by a `drain`.
#[derive(Debug, Clone, Default)]
pub struct DrainSummary {
    /// Tasks completed in the drained round (all shards).
    pub completed: u64,
    /// Monetary cost of the round (`Re·E + Rt·T`).
    pub total_cost: f64,
    /// Active energy in joules.
    pub active_energy_joules: f64,
    /// Sum of turnarounds in seconds.
    pub total_turnaround_s: f64,
    /// Completion time of the last task.
    pub makespan_s: f64,
    /// Engine shards on the server side.
    pub shards: u64,
    /// Completed count per shard, in shard order (empty when the
    /// server predates the `shard_reports` field).
    pub per_shard_completed: Vec<u64>,
}

/// What [`LoadMode::Idle`] observed about the idle herd.
#[derive(Debug, Clone, Default)]
pub struct IdleSummary {
    /// Idle connections actually held open.
    pub connections: usize,
    /// Process `VmRSS` (kB) before opening the herd.
    pub rss_before_kb: u64,
    /// Process `VmRSS` (kB) with the whole herd open.
    pub rss_after_kb: u64,
    /// RSS growth per held connection, in bytes. An **estimate** of
    /// process-side cost only (client + server when they share the
    /// process, as in the bench smoke): kernel socket buffers are not
    /// resident memory.
    pub rss_per_conn_bytes: u64,
}

/// What a load-generation run observed.
#[derive(Debug)]
pub struct LoadReport {
    /// Submissions sent.
    pub sent: u64,
    /// Submissions acknowledged as admitted.
    pub admitted: u64,
    /// Submissions shed by admission control.
    pub shed: u64,
    /// Other error responses.
    pub errors: u64,
    /// Shed submissions split by task class, indexed by [`class_idx`]
    /// (interactive, non-interactive, batch).
    pub shed_by_class: [u64; 3],
    /// Wall-clock seconds the run took.
    pub wall_seconds: f64,
    /// Acknowledged submissions per wall second.
    pub throughput_rps: f64,
    /// Wire round-trip latency histogram (seconds).
    pub rtt: Arc<Histogram>,
    /// Per-class round-trip histograms, indexed by [`class_idx`]
    /// (interactive, non-interactive, batch).
    pub rtt_by_class: [Arc<Histogram>; 3],
    /// Server-side stage attribution from the post-run `health` fetch,
    /// in pipeline order. Empty when the server does not speak
    /// `health` or recorded no stage samples.
    pub stages: Vec<StageQuantiles>,
    /// Drain totals (replay mode only).
    pub drain: Option<DrainSummary>,
    /// Idle-herd observations ([`LoadMode::Idle`] only).
    pub idle: Option<IdleSummary>,
}

/// One server-side stage's latency quantiles, parsed out of the
/// `health` document's `stages` object.
#[derive(Debug, Clone, PartialEq)]
pub struct StageQuantiles {
    /// Histogram series name (e.g. `stage_queue_s`).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Median, in seconds.
    pub p50_s: f64,
    /// 95th percentile, in seconds.
    pub p95_s: f64,
    /// 99th percentile, in seconds.
    pub p99_s: f64,
}

/// Index of a task class in [`LoadReport::shed_by_class`].
#[must_use]
pub fn class_idx(class: TaskClass) -> usize {
    match class {
        TaskClass::Interactive => 0,
        TaskClass::NonInteractive => 1,
        TaskClass::Batch => 2,
    }
}

impl LoadReport {
    /// Fraction of submissions shed by admission control (0 when
    /// nothing was sent).
    #[must_use]
    pub fn shed_ratio(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.shed as f64 / self.sent as f64
        }
    }

    /// Render the human-readable summary the CLI prints.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sent {} | admitted {} | shed {} | errors {}",
            self.sent, self.admitted, self.shed, self.errors
        );
        if self.shed > 0 {
            let [i, n, b] = self.shed_by_class;
            let _ = writeln!(
                out,
                "shed by class: interactive {i} | non_interactive {n} | batch {b}"
            );
        }
        let _ = writeln!(
            out,
            "wall {:.3} s | throughput {:.1} req/s",
            self.wall_seconds, self.throughput_rps
        );
        let q = |p: f64| self.rtt.quantile(p).unwrap_or(0.0) * 1e3;
        let _ = writeln!(
            out,
            "rtt p50 {:.3} ms | p95 {:.3} ms | p99 {:.3} ms",
            q(0.50),
            q(0.95),
            q(0.99)
        );
        let class_names = ["interactive", "non_interactive", "batch"];
        for (name, hist) in class_names.iter().zip(&self.rtt_by_class) {
            if hist.count() == 0 {
                continue;
            }
            let q = |p: f64| hist.quantile(p).unwrap_or(0.0) * 1e3;
            let _ = writeln!(
                out,
                "rtt[{name}] p50 {:.3} ms | p95 {:.3} ms | p99 {:.3} ms ({} samples)",
                q(0.50),
                q(0.95),
                q(0.99),
                hist.count()
            );
        }
        for s in &self.stages {
            // `stage_queue_s` renders as `server queue`; the e2e series
            // keeps its full name so it is not mistaken for a stage.
            let label = s
                .name
                .strip_prefix("stage_")
                .and_then(|n| n.strip_suffix("_s"))
                .unwrap_or(&s.name);
            let _ = writeln!(
                out,
                "server {label} p50 {:.3} ms | p95 {:.3} ms | p99 {:.3} ms ({} samples)",
                s.p50_s * 1e3,
                s.p95_s * 1e3,
                s.p99_s * 1e3,
                s.count
            );
        }
        if let Some(i) = &self.idle {
            let _ = writeln!(
                out,
                "idle herd: {} connections | rss {} kB -> {} kB | ~{} B/conn",
                i.connections, i.rss_before_kb, i.rss_after_kb, i.rss_per_conn_bytes
            );
        }
        if let Some(d) = &self.drain {
            let _ = writeln!(
                out,
                "served: {} tasks | total cost {:.6} | energy {:.3} J | turnaround {:.3} s | makespan {:.3} s",
                d.completed, d.total_cost, d.active_energy_joules, d.total_turnaround_s, d.makespan_s
            );
            if d.shards > 1 {
                let per_shard: Vec<String> = d
                    .per_shard_completed
                    .iter()
                    .enumerate()
                    .map(|(k, n)| format!("shard{k}:{n}"))
                    .collect();
                let _ = writeln!(
                    out,
                    "shards: {} | completed per shard: {}",
                    d.shards,
                    per_shard.join(" ")
                );
            }
        }
        out
    }
}

/// One NDJSON connection to the server.
pub struct Connection {
    writer: BufWriter<Box<dyn Write + Send>>,
    reader: BufReader<Box<dyn std::io::Read + Send>>,
}

impl Connection {
    /// Connect to `endpoint`.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn open(endpoint: &Endpoint) -> std::io::Result<Self> {
        let (reader, writer): (Box<dyn std::io::Read + Send>, Box<dyn Write + Send>) =
            match endpoint {
                Endpoint::Unix(path) => {
                    let s = UnixStream::connect(path)?;
                    (Box::new(s.try_clone()?), Box::new(s))
                }
                Endpoint::Tcp(addr) => {
                    let s = TcpStream::connect(addr)?;
                    (Box::new(s.try_clone()?), Box::new(s))
                }
            };
        Ok(Connection {
            writer: BufWriter::new(writer),
            reader: BufReader::new(reader),
        })
    }

    /// Send one request line and read the response line.
    ///
    /// # Errors
    /// I/O failures, or a response that fails to decode.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<Response> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::decode(reply.trim()).map_err(std::io::Error::other)
    }
}

/// A held-open socket with no buffers attached — the idle herd member.
/// Client-side `BufReader`/`BufWriter` pairs would cost ~16 kB each,
/// which at 10k connections would swamp the RSS measurement.
enum IdleStream {
    Unix { _held: UnixStream },
    Tcp { _held: TcpStream },
}

fn open_idle(endpoint: &Endpoint) -> std::io::Result<IdleStream> {
    Ok(match endpoint {
        Endpoint::Unix(path) => IdleStream::Unix {
            _held: UnixStream::connect(path)?,
        },
        Endpoint::Tcp(addr) => IdleStream::Tcp {
            _held: TcpStream::connect(addr)?,
        },
    })
}

/// This process's resident set in kB, from `/proc/self/status`.
fn rss_kb() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

#[derive(Default)]
struct Tally {
    sent: u64,
    admitted: u64,
    shed: u64,
    shed_by_class: [u64; 3],
    errors: u64,
}

impl Tally {
    fn observe(&mut self, resp: &Response, class: TaskClass) {
        self.sent += 1;
        match resp {
            Response::Ok(_) => self.admitted += 1,
            Response::Err {
                kind: ErrorKind::Overloaded,
                ..
            } => {
                self.shed += 1;
                self.shed_by_class[class_idx(class)] += 1;
            }
            Response::Err { .. } => self.errors += 1,
        }
    }
}

/// The shared latency sinks every submission reports into: the global
/// round-trip histogram plus one per task class.
#[derive(Clone)]
struct RttSinks {
    all: Arc<Histogram>,
    by_class: [Arc<Histogram>; 3],
}

impl RttSinks {
    fn new() -> Self {
        RttSinks {
            all: Arc::new(Histogram::default()),
            by_class: std::array::from_fn(|_| Arc::new(Histogram::default())),
        }
    }

    fn record(&self, class: TaskClass, seconds: f64) {
        self.all.record(seconds);
        self.by_class[class_idx(class)].record(seconds);
    }
}

fn submit_and_tally(
    conn: &mut Connection,
    line: &str,
    class: TaskClass,
    rtt: &RttSinks,
    tally: &mut Tally,
) -> std::io::Result<()> {
    let t0 = crate::clock::wall_now();
    let resp = conn.round_trip(line)?;
    rtt.record(class, t0.elapsed().as_secs_f64());
    tally.observe(&resp, class);
    Ok(())
}

/// Exponential draw with the given mean.
fn exp_draw(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() * mean
}

fn random_task_parts(
    rng: &mut StdRng,
    interactive_fraction: f64,
    mean_cycles: f64,
) -> (u64, TaskClass) {
    let class = if rng.gen_bool(interactive_fraction.clamp(0.0, 1.0)) {
        TaskClass::Interactive
    } else {
        TaskClass::NonInteractive
    };
    let cycles = exp_draw(rng, mean_cycles).max(1.0) as u64;
    (cycles, class)
}

fn random_task_line(
    rng: &mut StdRng,
    interactive_fraction: f64,
    mean_cycles: f64,
) -> (String, TaskClass) {
    let (cycles, class) = random_task_parts(rng, interactive_fraction, mean_cycles);
    (encode_submit(None, cycles, class, None), class)
}

/// Explicit ids for skewed submissions start far above the server's
/// auto-id range (which counts up from zero), so a pinned id never
/// collides with an auto assignment within a round.
const SKEW_ID_BASE: u64 = 250_000_000;

/// The `n`-th skewed submission's explicit id: always `≡ 0 mod shards`,
/// so the server's hash router pins it to shard 0.
fn skew_id(n: u64, shards: u64) -> u64 {
    (SKEW_ID_BASE + n) * shards
}

/// Parse the `stages` object of a `health` response into quantile
/// rows, keeping pipeline order and dropping stages with no samples.
/// The end-to-end series rides along last so the telescope's target is
/// visible next to its parts.
fn parse_health_stages(resp: &Response) -> Vec<StageQuantiles> {
    let Some(Value::Object(pairs)) = resp.field("stages") else {
        return Vec::new();
    };
    let mut order: Vec<&str> = crate::stage::TELESCOPE_STAGES.to_vec();
    order.push(crate::stage::REQUEST_E2E);
    let mut out = Vec::new();
    for name in order {
        let Some((_, v)) = pairs.iter().find(|(k, _)| k == name) else {
            continue;
        };
        let count = v.get("count").and_then(value_u64).unwrap_or(0);
        if count == 0 {
            continue;
        }
        let f = |key| v.get(key).and_then(value_f64).unwrap_or(0.0);
        out.push(StageQuantiles {
            name: name.to_string(),
            count,
            p50_s: f("p50"),
            p95_s: f("p95"),
            p99_s: f("p99"),
        });
    }
    out
}

/// Fetch the server's stage attribution, tolerating servers that do
/// not speak `health` (an error response or I/O failure yields the
/// empty vec, never a failed run).
fn fetch_health_stages(endpoint: &Endpoint) -> Vec<StageQuantiles> {
    let Ok(mut conn) = Connection::open(endpoint) else {
        return Vec::new();
    };
    match conn.round_trip(&encode_command("health")) {
        Ok(resp @ Response::Ok(_)) => parse_health_stages(&resp),
        _ => Vec::new(),
    }
}

fn parse_drain(resp: &Response) -> Option<DrainSummary> {
    let f = |name| resp.field(name).and_then(value_f64);
    let per_shard_completed = match resp.field("shard_reports") {
        Some(Value::Array(reports)) => reports
            .iter()
            .filter_map(|r| r.get("completed").and_then(value_u64))
            .collect(),
        _ => Vec::new(),
    };
    Some(DrainSummary {
        completed: resp.field("completed").and_then(value_u64)?,
        total_cost: f("total_cost")?,
        active_energy_joules: f("active_energy_joules")?,
        total_turnaround_s: f("total_turnaround_s")?,
        makespan_s: f("makespan_s")?,
        shards: resp.field("shards").and_then(value_u64).unwrap_or(1),
        per_shard_completed,
    })
}

/// Run a load-generation session against `endpoint`.
///
/// # Errors
/// Propagates connection and protocol failures; individual shed or
/// error responses are tallied, not fatal.
pub fn run(endpoint: &Endpoint, mode: &LoadMode) -> std::io::Result<LoadReport> {
    let rtt = RttSinks::new();
    let started = crate::clock::wall_now();
    let mut tally = Tally::default();
    let mut drain = None;
    let mut idle = None;

    match mode {
        LoadMode::Replay { trace } => {
            let mut conn = Connection::open(endpoint)?;
            for t in trace {
                let line = encode_submit(Some(t.id.0), t.cycles, t.class, Some(t.arrival));
                submit_and_tally(&mut conn, &line, t.class, &rtt, &mut tally)?;
            }
            let resp = conn.round_trip(&encode_command("drain"))?;
            if let Response::Err { ref message, .. } = resp {
                return Err(std::io::Error::other(format!("drain failed: {message}")));
            }
            drain = parse_drain(&resp);
        }
        LoadMode::Poisson {
            rate_hz,
            duration,
            seed,
            interactive_fraction,
            mean_cycles,
        } => {
            let mut conn = Connection::open(endpoint)?;
            let mut rng = StdRng::seed_from_u64(*seed);
            let mean_gap = 1.0 / rate_hz.max(1e-9);
            let mut next_send = 0.0f64;
            while started.elapsed() < *duration {
                let now = started.elapsed().as_secs_f64();
                if now < next_send {
                    std::thread::sleep(Duration::from_secs_f64((next_send - now).min(0.05)));
                    continue;
                }
                next_send += exp_draw(&mut rng, mean_gap);
                let (line, class) = random_task_line(&mut rng, *interactive_fraction, *mean_cycles);
                submit_and_tally(&mut conn, &line, class, &rtt, &mut tally)?;
            }
        }
        LoadMode::Closed {
            clients,
            requests_per_client,
            seed,
            interactive_fraction,
            mean_cycles,
            skew,
        } => {
            // Skewed submissions pin explicit ids onto shard 0, so the
            // shard count must be known up front; one stats round-trip
            // discovers it (skipped entirely for unskewed runs).
            let skew = skew.clamp(0.0, 1.0);
            let shards = if skew > 0.0 {
                let mut conn = Connection::open(endpoint)?;
                let resp = conn.round_trip(&encode_command("stats"))?;
                resp.field("shards").and_then(value_u64).unwrap_or(1).max(1)
            } else {
                1
            };
            // Spreads hot-key ids across clients; nothing reads it back.
            let skew_seq = Arc::new(AdvisoryCell::default());
            let mut threads = Vec::new();
            for c in 0..*clients {
                let endpoint = endpoint.clone();
                let rtt = rtt.clone();
                let skew_seq = Arc::clone(&skew_seq);
                let (n, frac, mean, seed) = (
                    *requests_per_client,
                    *interactive_fraction,
                    *mean_cycles,
                    *seed,
                );
                threads.push(std::thread::spawn(move || -> std::io::Result<Tally> {
                    let mut conn = Connection::open(&endpoint)?;
                    let mut rng = StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9E37));
                    let mut tally = Tally::default();
                    for _ in 0..n {
                        let (cycles, class) = random_task_parts(&mut rng, frac, mean);
                        let line = if skew > 0.0 && rng.gen_bool(skew) {
                            let seq = skew_seq.add(1);
                            encode_submit(Some(skew_id(seq, shards)), cycles, class, None)
                        } else {
                            encode_submit(None, cycles, class, None)
                        };
                        submit_and_tally(&mut conn, &line, class, &rtt, &mut tally)?;
                    }
                    Ok(tally)
                }));
            }
            for t in threads {
                let sub = t
                    .join()
                    .map_err(|_| std::io::Error::other("client thread panicked"))??;
                tally.sent += sub.sent;
                tally.admitted += sub.admitted;
                tally.shed += sub.shed;
                for (dst, src) in tally.shed_by_class.iter_mut().zip(sub.shed_by_class) {
                    *dst += src;
                }
                tally.errors += sub.errors;
            }
            // Drain once the clients are done: the round barrier folds
            // each shard worker's report into `shard_reports`, so the
            // summary can attribute completions per shard instead of
            // reporting submission totals only.
            let mut conn = Connection::open(endpoint)?;
            let resp = conn.round_trip(&encode_command("drain"))?;
            if let Response::Err { ref message, .. } = resp {
                return Err(std::io::Error::other(format!("drain failed: {message}")));
            }
            drain = parse_drain(&resp);
        }
        LoadMode::Idle {
            connections,
            active_requests,
            seed,
            interactive_fraction,
            mean_cycles,
        } => {
            let rss_before_kb = rss_kb().unwrap_or(0);
            let mut herd = Vec::with_capacity(*connections);
            for _ in 0..*connections {
                herd.push(open_idle(endpoint)?);
            }
            let rss_after_kb = rss_kb().unwrap_or(0);
            // The active set: one connection submitting while the herd
            // sits registered but silent.
            let mut conn = Connection::open(endpoint)?;
            let mut rng = StdRng::seed_from_u64(*seed);
            for _ in 0..*active_requests {
                let (line, class) = random_task_line(&mut rng, *interactive_fraction, *mean_cycles);
                submit_and_tally(&mut conn, &line, class, &rtt, &mut tally)?;
            }
            let growth_bytes = rss_after_kb.saturating_sub(rss_before_kb) * 1024;
            idle = Some(IdleSummary {
                connections: herd.len(),
                rss_before_kb,
                rss_after_kb,
                rss_per_conn_bytes: growth_bytes / (herd.len().max(1) as u64),
            });
            drop(herd); // held open through the whole active phase
        }
    }

    let wall_seconds = started.elapsed().as_secs_f64();
    // Post-run, so the fetch itself never lands in the rtt histograms
    // and the server-side stage counts cover the whole offered load.
    let stages = fetch_health_stages(endpoint);
    Ok(LoadReport {
        sent: tally.sent,
        admitted: tally.admitted,
        shed: tally.shed,
        errors: tally.errors,
        shed_by_class: tally.shed_by_class,
        wall_seconds,
        throughput_rps: tally.admitted as f64 / wall_seconds.max(1e-9),
        rtt: rtt.all,
        rtt_by_class: rtt.by_class,
        stages,
        drain,
        idle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_draws_have_roughly_the_right_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exp_draw(&mut rng, 2.0)).sum::<f64>() / n as f64;
        assert!((1.9..2.1).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn parse_drain_reads_per_shard_reports() {
        use crate::protocol::{field_f64, field_u64};
        let resp = Response::Ok(vec![
            field_u64("completed", 7),
            field_f64("total_cost", 1.5),
            field_f64("active_energy_joules", 2.0),
            field_f64("total_turnaround_s", 3.0),
            field_f64("makespan_s", 4.0),
            field_u64("shards", 2),
            (
                "shard_reports".to_string(),
                Value::Array(vec![
                    Value::Object(vec![field_u64("shard", 0), field_u64("completed", 4)]),
                    Value::Object(vec![field_u64("shard", 1), field_u64("completed", 3)]),
                ]),
            ),
        ]);
        let d = parse_drain(&resp).unwrap();
        assert_eq!(d.completed, 7);
        assert_eq!(d.shards, 2);
        assert_eq!(d.per_shard_completed, vec![4, 3]);
        // A pre-shard server response still parses, defaulting to one
        // shard and no per-shard breakdown.
        let legacy = Response::Ok(vec![
            field_u64("completed", 1),
            field_f64("total_cost", 0.1),
            field_f64("active_energy_joules", 0.2),
            field_f64("total_turnaround_s", 0.3),
            field_f64("makespan_s", 0.4),
        ]);
        let d = parse_drain(&legacy).unwrap();
        assert_eq!(d.shards, 1);
        assert!(d.per_shard_completed.is_empty());
    }

    #[test]
    fn tally_splits_sheds_by_class_and_reports_ratio() {
        let mut tally = Tally::default();
        let shed = Response::Err {
            kind: ErrorKind::Overloaded,
            message: "full".to_string(),
        };
        tally.observe(&Response::Ok(vec![]), TaskClass::Interactive);
        tally.observe(&shed, TaskClass::Interactive);
        tally.observe(&shed, TaskClass::NonInteractive);
        tally.observe(&shed, TaskClass::NonInteractive);
        assert_eq!(tally.shed, 3);
        assert_eq!(tally.shed_by_class, [1, 2, 0]);
        let report = LoadReport {
            sent: tally.sent,
            admitted: tally.admitted,
            shed: tally.shed,
            errors: tally.errors,
            shed_by_class: tally.shed_by_class,
            wall_seconds: 1.0,
            throughput_rps: 1.0,
            rtt: Arc::new(Histogram::default()),
            rtt_by_class: std::array::from_fn(|_| Arc::new(Histogram::default())),
            stages: Vec::new(),
            drain: None,
            idle: None,
        };
        assert!((report.shed_ratio() - 0.75).abs() < 1e-12);
        let text = report.render();
        assert!(
            text.contains("shed by class: interactive 1 | non_interactive 2 | batch 0"),
            "{text}"
        );
    }

    #[test]
    fn render_shows_per_class_rtt_next_to_server_stage_attribution() {
        let rtt = RttSinks::new();
        rtt.record(TaskClass::Interactive, 0.002);
        rtt.record(TaskClass::Interactive, 0.004);
        rtt.record(TaskClass::Batch, 0.050);
        let report = LoadReport {
            sent: 3,
            admitted: 3,
            shed: 0,
            errors: 0,
            shed_by_class: [0; 3],
            wall_seconds: 1.0,
            throughput_rps: 3.0,
            rtt: rtt.all,
            rtt_by_class: rtt.by_class,
            stages: vec![StageQuantiles {
                name: "stage_queue_s".to_string(),
                count: 3,
                p50_s: 0.001,
                p95_s: 0.002,
                p99_s: 0.003,
            }],
            drain: None,
            idle: None,
        };
        let text = report.render();
        assert!(text.contains("rtt[interactive] p50"), "{text}");
        assert!(text.contains("rtt[batch] p50"), "{text}");
        // No non-interactive samples: its row is suppressed, not zero.
        assert!(!text.contains("rtt[non_interactive]"), "{text}");
        assert!(
            text.contains("server queue p50 1.000 ms | p95 2.000 ms | p99 3.000 ms (3 samples)"),
            "{text}"
        );
    }

    #[test]
    fn parse_health_stages_keeps_pipeline_order_and_drops_empty() {
        use crate::protocol::{field_f64, field_u64};
        let hist = |count: u64, p50: f64| {
            Value::Object(vec![
                field_u64("count", count),
                field_f64("p50", p50),
                field_f64("p95", p50 * 2.0),
                field_f64("p99", p50 * 3.0),
            ])
        };
        // Deliberately out of pipeline order, with one empty stage.
        let resp = Response::Ok(vec![(
            "stages".to_string(),
            Value::Object(vec![
                ("request_e2e_s".to_string(), hist(5, 0.010)),
                ("stage_queue_s".to_string(), hist(5, 0.004)),
                ("stage_frame_s".to_string(), hist(5, 0.001)),
                ("stage_admit_s".to_string(), hist(0, 0.0)),
            ]),
        )]);
        let stages = parse_health_stages(&resp);
        let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["stage_frame_s", "stage_queue_s", "request_e2e_s"]);
        assert_eq!(stages[0].count, 5);
        assert!((stages[1].p50_s - 0.004).abs() < 1e-12);
        assert!((stages[1].p99_s - 0.012).abs() < 1e-12);
        // No stages object at all (pre-health server): empty, no error.
        assert!(parse_health_stages(&Response::Ok(vec![])).is_empty());
    }

    #[test]
    fn skew_ids_pin_to_shard_zero_without_colliding_with_autos() {
        for shards in [1u64, 2, 4, 7] {
            let mut seen = std::collections::HashSet::new();
            for n in 0..100 {
                let id = skew_id(n, shards);
                assert_eq!(id % shards, 0, "skewed id must hash to shard 0");
                assert!(id >= SKEW_ID_BASE, "skewed id inside the auto range");
                assert!(seen.insert(id), "duplicate skewed id {id}");
            }
        }
    }

    #[test]
    fn random_task_lines_parse_back() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let (line, _class) = random_task_line(&mut rng, 0.5, 1e8);
            assert!(crate::protocol::parse_request(&line).is_ok(), "{line}");
        }
    }
}
