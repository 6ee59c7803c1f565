//! Subcommand implementations.

use crate::args::{parse_cycles_list, Args};
use dvfs_baselines::{OlbOnline, OnDemandOnline};
use dvfs_core::{schedule_wbg, DominatingRanges, LeastMarginalCost, WbgReassign};
use dvfs_model::task::batch_workload;
use dvfs_model::{CostParams, Platform, RateTable};
use dvfs_serve::protocol::{encode_command, value_f64, value_u64};
use dvfs_sim::{GovernorKind, Policy, SimConfig, SimReport, Simulator};
use dvfs_trace::export::{chrome_trace, parse_jsonl, to_jsonl};
use dvfs_trace::EventKind;
use dvfs_workloads::judge::TraceStats;
use dvfs_workloads::JudgeTraceConfig;

/// CLI usage text.
pub const USAGE: &str = "\
dvfs-sched — energy-efficient per-core-DVFS task scheduling (ICPP 2014)

USAGE:
  dvfs-sched generate-trace --out FILE [--kind judge|poisson|diurnal]
             [--seed N] [--scale N] [--heavy]
  dvfs-sched schedule-batch --cycles L1,L2,... [--cores N] [--re X] [--rt Y]
  dvfs-sched simulate --trace FILE --policy lmc|wbg|olb|ondemand
             [--cores N] [--re X] [--rt Y] [--report FILE] [--log FILE]
  dvfs-sched analyze [--report FILE] [--log FILE.jsonl] [--gantt FILE.csv]
             [--queue FILE.csv]
  dvfs-sched ranges [--re X] [--rt Y]
  dvfs-sched serve (--socket PATH | --tcp ADDR) [--mode replay|paced]
             [--speed X] [--cores N] [--shards N] [--re X] [--rt Y]
             [--queue-cap N] [--trace-out FILE] [--trace-cap N]
             [--net threads|reactor]
             [--max-connections N] [--rebalance on|off]
             [--telemetry on|off]
  dvfs-sched loadgen (--socket PATH | --tcp ADDR) --trace FILE [--shutdown]
  dvfs-sched trace-export --in FILE.jsonl --out FILE.json

Any flag a subcommand does not list is an error.
Cost parameters default to the paper's: batch Re=0.1 Rt=0.4 for
schedule-batch/ranges, online Re=0.4 Rt=0.1 for simulate/serve.
`serve --trace-cap N` enables per-shard lifecycle tracing (ring of N
events per shard); `--trace-out` mirrors the drained trace to a JSONL
file, and `simulate --log` writes the simulator's run in the same
format. `trace-export` converts either into Chrome trace_event JSON
loadable in Perfetto (ui.perfetto.dev); `analyze --log` reads either
for Gantt segments and queue depth (`--report` adds the simulator's
summary and the arrivals its log has no line for).
`loadgen` replays a trace over one connection (explicit ids and
arrivals), drains the round, and prints the submissions admitted, shed
and rejected beside the served totals. `serve --net` picks the wire
driver: `reactor` (the default: one epoll thread for every connection)
or `threads` (one blocking thread per connection, kept for portability)
— same request handler, same wire bytes, same replay semantics;
`--max-connections` caps concurrent connections on either, shedding on
accept. `serve --rebalance on` enables the Eq. 27 cross-shard
rebalancer (tick-driven task migration hot->cold); replaying a trace
whose ids are all multiples of `--shards` to a paced server piles it
onto shard 0 and provokes it.
`serve --telemetry off` silences per-request stage-attribution
histograms (the `health` command's worker heartbeats and loop counters
stay on).";

fn cost_params(args: &Args, default: CostParams) -> Result<CostParams, String> {
    let re = args.num("re", default.re)?;
    let rt = args.num("rt", default.rt)?;
    CostParams::new(re, rt).map_err(|e| e.to_string())
}

fn platform(args: &Args) -> Result<Platform, String> {
    let cores: usize = args.num("cores", 4)?;
    if cores == 0 {
        return Err("`--cores` must be positive".into());
    }
    Platform::homogeneous(
        cores,
        dvfs_model::CoreSpec::new(RateTable::i7_950_table2()).with_idle_power(2.0),
    )
    .map_err(|e| e.to_string())
}

/// Dispatch argv to a subcommand.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("no subcommand given".into());
    };
    match cmd.as_str() {
        "generate-trace" => generate_trace(rest),
        "schedule-batch" => schedule_batch(rest),
        "simulate" => simulate(rest),
        "analyze" => analyze(rest),
        "ranges" => ranges(rest),
        "serve" => serve_cmd(rest),
        "loadgen" => loadgen_cmd(rest),
        "trace-export" => trace_export(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn generate_trace(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["out", "seed", "scale", "kind"], &["heavy"])?;
    let out = args.require("out")?;
    let seed: u64 = args.num("seed", 1)?;
    let scale: usize = args.num("scale", 1)?;
    if scale == 0 {
        return Err("`--scale` must be positive".into());
    }
    let kind = args.get("kind").unwrap_or("judge");
    let trace = match kind {
        "judge" => {
            let mut cfg = if args.switch("heavy") {
                JudgeTraceConfig::paper_heavy(seed)
            } else {
                JudgeTraceConfig::paper(seed)
            };
            cfg.non_interactive = (cfg.non_interactive / scale).max(1);
            cfg.interactive = (cfg.interactive / scale).max(1);
            cfg.generate()
        }
        "poisson" => {
            let mut cfg = dvfs_workloads::PoissonTrace::default_config(seed);
            cfg.duration_s /= scale as f64;
            cfg.generate()
        }
        "diurnal" => {
            let mut cfg = dvfs_workloads::DiurnalTrace::default_config(seed);
            cfg.duration_s /= scale as f64;
            cfg.period_s /= scale as f64;
            cfg.generate()
        }
        other => {
            return Err(format!(
                "unknown trace kind `{other}` (judge|poisson|diurnal)"
            ))
        }
    };
    dvfs_workloads::io::save_trace(std::path::Path::new(out), &trace).map_err(|e| e.to_string())?;
    let stats = TraceStats::of(&trace);
    println!(
        "wrote {} tasks ({} interactive, {} non-interactive, span {:.0} s) to {out}",
        trace.len(),
        stats.interactive,
        stats.non_interactive,
        stats.span_s
    );
    Ok(())
}

fn schedule_batch(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["cycles", "cores", "re", "rt"], &[])?;
    let cycles = parse_cycles_list(args.require("cycles")?)?;
    if cycles.contains(&0) {
        return Err("cycle counts must be positive".into());
    }
    let params = cost_params(&args, CostParams::batch_paper())?;
    let platform = platform(&args)?;
    let tasks = batch_workload(&cycles);
    let plan = schedule_wbg(&tasks, &platform, params);
    let table = RateTable::i7_950_table2();
    println!(
        "WBG plan ({} cores, Re={}, Rt={}):",
        platform.num_cores(),
        params.re,
        params.rt
    );
    for (j, seq) in plan.per_core.iter().enumerate() {
        println!("  core {j}:");
        for &(tid, rate) in seq {
            let t = tasks
                .iter()
                .find(|t| t.id == tid)
                .ok_or_else(|| format!("plan references unknown task {tid}"))?;
            println!(
                "    {} {:>12.3} Gcycles @ {:.1} GHz",
                tid,
                t.cycles as f64 / 1e9,
                table.rate(rate).freq_hz / 1e9
            );
        }
    }
    let cost = dvfs_core::batch::predict_plan_cost(&plan, &tasks, &platform, params);
    println!("predicted total cost: {cost:.4}");
    Ok(())
}

fn simulate(argv: &[String]) -> Result<(), String> {
    let keys = ["trace", "policy", "cores", "re", "rt", "report", "log"];
    let args = Args::parse(argv, &keys, &[])?;
    let trace_path = args.require("trace")?;
    let policy_name = args.require("policy")?.to_string();
    let params = cost_params(&args, CostParams::online_paper())?;
    let platform = platform(&args)?;
    let trace = dvfs_workloads::io::load_trace(std::path::Path::new(trace_path))
        .map_err(|e| e.to_string())?;
    if trace.is_empty() {
        return Err("trace is empty".into());
    }

    let mut cfg = SimConfig::new(platform.clone());
    let mut policy: Box<dyn Policy> = match policy_name.as_str() {
        "lmc" => Box::new(LeastMarginalCost::new(&platform, params)),
        "wbg" => Box::new(WbgReassign::new(&platform, params)),
        "olb" => Box::new(OlbOnline::new(platform.num_cores())),
        "ondemand" => {
            cfg = cfg.with_governor(GovernorKind::ondemand_paper());
            Box::new(OnDemandOnline::new(platform.num_cores()))
        }
        other => return Err(format!("unknown policy `{other}` (lmc|wbg|olb|ondemand)")),
    };
    let mut sim = Simulator::new(cfg);
    if args.get("log").is_some() {
        sim.record_trace();
    }
    sim.add_tasks(&trace);
    let report: SimReport = sim.run(policy.as_mut());

    let cost = report.cost(params);
    println!("policy          : {}", report.policy);
    println!("tasks completed : {}", report.completed());
    println!("makespan        : {:.2} s", report.makespan);
    println!("active energy   : {:.1} J", cost.energy_joules);
    println!("total waiting   : {:.1} s", cost.waiting_seconds);
    println!(
        "cost            : {:.4} (energy {:.4} + time {:.4})",
        cost.total(),
        cost.energy_cost,
        cost.time_cost
    );
    if let Some(path) = args.get("report") {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        println!("full report written to {path}");
    }
    if let Some(path) = args.get("log") {
        let events = sim.take_trace();
        std::fs::write(path, to_jsonl(&events)).map_err(|e| e.to_string())?;
        println!(
            "lifecycle trace ({} events) written to {path}",
            events.len()
        );
    }
    Ok(())
}

fn analyze(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["report", "log", "gantt", "queue"], &[])?;
    let report: Option<SimReport> = match args.get("report") {
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            Some(serde_json::from_str(&json).map_err(|e| e.to_string())?)
        }
        None => None,
    };
    if let Some(report) = &report {
        println!("policy   : {}", report.policy);
        println!("tasks    : {} completed", report.completed());
        println!("makespan : {:.2} s", report.makespan);
        for (j, busy) in report.core_busy.iter().enumerate() {
            let residency = report
                .residency_fractions(j)
                .map(|f| {
                    f.iter()
                        .enumerate()
                        .map(|(r, x)| format!("r{r}:{:.0}%", x * 100.0))
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .unwrap_or_else(|| "idle".to_string());
            println!("core {j}  : busy {busy:.1} s  [{residency}]");
        }
    }
    let Some(log_path) = args.get("log") else {
        if report.is_none() {
            return Err("nothing to analyze: give `--report`, `--log`, or both".into());
        }
        println!("no trace given — pass what `simulate --log` wrote as `--log`");
        return Ok(());
    };
    let text = std::fs::read_to_string(log_path).map_err(|e| e.to_string())?;
    let events = parse_jsonl(&text)?;
    // A simulator log has no arrival lines; its report has the stamps.
    let arrivals: Vec<f64> = (report.iter())
        .flat_map(|report| report.tasks.values().map(|rec| rec.arrival))
        .collect();
    let segments = dvfs_sim::gantt(&events);
    let depth = dvfs_sim::queue_depth_series(&events, &arrivals);
    let max_depth = depth.iter().map(|&(_, d)| d).max().unwrap_or(0);
    let rate_changes = (events.iter())
        .filter(|e| matches!(e.kind, EventKind::RateChange { .. }))
        .count();
    println!(
        "log      : {} events, {} gantt segments, {rate_changes} rate changes, peak queue depth {max_depth}",
        events.len(),
        segments.len(),
    );
    if let Some(path) = args.get("gantt") {
        let f = std::fs::File::create(path).map_err(|e| e.to_string())?;
        dvfs_sim::analysis::write_gantt_csv(std::io::BufWriter::new(f), &segments)
            .map_err(|e| e.to_string())?;
        println!("gantt csv written to {path}");
    }
    if let Some(path) = args.get("queue") {
        let mut out = String::from("time,depth\n");
        for (t, d) in &depth {
            out.push_str(&format!("{t},{d}\n"));
        }
        std::fs::write(path, out).map_err(|e| e.to_string())?;
        println!("queue-depth csv written to {path}");
    }
    Ok(())
}

fn endpoint(args: &Args) -> Result<dvfs_serve::Endpoint, String> {
    match (args.get("socket"), args.get("tcp")) {
        (Some(path), None) => Ok(dvfs_serve::Endpoint::Unix(path.into())),
        (None, Some(addr)) => Ok(dvfs_serve::Endpoint::Tcp(addr.to_string())),
        (Some(_), Some(_)) => Err("give either `--socket` or `--tcp`, not both".into()),
        (None, None) => Err("an endpoint is required: `--socket PATH` or `--tcp ADDR`".into()),
    }
}

fn serve_cmd(argv: &[String]) -> Result<(), String> {
    let keys = [
        "socket",
        "tcp",
        "re",
        "rt",
        "cores",
        "queue-cap",
        "shards",
        "mode",
        "speed",
        "trace-cap",
        "trace-out",
        "net",
        "max-connections",
        "rebalance",
        "telemetry",
    ];
    let args = Args::parse(argv, &keys, &[])?;
    let endpoint = endpoint(&args)?;
    let params = cost_params(&args, CostParams::online_paper())?;
    let cores: usize = args.num("cores", 4)?;
    if cores == 0 {
        return Err("`--cores` must be positive".into());
    }
    let queue_capacity: usize = args.num("queue-cap", 1024)?;
    if queue_capacity == 0 {
        return Err("`--queue-cap` must be positive".into());
    }
    let shards: usize = args.num("shards", 1)?;
    if shards == 0 {
        return Err("`--shards` must be positive".into());
    }
    let mode = match args.get("mode").unwrap_or("replay") {
        "replay" => dvfs_serve::Mode::Replay,
        "paced" => {
            let speed: f64 = args.num("speed", 1.0)?;
            if !(speed.is_finite() && speed > 0.0) {
                return Err("`--speed` must be a positive number".into());
            }
            dvfs_serve::Mode::Paced { speed }
        }
        other => return Err(format!("unknown serve mode `{other}` (replay|paced)")),
    };
    let trace_capacity: usize = args.num("trace-cap", 0)?;
    let trace_out = args.get("trace-out").map(std::path::PathBuf::from);
    if trace_out.is_some() && trace_capacity == 0 {
        return Err("`--trace-out` requires `--trace-cap N` to enable tracing".into());
    }
    // `--net` overrides the DVFS_SERVE_NET env default picked up by
    // `ServerConfig::new`; absent, the env selection stands.
    let net = match args.get("net") {
        None => None,
        Some("threads") => Some(dvfs_serve::NetBackend::Threads),
        Some("reactor") => Some(dvfs_serve::NetBackend::Reactor),
        Some(other) => return Err(format!("unknown net backend `{other}` (threads|reactor)")),
    };
    let max_connections: usize =
        args.num("max-connections", dvfs_serve::DEFAULT_MAX_CONNECTIONS)?;
    if max_connections == 0 {
        return Err("`--max-connections` must be positive".into());
    }
    let rebalance = match args.get("rebalance").unwrap_or("off") {
        "on" => dvfs_serve::RebalanceConfig::on(),
        "off" => dvfs_serve::RebalanceConfig::default(),
        other => return Err(format!("unknown rebalance setting `{other}` (on|off)")),
    };
    let telemetry = match args.get("telemetry").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => return Err(format!("unknown telemetry setting `{other}` (on|off)")),
    };
    let mut cfg = dvfs_serve::ServerConfig::new(endpoint);
    cfg.scheduler = dvfs_serve::SchedulerConfig {
        cores,
        params,
        mode,
        queue_capacity,
        shards,
        trace_capacity,
        rebalance,
        telemetry,
        ..dvfs_serve::SchedulerConfig::default()
    };
    if let Some(net) = net {
        cfg.net = net;
    }
    cfg.max_connections = max_connections;
    cfg.trace_out = trace_out;
    let handle = dvfs_serve::serve(cfg).map_err(|e| e.to_string())?;
    match handle.endpoint() {
        dvfs_serve::Endpoint::Unix(path) => {
            println!("dvfs-serve listening on unix socket {}", path.display());
        }
        dvfs_serve::Endpoint::Tcp(addr) => println!("dvfs-serve listening on tcp {addr}"),
    }
    println!("send {{\"cmd\":\"shutdown\"}} to stop");
    handle.wait();
    println!("dvfs-serve stopped");
    Ok(())
}

fn loadgen_cmd(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["socket", "tcp", "trace"], &["shutdown"])?;
    let endpoint = endpoint(&args)?;
    let trace_path = args.require("trace")?;
    let trace = dvfs_workloads::io::load_trace(std::path::Path::new(trace_path))
        .map_err(|e| e.to_string())?;
    if trace.is_empty() {
        return Err("trace is empty".into());
    }
    let r = dvfs_serve::client::replay(&endpoint, &trace).map_err(|e| e.to_string())?;
    println!(
        "sent {} | admitted {} | shed {} | errors {}",
        r.sent, r.admitted, r.shed, r.errors
    );
    let f = |name| r.drain.field(name).and_then(value_f64).unwrap_or(0.0);
    println!(
        "served: {} tasks | total cost {:.6} | energy {:.3} J | turnaround {:.3} s | makespan {:.3} s",
        r.drain.field("completed").and_then(value_u64).unwrap_or(0),
        f("total_cost"),
        f("active_energy_joules"),
        f("total_turnaround_s"),
        f("makespan_s")
    );
    if args.switch("shutdown") {
        let mut conn =
            dvfs_serve::client::Connection::open(&endpoint).map_err(|e| e.to_string())?;
        conn.round_trip(&encode_command("shutdown"))
            .map_err(|e| e.to_string())?;
        println!("server shutdown requested");
    }
    Ok(())
}

fn trace_export(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["in", "out"], &[])?;
    let input = args.require("in")?;
    let output = args.require("out")?;
    let text = std::fs::read_to_string(input).map_err(|e| e.to_string())?;
    let events = parse_jsonl(&text)?;
    let json = chrome_trace(&events);
    std::fs::write(output, json).map_err(|e| e.to_string())?;
    println!(
        "wrote {} events as Chrome trace JSON to {output} (open in ui.perfetto.dev)",
        events.len()
    );
    Ok(())
}

fn ranges(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["re", "rt"], &[])?;
    let params = cost_params(&args, CostParams::batch_paper())?;
    let table = RateTable::i7_950_table2();
    let dr = DominatingRanges::compute(&table, params);
    println!(
        "Dominating position ranges (Re={}, Rt={}):",
        params.re, params.rt
    );
    for e in dr.entries() {
        let ghz = table.rate(e.rate).freq_hz / 1e9;
        match e.ub {
            Some(ub) => println!("  [{:>6}, {:>6})  {ghz:.1} GHz", e.lb, ub),
            None => println!("  [{:>6},    inf)  {ghz:.1} GHz", e.lb),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(dispatch(&sv(&["frobnicate"])).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn help_succeeds() {
        assert!(dispatch(&sv(&["help"])).is_ok());
    }

    #[test]
    fn ranges_runs_with_custom_params() {
        assert!(dispatch(&sv(&["ranges", "--re", "1.0", "--rt", "2.0"])).is_ok());
        assert!(dispatch(&sv(&["ranges", "--re", "-1"])).is_err());
    }

    #[test]
    fn schedule_batch_validates_input() {
        assert!(dispatch(&sv(&["schedule-batch"])).is_err());
        assert!(dispatch(&sv(&["schedule-batch", "--cycles", "abc"])).is_err());
        assert!(dispatch(&sv(&[
            "schedule-batch",
            "--cycles",
            "1e9,2e9",
            "--cores",
            "2"
        ]))
        .is_ok());
        assert!(dispatch(&sv(&["schedule-batch", "--cycles", "1e9", "--cores", "0"])).is_err());
    }

    #[test]
    fn trace_roundtrip_through_cli() {
        let dir = std::env::temp_dir().join("dvfs-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let path_s = path.to_str().unwrap();
        dispatch(&sv(&[
            "generate-trace",
            "--out",
            path_s,
            "--seed",
            "3",
            "--scale",
            "500",
        ]))
        .unwrap();
        for policy in ["lmc", "wbg", "olb", "ondemand"] {
            dispatch(&sv(&["simulate", "--trace", path_s, "--policy", policy])).unwrap();
        }
        let report = dir.join("r.json");
        let log = dir.join("log.jsonl");
        dispatch(&sv(&[
            "simulate",
            "--trace",
            path_s,
            "--policy",
            "lmc",
            "--report",
            report.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("active_energy_joules"));
        let log_text = std::fs::read_to_string(&log).unwrap();
        for line in ["\"ev\":\"enqueue\"", "\"ev\":\"dispatch\""] {
            assert!(log_text.contains(line), "no {line} line in the log");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_kinds_generate() {
        let dir = std::env::temp_dir().join("dvfs-cli-kinds");
        std::fs::create_dir_all(&dir).unwrap();
        for kind in ["judge", "poisson", "diurnal"] {
            let path = dir.join(format!("{kind}.jsonl"));
            dispatch(&sv(&[
                "generate-trace",
                "--out",
                path.to_str().unwrap(),
                "--kind",
                kind,
                "--scale",
                "500",
            ]))
            .unwrap();
            assert!(path.exists());
        }
        assert!(dispatch(&sv(&[
            "generate-trace",
            "--out",
            "/tmp/x.jsonl",
            "--kind",
            "flat"
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_log_round_trips_through_analyze_and_trace_export() {
        let dir = std::env::temp_dir().join("dvfs-cli-analyze");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.jsonl");
        let report = dir.join("r.json");
        let log = dir.join("l.jsonl");
        let gantt = dir.join("g.csv");
        let queue = dir.join("q.csv");
        let perfetto = dir.join("p.json");
        dispatch(&sv(&[
            "generate-trace",
            "--out",
            trace.to_str().unwrap(),
            "--scale",
            "500",
        ]))
        .unwrap();
        dispatch(&sv(&[
            "simulate",
            "--trace",
            trace.to_str().unwrap(),
            "--policy",
            "lmc",
            "--report",
            report.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&sv(&[
            "analyze",
            "--report",
            report.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--gantt",
            gantt.to_str().unwrap(),
            "--queue",
            queue.to_str().unwrap(),
        ]))
        .unwrap();
        let g = std::fs::read_to_string(&gantt).unwrap();
        assert!(g.starts_with("core,task,start,end,rate"));
        let q = std::fs::read_to_string(&queue).unwrap();
        assert!(q.starts_with("time,depth"));
        // The same file is what `trace-export` takes from the daemon:
        // one Perfetto span per Gantt row.
        dispatch(&sv(&[
            "trace-export",
            "--in",
            log.to_str().unwrap(),
            "--out",
            perfetto.to_str().unwrap(),
        ]))
        .unwrap();
        let p = std::fs::read_to_string(&perfetto).unwrap();
        assert_eq!(p.matches("\"ph\":\"X\"").count(), g.lines().count() - 1);
        // Either input alone is enough; neither is not.
        for flag in ["--report", "--log"] {
            let path = if flag == "--log" { &log } else { &report };
            dispatch(&sv(&["analyze", flag, path.to_str().unwrap()])).unwrap();
        }
        assert!(dispatch(&sv(&["analyze"])).is_err());
        assert!(dispatch(&sv(&["analyze", "--report", "/nope.json"])).is_err());
        assert!(dispatch(&sv(&["analyze", "--log", "/nope.jsonl"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_rejects_zero_shards() {
        assert!(dispatch(&sv(&["serve", "--tcp", "127.0.0.1:0", "--shards", "0"])).is_err());
    }

    #[test]
    fn serve_rejects_unknown_rebalance_setting() {
        assert!(dispatch(&sv(&[
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--rebalance",
            "sometimes"
        ]))
        .is_err());
    }

    #[test]
    fn serve_rejects_unknown_telemetry_setting() {
        assert!(dispatch(&sv(&[
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--telemetry",
            "sometimes"
        ]))
        .is_err());
    }

    #[test]
    fn flags_a_subcommand_does_not_read_are_errors() {
        assert_eq!(
            dispatch(&sv(&["ranges", "--ree", "0.1"])),
            Err("unknown flag --ree".to_string())
        );
        // Options of the old load modes must not quietly become a replay.
        for stale in ["skew", "mode", "rate", "clients"] {
            let flag = format!("--{stale}");
            let argv = [
                "loadgen",
                "--tcp",
                "127.0.0.1:1",
                "--trace",
                "f",
                &flag,
                "0.5",
            ];
            assert_eq!(dispatch(&sv(&argv)), Err(format!("unknown flag --{stale}")));
        }
    }

    #[test]
    fn loadgen_replays_a_trace_and_shuts_the_server_down() {
        let dir = std::env::temp_dir().join(format!("dvfs-cli-loadgen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.jsonl");
        let sock = dir.join("d.sock");
        let trace_s = trace.to_str().unwrap();
        dispatch(&sv(&["generate-trace", "--out", trace_s, "--scale", "500"])).unwrap();
        let endpoint = dvfs_serve::Endpoint::Unix(sock.clone());
        let handle = dvfs_serve::serve(dvfs_serve::ServerConfig::new(endpoint)).unwrap();
        let metrics = handle.metrics();
        dispatch(&sv(&[
            "loadgen",
            "--socket",
            sock.to_str().unwrap(),
            "--trace",
            trace_s,
            "--shutdown",
        ]))
        .unwrap();
        // Returns only once the wire `shutdown` has stopped the server.
        handle.wait();
        let tasks = dvfs_workloads::io::load_trace(&trace).unwrap().len() as u64;
        assert_eq!(metrics.counter("completed").get(), tasks);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_rejects_bad_policy_and_missing_trace() {
        assert!(dispatch(&sv(&[
            "simulate",
            "--trace",
            "/nonexistent/x.jsonl",
            "--policy",
            "lmc"
        ]))
        .is_err());
        let dir = std::env::temp_dir().join("dvfs-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let path_s = path.to_str().unwrap();
        dispatch(&sv(&["generate-trace", "--out", path_s, "--scale", "2000"])).unwrap();
        assert!(dispatch(&sv(&["simulate", "--trace", path_s, "--policy", "turbo"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
