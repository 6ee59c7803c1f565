//! `sysbench` — the system benchmark every later performance claim is
//! measured with: one harness, four named workloads, end-to-end metrics
//! over the wire, and a per-layer budget on the traced run.
//!
//! ```text
//! sysbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! sysbench --repeat K [--seed N] [--seconds S]
//! sysbench --ramp [--seed N]
//! ```
//!
//! Run from the repository root: the metric catalogue (names, units,
//! bounds) is read from `BENCHMARK.json` there, so what a run reports is
//! by construction what the manifest declares. Every run is a fresh
//! process that starts the server in-process, drives it from its own
//! load generator, prints every metric as `name value unit`, verifies
//! the outputs, and ends with one JSON line. See `README.md` beside
//! this file.

mod host;
mod inputs;
mod layers;
mod paced;
mod report;
mod rounds;
mod spans;
mod stats;
mod verify;
mod wire;
mod workloads;

use report::Report;
use serde_json::Value;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Ctx;

const USAGE: &str = "usage: sysbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n       sysbench --repeat K [--seed N] [--seconds S]\n       sysbench --ramp [--seed N]";

/// One `end_to_end` or `per_layer` entry of `BENCHMARK.json`.
struct Gate {
    name: String,
    unit: String,
    /// Share of the median an end-to-end metric may worsen by.
    bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness works from.
struct Manifest {
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<Gate>,
    per_layer: Vec<Gate>,
}

impl Manifest {
    fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e} (run from the repository root)", path.display()))?;
        let doc: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| doc.get(key).and_then(Value::as_array).unwrap_or(&[]);
        let text_of = |v: &Value, key: &str| match v.get(key) {
            Some(Value::String(s)) => s.clone(),
            _ => String::new(),
        };
        let gates = |key: &str| -> Vec<Gate> {
            list(key)
                .iter()
                .map(|g| Gate {
                    name: text_of(g, "name"),
                    unit: text_of(g, "unit"),
                    bound: g.get("bound").and_then(dvfs_serve::protocol::value_f64),
                })
                .collect()
        };
        let manifest = Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(dvfs_serve::protocol::value_f64)
                .ok_or("BENCHMARK.json lacks run_seconds")?,
            workloads: list("workloads")
                .iter()
                .map(|w| text_of(w, "name"))
                .collect(),
            end_to_end: gates("end_to_end"),
            per_layer: gates("per_layer"),
        };
        if manifest.workloads != workloads::NAMES {
            return Err(format!(
                "BENCHMARK.json workloads {:?} are not the harness's {:?}",
                manifest.workloads,
                workloads::NAMES
            ));
        }
        Ok(manifest)
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: Option<usize>,
    ramp: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: None,
        ramp: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--repeat" => {
                let k: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if k < 2 {
                    return Err("--repeat needs at least 2 sets to compare".into());
                }
                args.repeat = Some(k);
            }
            "--ramp" => args.ramp = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Where sockets, span files and run records go: `sysbench/` under the
/// cargo target directory, relative to the working directory when it
/// lies inside it (Unix socket paths are short).
fn out_dir() -> Result<PathBuf, String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let dir = target.join("sysbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    Ok(dir
        .strip_prefix(&cwd)
        .map_or_else(|_| dir.clone(), Path::to_path_buf))
}

fn header(name: &str, ctx: &Ctx) -> String {
    let mut out = format!(
        "# sysbench workload={name} seed={} seconds={} trace={}\n",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    for (key, value) in host::fingerprint() {
        let _ = writeln!(out, "# host {key}: {value}");
    }
    let _ = writeln!(out, "# server {}", workloads::describe(name));
    out
}

/// The closing JSON line: exactly the manifest's end-to-end metrics on
/// an untraced run, exactly its per-layer metrics on a traced one. A
/// per-layer figure the workload has no use for (reactor counters on
/// the threads backend, wire phases in-process) reads 0.
fn closing_line(report: &mut Report, gates: &[Gate], required: bool) -> String {
    let mut metrics = Vec::with_capacity(gates.len());
    for gate in gates {
        let found = report.metrics.iter().find(|m| m.name == gate.name);
        let value = match found {
            Some(m) if m.unit != gate.unit => {
                report.problems.push(format!(
                    "{} measured in `{}`, BENCHMARK.json says `{}`",
                    gate.name, m.unit, gate.unit
                ));
                m.value
            }
            Some(m) => m.value,
            None if required => {
                report
                    .problems
                    .push(format!("{} was not measured", gate.name));
                0.0
            }
            None => 0.0,
        };
        if !value.is_finite() || (required && value <= 0.0) {
            report.problems.push(format!("{} reads {value}", gate.name));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            gate.name, gate.unit
        ));
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.problems.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    )
}

fn run_workload(name: &str, ctx: &Ctx, manifest: &Manifest) -> Result<ExitCode, String> {
    let mut text = header(name, ctx);
    print!("{text}");
    let mut outcome = workloads::run(name, ctx)?;
    let mut body = String::new();
    if ctx.trace {
        layers::measure(ctx, &mut outcome)?;
        let path = ctx.out_dir.join(format!("{name}.spans.jsonl"));
        outcome
            .spans
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let _ = writeln!(
            body,
            "# spans {} -> {}",
            outcome.spans.len(),
            path.display()
        );
        for (span, t) in outcome.spans.totals_by_name() {
            let _ = writeln!(
                body,
                "# span {span} count={} total_ms={:.3} self_ms={:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    let mut report = outcome.report;
    report.put("peak_rss_mib", host::peak_rss_mib(), "MiB");

    for note in &report.notes {
        let _ = writeln!(body, "# {note}");
    }
    for m in &report.metrics {
        let _ = write!(body, "{} {} {}", m.name, m.value, m.unit);
        match m.samples {
            Some(n) => {
                let _ = writeln!(body, " n={n}");
            }
            None => body.push('\n'),
        }
    }
    let (gates, required) = if ctx.trace {
        (&manifest.per_layer, false)
    } else {
        (&manifest.end_to_end, true)
    };
    let last = closing_line(&mut report, gates, required);
    for p in &report.problems {
        let _ = writeln!(body, "# FAILED {p}");
    }
    let _ = writeln!(
        body,
        "# attempted={} failed={} verification={}",
        report.attempted,
        report.failed,
        if report.problems.is_empty() {
            "passed"
        } else {
            "FAILED"
        }
    );
    println!("{body}{last}");
    text.push_str(&body);
    text.push_str(&last);
    text.push('\n');
    let record = ctx.out_dir.join(format!(
        "{name}.{}.txt",
        if ctx.trace { "traced" } else { "run" }
    ));
    std::fs::write(&record, text).map_err(|e| format!("{}: {e}", record.display()))?;
    Ok(if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One untraced child run; returns its closing JSON line, decoded.
fn child_run(workload: &str, seed: u64, seconds: f64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{workload}: no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )
    })?;
    if !out.status.success() || doc.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{workload}: run failed verification: {last}"));
    }
    Ok(doc)
}

/// The `--repeat K` self-check: K sets of all four workloads back to
/// back, then every end-to-end metric's largest disagreement between
/// sets against its bound. Fails when any exceeds it.
fn repeat(k: usize, seed: u64, seconds: f64, manifest: &Manifest) -> Result<ExitCode, String> {
    println!("# sysbench --repeat {k} seed={seed} seconds={seconds}");
    for (key, value) in host::fingerprint() {
        println!("# host {key}: {value}");
    }
    // values[workload][metric] = one reading per set
    let mut values =
        vec![vec![Vec::with_capacity(k); manifest.end_to_end.len()]; manifest.workloads.len()];
    for set in 0..k {
        for (w, workload) in manifest.workloads.iter().enumerate() {
            let doc = child_run(workload, seed, seconds)?;
            for (m, gate) in manifest.end_to_end.iter().enumerate() {
                let v = doc
                    .get("metrics")
                    .and_then(|ms| ms.get(&gate.name))
                    .and_then(|mv| mv.get("value"))
                    .and_then(dvfs_serve::protocol::value_f64)
                    .ok_or_else(|| format!("{workload}: result lacks {}", gate.name))?;
                values[w][m].push(v);
            }
            println!("# set {set} {workload} done");
        }
    }
    let mut worst_ok = true;
    println!("workload metric unit median spread bound verdict");
    for (w, workload) in manifest.workloads.iter().enumerate() {
        for (m, gate) in manifest.end_to_end.iter().enumerate() {
            let readings = &values[w][m];
            let spread = stats::relative_range(readings).unwrap_or(0.0);
            let bound = gate.bound.unwrap_or(0.0);
            let ok = spread <= bound;
            worst_ok &= ok;
            println!(
                "{workload} {} {} {} {spread:.4} {bound} {}",
                gate.name,
                gate.unit,
                stats::median(readings).unwrap_or(0.0),
                if ok { "ok" } else { "EXCEEDS" }
            );
        }
    }
    Ok(if worst_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let manifest = Manifest::load(Path::new("BENCHMARK.json"))?;
    let seconds = args.seconds.unwrap_or(manifest.run_seconds);
    if let Some(k) = args.repeat {
        return repeat(k, args.seed, seconds, &manifest);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds,
        trace: args.trace,
        out_dir: out_dir()?,
    };
    if args.ramp {
        print!("{}", header("ramp", &ctx));
        paced::ramp(&ctx)?;
        return Ok(ExitCode::SUCCESS);
    }
    let name = args.workload.ok_or("--workload is required")?;
    if !manifest.workloads.contains(&name) {
        return Err(format!(
            "unknown workload `{name}` (one of {:?})",
            manifest.workloads
        ));
    }
    run_workload(&name, &ctx, &manifest)
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|msg| {
        eprintln!("sysbench: {msg}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(argv(
            "--workload wire_open_40k --seed 7 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("wire_open_40k"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(15.0), true));
        assert!(parse_args(argv("--trace 2")).is_err());
        assert!(parse_args(argv("--seconds 0")).is_err());
        assert!(parse_args(argv("--repeat 1")).is_err());
        assert!(parse_args(argv("--bogus")).is_err());
        assert!(parse_args(argv("--seed")).is_err());
    }

    #[test]
    fn closing_line_lists_exactly_the_gates_and_flags_gaps() {
        let gate = |name: &str, unit: &str| Gate {
            name: name.into(),
            unit: unit.into(),
            bound: Some(0.1),
        };
        let mut report = Report {
            attempted: 10,
            ..Report::default()
        };
        report.put("tasks_per_s", 123.5, "1/s");
        report.put("extra", 1.0, "s");
        let line = closing_line(&mut report, &[gate("tasks_per_s", "1/s")], true);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"tasks_per_s":{"value":123.5,"unit":"1/s"}}}"#
        );
        // A required metric that is missing, or in another unit, fails
        // the run; an optional one reads 0.
        let line = closing_line(&mut report, &[gate("setup_s", "s")], true);
        assert!(line.starts_with(r#"{"correct":false"#), "{line}");
        let mut report = Report::default();
        let line = closing_line(&mut report, &[gate("stage.frame_p50_us", "us")], false);
        assert!(line.contains(r#""stage.frame_p50_us":{"value":0,"unit":"us"}"#));
        assert!(
            line.starts_with(r#"{"correct":true,"attempted":1,"#),
            "{line}"
        );
    }
}
