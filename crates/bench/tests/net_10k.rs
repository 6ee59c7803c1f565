//! Reactor-at-scale smoke test (CI runs it with `-- --ignored`): a
//! single-threaded epoll reactor server holding ~10k mostly-idle
//! connections while a small active set submits work. Two regression
//! tripwires, gated against the committed baseline in
//! `BENCH_net_10k.json` at the repository root (read only; the run's
//! own numbers go to the target directory, see `dvfs_bench::smoke`):
//!
//! * **memory** — per-connection RSS growth must stay within a loose
//!   multiple of the committed baseline (a miss means a connection grew
//!   a buffer or the slab stopped recycling);
//! * **latency** — p99 submit round-trip must not explode while the
//!   herd is open (a miss means the event loop started scanning the
//!   herd per wakeup instead of only ready fds).
//!
//! The bounds are deliberately generous (8× latency, 4× memory): this
//! is a tripwire for complexity regressions, not a benchmark — the
//! numbers vary with machine load, and CI machines are noisy.
//!
//! The herd size scales down when the soft `RLIMIT_NOFILE` cannot fit
//! 10k in-process pairs (each held connection costs two fds here: the
//! client end and the server end share the process); the JSON records
//! the count actually held so the baseline stays honest. The test does
//! not raise the limit itself: `scripts/ci.sh` runs it after
//! `ulimit -n "$(ulimit -Hn)"`.

use dvfs_bench::smoke;
use dvfs_model::TaskClass;
use dvfs_serve::client::Connection;
use dvfs_serve::protocol::{encode_command, encode_submit, value_u64};
use dvfs_serve::{serve, Endpoint, Histogram, NetBackend, SchedulerConfig, ServerConfig};
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// Submissions timed from the one active connection.
const ACTIVE_REQUESTS: u64 = 256;

#[test]
#[ignore = "CI smoke: run with `cargo test -p dvfs-bench --test net_10k -- --ignored`"]
fn reactor_holds_ten_thousand_idle_connections() {
    // Every held connection is two fds in this process; if the soft
    // limit cannot fit 10k pairs, scale the herd down and record what
    // was actually held.
    let soft = soft_nofile_limit();
    let fd_budget = usize::try_from(soft.saturating_sub(512) / 2).unwrap_or(0);
    let connections = fd_budget.min(10_000);
    assert!(
        connections >= 1_000,
        "fd budget too small for a meaningful herd: soft limit {soft}"
    );

    let sock = std::env::temp_dir().join(format!("dvfs-net10k-{}.sock", std::process::id()));
    let cfg = ServerConfig {
        net: NetBackend::Reactor,
        max_connections: connections + 64,
        scheduler: SchedulerConfig {
            cores: 2,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::new(Endpoint::Unix(sock.clone()))
    };
    let handle = serve(cfg).expect("reactor server binds");

    // The herd: bare sockets, held open and silent for the whole run. A
    // buffered `Connection` would add ~16 kB of client-side buffers per
    // socket and swamp the RSS measurement.
    let rss_before_kb = rss_kb();
    let herd: Vec<UnixStream> = (0..connections)
        .map(|_| UnixStream::connect(&sock).expect("herd connection"))
        .collect();
    let rss_after_kb = rss_kb();
    // Process-side growth only (client and server share the process);
    // kernel socket buffers are not resident memory.
    let rss_per_conn_bytes = rss_after_kb.saturating_sub(rss_before_kb) * 1024 / connections as u64;

    // The active set: one connection submitting while the herd sits
    // registered but silent.
    let rtt = Histogram::default();
    let mut errors = 0u64;
    let mut active = Connection::open(handle.endpoint()).expect("active connection");
    for i in 0..ACTIVE_REQUESTS {
        let class = if i % 3 == 0 {
            TaskClass::Interactive
        } else {
            TaskClass::NonInteractive
        };
        let line = encode_submit(None, 200_000_000, class, None);
        let t0 = Instant::now();
        let resp = active.round_trip(&line).expect("submit round-trips");
        rtt.record(t0.elapsed().as_secs_f64());
        errors += u64::from(!resp.is_ok());
    }
    assert_eq!(errors, 0, "no wire errors under the herd");

    // The reactor's own accounting must have seen the herd: peak open
    // connections is at least the herd (the active submitter rides on
    // top of it).
    let stats = active.round_trip(&encode_command("stats")).expect("stats");
    let peak = stats
        .field("metrics")
        .and_then(|m| m.get("gauges"))
        .and_then(|g| g.get("net_connections_peak"))
        .and_then(value_u64)
        .unwrap_or(0);
    assert!(
        peak >= connections as u64,
        "reactor peak {peak} never covered the herd of {connections}"
    );
    drop((active, herd));
    handle.shutdown();
    handle.wait();

    let q = |p: f64| rtt.quantile(p).unwrap_or(0.0);
    let (p50, p95, p99) = (q(0.50), q(0.95), q(0.99));

    // Gate against the committed baseline, if any. Generous bounds:
    // noise is expected, complexity blowups are not.
    if let Some(base_p99) = smoke::baseline("net_10k", "p99_submit_s") {
        let bound = (base_p99 * 8.0).max(0.005);
        assert!(
            p99 <= bound,
            "p99 submit latency regressed: {p99:.6}s vs baseline {base_p99:.6}s (bound {bound:.6}s)"
        );
    }
    if let Some(base_rss) = smoke::baseline("net_10k", "rss_per_conn_bytes") {
        let bound = base_rss * 4.0 + 4096.0;
        assert!(
            (rss_per_conn_bytes as f64) <= bound,
            "per-connection RSS regressed: {rss_per_conn_bytes} B vs baseline {base_rss} B (bound {bound} B)"
        );
    }

    let json = format!(
        "{{\"connections\":{connections},\"peak_connections\":{peak},\"rss_per_conn_bytes\":{rss_per_conn_bytes},\"p50_submit_s\":{p50},\"p95_submit_s\":{p95},\"p99_submit_s\":{p99},\"active_requests\":{ACTIVE_REQUESTS},\"errors\":{errors}}}\n"
    );
    let path = smoke::record("net_10k", &json);
    println!(
        "net_10k: {connections} connections held, ~{rss_per_conn_bytes} B/conn, submit p50 {:.3} ms p99 {:.3} ms ({})",
        p50 * 1e3,
        p99 * 1e3,
        path.display()
    );
}

/// This process's soft `RLIMIT_NOFILE`, from `/proc/self/limits`.
fn soft_nofile_limit() -> u64 {
    let limits = std::fs::read_to_string("/proc/self/limits").expect("procfs is readable");
    let soft = limits
        .lines()
        .find_map(|line| line.strip_prefix("Max open files"))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("limits carries Max open files");
    if soft == "unlimited" {
        u64::MAX
    } else {
        soft.parse().expect("a numeric soft limit")
    }
}

/// This process's resident set in kB, from `/proc/self/status`.
fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status carries VmRSS")
}
