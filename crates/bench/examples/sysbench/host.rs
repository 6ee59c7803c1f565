//! What the harness reads about its own process and host: CPU time and
//! peak resident set from `/proc/self`, and the fingerprint printed in
//! every run header so rows from different hosts are never compared
//! silently.

use std::process::Command;

/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at
/// 100 on every architecture this workspace builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, i.e. the 12th and 13th after it.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_SECOND
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn first_line_value(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Host, toolchain and commit, as `(key, value)` pairs in print order.
/// Anything unreadable reports `unknown` rather than failing the run.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or_else(|_| unknown(), |n| n.to_string());
    let governor = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .map_or_else(|_| unknown(), |s| s.trim().to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| unknown(), |s| s.trim().to_string());
    vec![
        ("nproc", nproc),
        (
            "cpu_model",
            first_line_value("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
        ),
        ("governor", governor),
        ("kernel", kernel),
        (
            "commit",
            command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
        ),
        (
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        ),
    ]
}
