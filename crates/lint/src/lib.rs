//! `dvfs-lint`: the workspace invariant checker.
//!
//! It polices the contracts this reproduction rests on that neither the
//! compiler nor a type can carry: replay must be bit-identical across
//! executors and shard counts, policies must stay engine-agnostic, the
//! wire path must not panic on hostile input, the epoll loop must not
//! block, and `unsafe` must stay at the syscall boundary. What a type
//! *can* carry lives in `dvfs-serve`'s types instead and has no rule
//! here: engines are private to `serve/src/worker.rs` (so nothing else
//! can lock one or call its migration primitives), every worker command
//! answers through a must-send `worker::Reply`, and every relaxed
//! atomic is a `metrics::AdvisoryCell`. Everything left is a per-file
//! token rule over comment-stripped, test-masked text — a hand-rolled
//! scanner, no external deps, in the spirit of the `shims/` approach:
//!
//! | rule id            | contract                                              |
//! |--------------------|-------------------------------------------------------|
//! | `determinism`      | no `HashMap`/`HashSet`, `Instant::now`,               |
//! |                    | `SystemTime::now`, or `thread_rng` in replay-critical |
//! |                    | code; wall time only via the serve clock seam; no     |
//! |                    | clock reads or string allocation/formatting in the    |
//! |                    | `dvfs-trace` record path (rendering is drain-time)    |
//! | `layering`         | forbidden crate edges over *normal* deps, parsed      |
//! |                    | natively from `Cargo.toml` (no `cargo tree`)          |
//! | `panic`            | no `unwrap`/`expect`/panicking macro/slice-index in   |
//! |                    | `serve/src/{protocol,server,admission}.rs` or         |
//! |                    | anywhere in `net/src` (the reactor is wire path)      |
//! | `atomics-discipline` | the token `Relaxed` appears only in                 |
//! |                    | `serve/src/metrics.rs`, home of the advisory cell;    |
//! |                    | every other atomic access names Acquire/Release or    |
//! |                    | SeqCst                                                |
//! | `channel-protocol` | no unbounded `channel()` construction                 |
//! | `reactor-nonblocking` | no `.recv()`/`.lock()`/`.join()`/sleeps inside the |
//! |                    | epoll event-loop module (`net/src/reactor.rs`)        |
//! | `unsafe-audit`     | `unsafe` confined to the syscall allowlist            |
//! |                    | (`net/src/{sys,lib}.rs`), every block carrying a      |
//! |                    | `// SAFETY:` comment                                  |
//!
//! A violation can be waived in place with
//! `// dvfs-lint: allow(rule-id) reason` on the offending line or the
//! line above; the reason is mandatory (a bare `allow` trips the
//! `waiver` rule). Test code (`#[cfg(test)]` items and `#[test]` fns)
//! is masked out before the rules run.

pub mod layering;
pub mod rules;
pub mod scan;

use std::path::Path;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id: `determinism`, `layering`, `panic`,
    /// `atomics-discipline`, `channel-protocol`, `reactor-nonblocking`,
    /// `unsafe-audit`, or `waiver`.
    pub rule: String,
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// A waiver that matched (and suppressed) at least one violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedWaiver {
    /// Path relative to the workspace root.
    pub file: String,
    /// Line the directive sits on.
    pub line: usize,
    /// Rule id it waives.
    pub rule: String,
    /// The justification the author supplied.
    pub reason: String,
}

/// Full lint result for one workspace tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving (un-waived) violations, sorted by file/line/rule.
    pub violations: Vec<Violation>,
    /// Waivers that suppressed something.
    pub waivers: Vec<AppliedWaiver>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Where each source rule applies, as workspace-relative path prefixes
/// (dirs) and exact files. Everything is non-test code only.
mod scope {
    /// Rule D (collections/RNG): replay-critical state that is iterated
    /// into reports, plans, or actuation decisions — which includes the
    /// one execution engine (`crates/core/src/sched/engine.rs`).
    pub const DET_COLLECTIONS_DIRS: &[&str] = &["crates/core/src", "crates/model/src"];
    /// Exact files for rule D (collections/RNG) outside those dirs: the
    /// serve metrics registry, which still holds iterated maps.
    pub const DET_COLLECTIONS_FILES: &[&str] = &["crates/serve/src/metrics.rs"];
    /// Rule D (clocks): all of core/model/serve — the engine runs on
    /// engine time, and wall time enters the service only through the
    /// clock seam.
    pub const DET_CLOCK_DIRS: &[&str] =
        &["crates/core/src", "crates/model/src", "crates/serve/src"];
    /// The one blessed wall-clock read.
    pub const DET_CLOCK_EXEMPT: &[&str] = &["crates/serve/src/clock.rs"];
    /// Rule D (trace record path): the event-bus hot path must be
    /// clock-free and allocation-free; exporters (`export.rs`,
    /// `prom.rs`) render at drain time and are deliberately excluded.
    pub const TRACE_RECORD_FILES: &[&str] =
        &["crates/trace/src/lib.rs", "crates/trace/src/ring.rs"];
    /// Rule P: the wire path — including the request decoder and ack
    /// encoder (`codec.rs`), which meet every hostile byte first.
    pub const PANIC_FILES: &[&str] = &[
        "crates/serve/src/codec.rs",
        "crates/serve/src/protocol.rs",
        "crates/serve/src/server.rs",
        "crates/serve/src/admission.rs",
    ];
    /// Rule P (dirs): the epoll reactor handles hostile bytes on every
    /// line, so the whole crate is wire path.
    pub const PANIC_DIRS: &[&str] = &["crates/net/src"];
    /// Rule C-A: the one module allowed to spell `Relaxed` — it defines
    /// the advisory cell (and the metrics counters/gauges) every other
    /// module publishes stale-tolerant values through.
    pub const RELAXED_FILES: &[&str] = &["crates/serve/src/metrics.rs"];
    /// Rule C-R: the event-loop modules where blocking calls are
    /// forbidden. The reactor's slow lane (`crates/net/src/lane.rs`) is
    /// deliberately absent: blocking on the handler is its whole job.
    pub const REACTOR_FILES: &[&str] = &["crates/net/src/reactor.rs"];
    /// Rule C-U: the audited syscall boundary — the only modules
    /// allowed to contain `unsafe` (each block `// SAFETY:`-commented).
    pub const UNSAFE_ALLOWED_FILES: &[&str] = &["crates/net/src/sys.rs", "crates/net/src/lib.rs"];
}

fn in_scope(rel: &str, dirs: &[&str], files: &[&str], exempt: &[&str]) -> bool {
    if exempt.contains(&rel) {
        return false;
    }
    files.contains(&rel) || dirs.iter().any(|d| rel.starts_with(&format!("{d}/")))
}

/// Collect `.rs` files under `root/crates/*/src`, skipping tests,
/// benches, examples, fixtures, and build output.
fn source_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !matches!(
                    name.as_ref(),
                    "target" | ".git" | "tests" | "benches" | "examples" | "fixtures"
                ) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    let rel = rel.to_string_lossy().replace('\\', "/");
                    if rel.contains("/src/") {
                        out.push(rel);
                    }
                }
            }
        }
    }
    out.sort();
    out
}

/// Run every rule over the workspace at `root` and fold in waivers.
pub fn run(root: &Path) -> Report {
    let mut raw: Vec<Violation> = Vec::new();
    let mut all_waivers: Vec<(String, scan::Waiver)> = Vec::new();
    let files = source_files(root);
    let files_scanned = files.len();

    for rel in &files {
        let Ok(src) = std::fs::read_to_string(root.join(rel)) else {
            continue;
        };
        let cleaned = scan::clean(&src);
        for (line, rule) in &cleaned.missing_reason {
            raw.push(Violation {
                rule: "waiver".to_string(),
                file: rel.clone(),
                line: *line,
                message: format!(
                    "waiver `allow({rule})` is missing a reason; write `// dvfs-lint: allow({rule}) <why this is safe>`"
                ),
            });
        }
        for w in &cleaned.waivers {
            all_waivers.push((rel.clone(), w.clone()));
        }
        let text = &scan::mask_tests(&cleaned.text);
        if in_scope(
            rel,
            scope::DET_COLLECTIONS_DIRS,
            scope::DET_COLLECTIONS_FILES,
            &[],
        ) {
            raw.extend(rules::determinism_collections(text, rel));
        }
        if in_scope(rel, scope::DET_CLOCK_DIRS, &[], scope::DET_CLOCK_EXEMPT) {
            raw.extend(rules::determinism_clock(text, rel));
        }
        if in_scope(rel, &[], scope::TRACE_RECORD_FILES, &[]) {
            raw.extend(rules::determinism_clock(text, rel));
            raw.extend(rules::determinism_allocation(text, rel));
        }
        if in_scope(rel, scope::PANIC_DIRS, scope::PANIC_FILES, &[]) {
            raw.extend(rules::panic_freedom(text, rel));
        }
        if !scope::RELAXED_FILES.contains(&rel.as_str()) {
            raw.extend(rules::atomics_discipline(text, rel));
        }
        raw.extend(rules::channel_protocol(text, rel));
        if scope::REACTOR_FILES.contains(&rel.as_str()) {
            raw.extend(rules::reactor_nonblocking(text, rel));
        }
        raw.extend(rules::unsafe_audit(
            text,
            &src,
            rel,
            scope::UNSAFE_ALLOWED_FILES,
        ));
    }

    raw.extend(layering::check(&layering::discover(root)));

    // Apply waivers: a waiver covers same-rule violations on its own
    // line and the line directly below. The `waiver` rule itself (a
    // malformed waiver) cannot be waived.
    let mut violations = Vec::new();
    let mut used: Vec<AppliedWaiver> = Vec::new();
    for v in raw {
        let hit = (v.rule != "waiver")
            .then(|| {
                all_waivers.iter().find(|(file, w)| {
                    *file == v.file
                        && w.rule == v.rule
                        && (w.line == v.line || w.line + 1 == v.line)
                })
            })
            .flatten();
        if let Some((file, w)) = hit {
            let applied = AppliedWaiver {
                file: file.clone(),
                line: w.line,
                rule: w.rule.clone(),
                reason: w.reason.clone(),
            };
            if !used.contains(&applied) {
                used.push(applied);
            }
        } else {
            violations.push(v);
        }
    }
    violations.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    used.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

    Report {
        violations,
        waivers: used,
        files_scanned,
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Report {
    /// True when nothing survived waiver application.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Machine-readable report (hand-rolled JSON, single line).
    #[must_use]
    pub fn to_json(&self) -> String {
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| {
                format!(
                    "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
                    json_escape(&v.rule),
                    json_escape(&v.file),
                    v.line,
                    json_escape(&v.message)
                )
            })
            .collect();
        let waivers: Vec<String> = self
            .waivers
            .iter()
            .map(|w| {
                format!(
                    "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"reason\":\"{}\"}}",
                    json_escape(&w.rule),
                    json_escape(&w.file),
                    w.line,
                    json_escape(&w.reason)
                )
            })
            .collect();
        format!(
            "{{\"violations\":[{}],\"waivers\":[{}],\"summary\":{{\"violations\":{},\"waivers\":{},\"files_scanned\":{}}}}}",
            violations.join(","),
            waivers.join(","),
            self.violations.len(),
            self.waivers.len(),
            self.files_scanned
        )
    }

    /// Human-readable report.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                v.file, v.line, v.rule, v.message
            ));
        }
        for w in &self.waivers {
            out.push_str(&format!(
                "{}:{}: waived [{}] — {}\n",
                w.file, w.line, w.rule, w.reason
            ));
        }
        out.push_str(&format!(
            "dvfs-lint: {} violation(s), {} waiver(s) applied, {} file(s) scanned\n",
            self.violations.len(),
            self.waivers.len(),
            self.files_scanned
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_matching() {
        assert!(in_scope(
            "crates/core/src/lmc.rs",
            scope::DET_COLLECTIONS_DIRS,
            scope::DET_COLLECTIONS_FILES,
            &[]
        ));
        assert!(in_scope(
            "crates/core/src/sched/engine.rs",
            scope::DET_COLLECTIONS_DIRS,
            scope::DET_COLLECTIONS_FILES,
            &[]
        ));
        assert!(in_scope(
            "crates/core/src/sched/engine.rs",
            scope::DET_CLOCK_DIRS,
            &[],
            scope::DET_CLOCK_EXEMPT
        ));
        // The thin drivers hold no replay state of their own.
        for driver in ["crates/serve/src/executor.rs", "crates/sim/src/engine.rs"] {
            assert!(!in_scope(
                driver,
                scope::DET_COLLECTIONS_DIRS,
                scope::DET_COLLECTIONS_FILES,
                &[]
            ));
        }
        assert!(!in_scope(
            "crates/serve/src/service.rs",
            scope::DET_COLLECTIONS_DIRS,
            scope::DET_COLLECTIONS_FILES,
            &[]
        ));
        assert!(!in_scope(
            "crates/serve/src/clock.rs",
            scope::DET_CLOCK_DIRS,
            &[],
            scope::DET_CLOCK_EXEMPT
        ));
        assert!(in_scope(
            "crates/net/src/reactor.rs",
            scope::PANIC_DIRS,
            scope::PANIC_FILES,
            &[]
        ));
        assert!(!in_scope(
            "crates/serve/src/service.rs",
            scope::PANIC_DIRS,
            scope::PANIC_FILES,
            &[]
        ));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
