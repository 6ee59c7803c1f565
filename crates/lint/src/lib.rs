//! `dvfs-lint`: the workspace invariant checker.
//!
//! The compiler cannot see the contracts this reproduction rests on:
//! replay must be bit-identical across executors and shard counts,
//! policies must stay engine-agnostic, engines must be owned outright
//! by their shard worker threads (no shared engine locks), and the
//! wire path must not panic on hostile input. With the threaded
//! architecture the contracts grew cross-file: whether a relaxed
//! atomic or a dropped reply sender is sound depends on code in
//! *other* modules, so the lint runs in two passes — pass 1 builds a
//! workspace symbol table (atomic fields and accesses, channel
//! endpoints, `unsafe` blocks, `Command` reply variants and their
//! match arms) from the cleaned, test-masked text of every file, and
//! pass 2 applies the rule families, the per-file ones directly and
//! the concurrency ones over the table. Everything stays a hand-rolled
//! token scanner (no external deps, in the spirit of the `shims/`
//! approach):
//!
//! | rule id            | contract                                              |
//! |--------------------|-------------------------------------------------------|
//! | `determinism`      | no `HashMap`/`HashSet`, `Instant::now`,               |
//! |                    | `SystemTime::now`, or `thread_rng` in replay-critical |
//! |                    | code; wall time only via the serve clock seam; no     |
//! |                    | clock reads or string allocation/formatting in the    |
//! |                    | `dvfs-trace` record path (rendering is drain-time)    |
//! | `engine-ownership` | no `Mutex<…Engine…>` and no retired engine-lock       |
//! |                    | helpers outside `serve/src/worker.rs`; engines talk   |
//! |                    | only over the worker command channel                  |
//! | `layering`         | forbidden crate edges over *normal* deps, parsed      |
//! |                    | natively from `Cargo.toml` (no `cargo tree`)          |
//! | `migration-protocol` | the engine migration primitives (`steal_longest`,   |
//! |                    | `remove_ready`, `push_migrated`) appear only in the   |
//! |                    | worker/executor modules; everything else migrates     |
//! |                    | via `Command::Steal`/`Command::Inject`                |
//! | `panic`            | no `unwrap`/`expect`/panicking macro/slice-index in   |
//! |                    | `serve/src/{protocol,server,admission}.rs` or         |
//! |                    | anywhere in `net/src` (the reactor is wire path)      |
//! | `atomics-discipline` | `Ordering::Relaxed` only on sites blessed as        |
//! |                    | advisory (worker load gauges, metrics counters, the   |
//! |                    | router cursor); atomics touched from more than one    |
//! |                    | module are handshakes and need Acquire/Release or     |
//! |                    | SeqCst                                                |
//! | `channel-protocol` | every `Command` variant carrying a one-shot `reply`   |
//! |                    | sender sends on every match arm of its worker loop;   |
//! |                    | unbounded `channel()` construction only inside        |
//! |                    | blessed helpers (`reply_channel`)                     |
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

pub mod concurrency;
pub mod layering;
pub mod rules;
pub mod scan;

use std::path::Path;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id: `determinism`, `engine-ownership`, `layering`,
    /// `migration-protocol`, `panic`, `atomics-discipline`,
    /// `channel-protocol`, `reactor-nonblocking`, `unsafe-audit`, or
    /// `waiver`.
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
    /// serve metrics/snapshot paths, which still hold iterated maps.
    pub const DET_COLLECTIONS_FILES: &[&str] = &[
        "crates/serve/src/metrics.rs",
        "crates/serve/src/snapshot.rs",
    ];
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
    /// Rule E: the sharded service — only the worker module owns
    /// engines, so nothing else in the crate may mutex one.
    pub const ENGINE_OWNERSHIP_DIRS: &[&str] = &["crates/serve/src"];
    /// The one module allowed to name the engine in ownership terms
    /// (it holds engines *without* locks; the exemption keeps the rule
    /// honest if a lock ever sneaks back in here it must be waived
    /// explicitly in review).
    pub const ENGINE_OWNERSHIP_EXEMPT: &[&str] = &["crates/serve/src/worker.rs"];
    /// Rule M: cross-shard migration goes through the worker command
    /// protocol; nothing else in the serve crate may call the engine
    /// migration primitives directly.
    pub const MIGRATION_DIRS: &[&str] = &["crates/serve/src"];
    /// The worker owns engines (the only sound caller) and the
    /// executor driver hands the engine's primitives through.
    pub const MIGRATION_EXEMPT: &[&str] =
        &["crates/serve/src/worker.rs", "crates/serve/src/executor.rs"];
    /// Rule P: the wire path.
    pub const PANIC_FILES: &[&str] = &[
        "crates/serve/src/protocol.rs",
        "crates/serve/src/server.rs",
        "crates/serve/src/admission.rs",
    ];
    /// Rule P (dirs): the epoll reactor handles hostile bytes on every
    /// line, so the whole crate is wire path.
    pub const PANIC_DIRS: &[&str] = &["crates/net/src"];
    /// Rule C-A: files whose atomics are advisory wholesale — the
    /// metrics registry's counters and gauges feed dashboards, never
    /// the replayed schedule.
    pub const ATOMIC_ADVISORY_FILES: &[&str] = &["crates/serve/src/metrics.rs"];
    /// Rule C-A: individual `(file, field)` atomic sites blessed as
    /// advisory: the worker load gauges the router and rebalancer read
    /// (stale values only skew placement, never correctness), the
    /// round-robin router cursor (any interleaving of increments is a
    /// valid rotation), and the worker heartbeat slots — telemetry the
    /// supervisor and `health` snapshot read lock-free. `Relaxed` is
    /// allowed on advisory slots only: a torn or stale heartbeat can
    /// at worst misreport liveness for one poll interval, and nothing
    /// scheduled ever reads these fields.
    pub const ATOMIC_ADVISORY_FIELDS: &[(&str, &str)] = &[
        ("crates/serve/src/worker.rs", "backlog"),
        ("crates/serve/src/worker.rs", "queued_cost_bits"),
        ("crates/serve/src/service.rs", "router_cursor"),
        ("crates/serve/src/worker.rs", "last_progress_micros"),
        ("crates/serve/src/worker.rs", "cmd_sent"),
        ("crates/serve/src/worker.rs", "cmd_dequeued"),
        ("crates/serve/src/worker.rs", "dequeue_age_micros"),
        ("crates/serve/src/worker.rs", "tick_micros"),
        ("crates/serve/src/worker.rs", "drain_micros"),
        ("crates/serve/src/worker.rs", "steal_micros"),
        ("crates/serve/src/worker.rs", "inject_micros"),
    ];
    /// Rule C-C: functions blessed to construct unbounded channels —
    /// the one-shot reply channel, bounded by the command/reply
    /// protocol itself (at most one message ever crosses it).
    pub const CHANNEL_BLESSED_FNS: &[&str] = &["reply_channel"];
    /// Rule C-R: the event-loop modules where blocking calls are
    /// forbidden.
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

    // Pass 1: read, clean, and test-mask every file once, collecting
    // waivers along the way, then fold the whole workspace into the
    // concurrency symbol table.
    let mut scans: Vec<concurrency::FileScan> = Vec::new();
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
        scans.push(concurrency::FileScan {
            rel: rel.clone(),
            text: scan::mask_tests(&cleaned.text),
            source: src,
        });
    }
    let table = concurrency::SymbolTable::build(&scans);

    // Pass 2: the per-file rule families over each file's masked text…
    for fs in &scans {
        let (rel, text) = (&fs.rel, &fs.text);
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
        if in_scope(
            rel,
            scope::ENGINE_OWNERSHIP_DIRS,
            &[],
            scope::ENGINE_OWNERSHIP_EXEMPT,
        ) {
            raw.extend(rules::engine_ownership(text, rel));
        }
        if in_scope(rel, scope::MIGRATION_DIRS, &[], scope::MIGRATION_EXEMPT) {
            raw.extend(rules::migration_protocol(text, rel));
        }
        if in_scope(rel, scope::PANIC_DIRS, scope::PANIC_FILES, &[]) {
            raw.extend(rules::panic_freedom(text, rel));
        }
    }

    raw.extend(layering::check(&layering::discover(root)));

    // …and the workspace-wide concurrency rules over the symbol table.
    raw.extend(concurrency::atomics_discipline(&table));
    raw.extend(concurrency::channel_protocol(&table));
    raw.extend(concurrency::reactor_nonblocking(&table));
    raw.extend(concurrency::unsafe_audit(&table));

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
        assert!(in_scope(
            "crates/serve/src/service.rs",
            scope::ENGINE_OWNERSHIP_DIRS,
            &[],
            scope::ENGINE_OWNERSHIP_EXEMPT
        ));
        assert!(!in_scope(
            "crates/serve/src/worker.rs",
            scope::ENGINE_OWNERSHIP_DIRS,
            &[],
            scope::ENGINE_OWNERSHIP_EXEMPT
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
