//! Fixture-based end-to-end tests: a passing mini-workspace and a
//! deliberately broken one (one violation per rule family), exercising
//! waiver parsing, missing-reason rejection, test-code masking, and the
//! `--json` report shape.

use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn clean_fixture_is_clean() {
    let report = dvfs_lint::run(&fixture("clean"));
    assert!(
        report.is_clean(),
        "expected no violations, got:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned >= 8, "walked {}", report.files_scanned);
    // The reasoned waivers were applied, not ignored: the HashSet in
    // core and the leaf mailbox mutex in the reactor.
    assert_eq!(report.waivers.len(), 2);
    assert!(report.waivers.iter().any(|w| w.rule == "determinism"
        && w.file == "crates/core/src/lib.rs"
        && w.reason == "membership-only set, never iterated"));
    assert!(report
        .waivers
        .iter()
        .any(|w| w.rule == "reactor-nonblocking"
            && w.file == "crates/net/src/reactor.rs"
            && w.reason.contains("leaf mailbox mutex")));
}

#[test]
fn violating_fixture_trips_every_rule_family() {
    let report = dvfs_lint::run(&fixture("violations"));
    let rules: std::collections::BTreeSet<&str> =
        report.violations.iter().map(|v| v.rule.as_str()).collect();
    assert_eq!(
        rules.into_iter().collect::<Vec<_>>(),
        vec![
            "atomics-discipline",
            "channel-protocol",
            "determinism",
            "layering",
            "panic",
            "reactor-nonblocking",
            "unsafe-audit",
            "waiver"
        ],
        "full report:\n{}",
        report.render_text()
    );
}

#[test]
fn violating_fixture_pins_findings_to_files() {
    let report = dvfs_lint::run(&fixture("violations"));
    let has = |rule: &str, file: &str, needle: &str| {
        report
            .violations
            .iter()
            .any(|v| v.rule == rule && v.file == file && v.message.contains(needle))
    };
    // D: hash container + ambient RNG in core, wall clock in the engine.
    assert!(has("determinism", "crates/core/src/lib.rs", "`HashMap`"));
    assert!(has("determinism", "crates/core/src/lib.rs", "`thread_rng`"));
    assert!(has(
        "determinism",
        "crates/core/src/sched/engine.rs",
        "`Instant::now()`"
    ));
    // D: wall clock and string formatting in the trace record path.
    assert!(has(
        "determinism",
        "crates/trace/src/lib.rs",
        "`Instant::now()`"
    ));
    assert!(has("determinism", "crates/trace/src/lib.rs", "`format!`"));
    // A: dvfs-core -> dvfs-sim over a normal dep edge.
    assert!(has(
        "layering",
        "crates/core/Cargo.toml",
        "dvfs-core -> dvfs-sim"
    ));
    // A: the trace bus must not depend on anything in the workspace.
    assert!(has(
        "layering",
        "crates/trace/Cargo.toml",
        "dvfs-trace -> dvfs-core"
    ));
    // A: the reactor must not reach back into the service.
    assert!(has(
        "layering",
        "crates/net/Cargo.toml",
        "dvfs-net -> dvfs-serve"
    ));
    // P: slice index, unwrap, and the expect the malformed waiver fails
    // to cover.
    assert!(has("panic", "crates/serve/src/protocol.rs", "index"));
    assert!(has("panic", "crates/serve/src/protocol.rs", "`.unwrap(…)`"));
    assert!(has("panic", "crates/serve/src/protocol.rs", "`.expect(…)`"));
    // P: the panic rule covers the whole reactor crate by directory.
    assert!(has("panic", "crates/net/src/lib.rs", "`.unwrap(…)`"));
    // Waiver rule: `allow(panic)` with no reason.
    assert!(has(
        "waiver",
        "crates/serve/src/protocol.rs",
        "missing a reason"
    ));
    // C-A: `Relaxed` outside the metrics module, on both sides of the
    // shutdown handshake (exact lines: the mutation-check test below).
    assert!(has(
        "atomics-discipline",
        "crates/serve/src/worker.rs",
        "`Relaxed` outside"
    ));
    assert!(has(
        "atomics-discipline",
        "crates/serve/src/service.rs",
        "`Relaxed` outside"
    ));
    // C-C: the raw unbounded channel.
    assert!(has(
        "channel-protocol",
        "crates/serve/src/worker.rs",
        "unbounded `channel()`"
    ));
    // C-R: all three blocking shapes inside the event loop.
    assert!(has(
        "reactor-nonblocking",
        "crates/net/src/reactor.rs",
        "`.recv()`"
    ));
    assert!(has(
        "reactor-nonblocking",
        "crates/net/src/reactor.rs",
        "`.lock()`"
    ));
    assert!(has(
        "reactor-nonblocking",
        "crates/net/src/reactor.rs",
        "`sleep`"
    ));
    // C-U: unsafe off the allowlist, and on-allowlist but undocumented.
    assert!(has(
        "unsafe-audit",
        "crates/serve/src/service.rs",
        "outside the audited syscall boundary"
    ));
    assert!(has(
        "unsafe-audit",
        "crates/net/src/sys.rs",
        "without a `// SAFETY:` comment"
    ));
}

/// The mutation checks for what is left of `atomics-discipline`: both
/// ways of weakening an atomic outside the advisory cell — a `Relaxed`
/// store on the shutdown handshake, and a raw `AtomicU64` accessed with
/// `Relaxed` in the worker module instead of a `metrics::AdvisoryCell`
/// — must be findings, pinned to their exact lines so a rule that
/// silently stops matching fails loudly here. (A dropped reply sender
/// is not a lint finding: `worker::Reply<T>` catches it at run time,
/// see `dvfs-serve`'s
/// `worker::tests::reply_dropped_unsent_is_counted_and_asserts_in_debug`.)
#[test]
fn mutation_checks_relaxed_shutdown_store_and_raw_relaxed_atomic() {
    let report = dvfs_lint::run(&fixture("violations"));
    let caught = |file: &str, line: usize| {
        report
            .violations
            .iter()
            .any(|v| v.rule == "atomics-discipline" && v.file == file && v.line == line)
    };
    // service.rs:8 — `SHUTTING_DOWN.store(true, Ordering::Relaxed)`.
    assert!(
        caught("crates/serve/src/service.rs", 8),
        "Relaxed shutdown store not caught:\n{}",
        report.render_text()
    );
    // worker.rs:19 — `self.backlog.store(.., Ordering::Relaxed)` on a
    // raw `AtomicU64` field.
    assert!(
        caught("crates/serve/src/worker.rs", 19),
        "raw Relaxed atomic in worker.rs not caught:\n{}",
        report.render_text()
    );
}

#[test]
fn reasoned_waiver_suppresses_and_is_reported() {
    let report = dvfs_lint::run(&fixture("violations"));
    // The correctly waived expect in `waived()` must not be a violation…
    let waived_line = 17;
    assert!(
        !report
            .violations
            .iter()
            .any(|v| v.rule == "panic" && v.line == waived_line),
        "waived expect leaked:\n{}",
        report.render_text()
    );
    // …and the waiver shows up in the report with its reason.
    assert!(report.waivers.iter().any(|w| w.rule == "panic"
        && w.file == "crates/serve/src/protocol.rs"
        && w.reason.contains("correctly waived")));
}

#[test]
fn json_report_carries_rule_ids_and_summary() {
    let report = dvfs_lint::run(&fixture("violations"));
    let json = report.to_json();
    for rule in [
        "determinism",
        "layering",
        "panic",
        "waiver",
        "atomics-discipline",
        "channel-protocol",
        "reactor-nonblocking",
        "unsafe-audit",
    ] {
        assert!(
            json.contains(&format!("\"rule\":\"{rule}\"")),
            "missing {rule} in {json}"
        );
    }
    for retired in ["engine-ownership", "migration-protocol"] {
        assert!(
            !json.contains(retired),
            "retired rule id {retired} in {json}"
        );
    }
    assert!(json.contains("\"summary\":{\"violations\":"));
    assert!(json.contains("\"waivers\":"));
    assert!(json.contains("\"files_scanned\":"));
    // Message text is JSON-escaped (backticks fine, quotes escaped).
    assert!(!json.contains('\n'));

    let clean = dvfs_lint::run(&fixture("clean")).to_json();
    assert!(clean.starts_with("{\"violations\":[]"));
}
