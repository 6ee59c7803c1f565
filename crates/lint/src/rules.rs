//! The source-level rule families: determinism (D), panic-freedom (P),
//! and the concurrency contracts no type can carry (C-A
//! `atomics-discipline`, C-C `channel-protocol`, C-R
//! `reactor-nonblocking`, C-U `unsafe-audit`). Every rule is a per-file
//! token matcher over cleaned, test-masked text (see [`crate::scan`])
//! returning raw violations; scoping and waiver handling happen in
//! [`crate::run`].

use crate::scan::line_of;
use crate::Violation;

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Byte offsets of `ident` as a standalone identifier token.
fn ident_occurrences(text: &str, ident: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(p) = text[from..].find(ident) {
        let at = from + p;
        let end = at + ident.len();
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + ident.len();
    }
    out
}

fn next_non_ws(bytes: &[u8], mut i: usize) -> Option<(usize, u8)> {
    while i < bytes.len() {
        if !bytes[i].is_ascii_whitespace() {
            return Some((i, bytes[i]));
        }
        i += 1;
    }
    None
}

fn prev_non_ws(bytes: &[u8], i: usize) -> Option<(usize, u8)> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if !bytes[j].is_ascii_whitespace() {
            return Some((j, bytes[j]));
        }
    }
    None
}

/// Byte offsets of the path expression `first::second` (whitespace
/// around `::` tolerated), e.g. `Instant::now`.
fn path_occurrences(text: &str, first: &str, second: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for at in ident_occurrences(text, first) {
        let Some((c1, b1)) = next_non_ws(bytes, at + first.len()) else {
            continue;
        };
        if b1 != b':' || bytes.get(c1 + 1) != Some(&b':') {
            continue;
        }
        let Some((c2, _)) = next_non_ws(bytes, c1 + 2) else {
            continue;
        };
        if text[c2..].starts_with(second)
            && bytes
                .get(c2 + second.len())
                .is_none_or(|&b| !is_ident_byte(b))
        {
            out.push(at);
        }
    }
    out
}

/// Byte offsets of `name(` calls, free function or method.
fn call_occurrences(text: &str, name: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    ident_occurrences(text, name)
        .into_iter()
        .filter(|&at| next_non_ws(bytes, at + name.len()).is_some_and(|(_, b)| b == b'('))
        .collect()
}

/// Byte offsets of `.name(` method calls (receiver required).
fn method_call_occurrences(text: &str, name: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    call_occurrences(text, name)
        .into_iter()
        .filter(|&at| prev_non_ws(bytes, at).is_some_and(|(_, b)| b == b'.'))
        .collect()
}

/// Byte offsets of `name!(`-style macro invocations.
fn macro_occurrences(text: &str, name: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    ident_occurrences(text, name)
        .into_iter()
        .filter(|&at| bytes.get(at + name.len()) == Some(&b'!'))
        .collect()
}

/// Keywords that may directly precede `[` without forming an index
/// expression (`&mut [u8]`, `dyn [T]`, `return [..]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "ref", "dyn", "in", "as", "return", "else", "match", "if", "while", "for", "move",
    "box", "where", "let", "const", "static", "break", "continue", "impl", "fn", "unsafe", "loop",
    "yield", "await",
];

/// Byte offsets of `[` tokens that open an index expression: preceded
/// (ignoring whitespace) by an identifier that is neither a keyword nor
/// a lifetime (`&'a [T]` is a slice type), or by a closing `)`/`]`.
fn index_occurrences(text: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for (at, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        let Some((p, pb)) = prev_non_ws(bytes, at) else {
            continue;
        };
        if pb == b')' || pb == b']' {
            out.push(at);
        } else if is_ident_byte(pb) {
            let mut s = p;
            while s > 0 && is_ident_byte(bytes[s - 1]) {
                s -= 1;
            }
            let token = &text[s..=p];
            let lifetime = s > 0 && bytes[s - 1] == b'\'';
            if !lifetime && !NON_INDEX_KEYWORDS.contains(&token) {
                out.push(at);
            }
        }
    }
    out
}

fn violation(text: &str, file: &str, at: usize, rule: &str, message: String) -> Violation {
    Violation {
        rule: rule.to_string(),
        file: file.to_string(),
        line: line_of(text, at),
        message,
    }
}

/// Rule D over collections/RNG: no order-nondeterministic containers or
/// ambient randomness in replay-critical code.
pub fn determinism_collections(text: &str, file: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for ty in ["HashMap", "HashSet"] {
        for at in ident_occurrences(text, ty) {
            out.push(violation(
                text,
                file,
                at,
                "determinism",
                format!("`{ty}` has nondeterministic iteration order; use `BTreeMap`/`BTreeSet` (or waive with a reason if iteration order provably never escapes)"),
            ));
        }
    }
    for at in ident_occurrences(text, "thread_rng") {
        out.push(violation(
            text,
            file,
            at,
            "determinism",
            "`thread_rng` is unseeded; replay-critical code must draw randomness from a seeded generator".to_string(),
        ));
    }
    out
}

/// Rule D over clocks: wall time may only enter through the blessed
/// clock seam; everything else works in engine seconds.
pub fn determinism_clock(text: &str, file: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for (first, second) in [("Instant", "now"), ("SystemTime", "now")] {
        for at in path_occurrences(text, first, second) {
            out.push(violation(
                text,
                file,
                at,
                "determinism",
                format!("`{first}::{second}()` outside the clock seam; route wall-time reads through `clock::wall_now()` so the nondeterministic surface stays auditable"),
            ));
        }
    }
    out
}

/// Rule D over trace record paths: the ring-buffer hot path must not
/// allocate strings or format; rendering belongs in the exporters,
/// which run off the record path.
pub fn determinism_allocation(text: &str, file: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for mac in ["format", "write", "writeln"] {
        for at in macro_occurrences(text, mac) {
            out.push(violation(
                text,
                file,
                at,
                "determinism",
                format!("`{mac}!` allocates/formats on the trace record path; defer rendering to the exporters (`export::jsonl_line` runs at drain time)"),
            ));
        }
    }
    for at in method_call_occurrences(text, "to_string") {
        out.push(violation(
            text,
            file,
            at,
            "determinism",
            "`.to_string()` allocates on the trace record path; record raw numeric/enum payloads and render at drain time".to_string(),
        ));
    }
    for at in path_occurrences(text, "String", "from") {
        out.push(violation(
            text,
            file,
            at,
            "determinism",
            "`String::from` allocates on the trace record path; record raw numeric/enum payloads and render at drain time".to_string(),
        ));
    }
    out
}

/// Rule P: no panicking constructs on the wire path.
pub fn panic_freedom(text: &str, file: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for name in ["unwrap", "expect"] {
        for at in method_call_occurrences(text, name) {
            out.push(violation(
                text,
                file,
                at,
                "panic",
                format!("`.{name}(…)` can panic; the wire path must degrade gracefully (return an error response or fall back)"),
            ));
        }
    }
    for mac in ["panic", "unreachable", "todo", "unimplemented"] {
        for at in macro_occurrences(text, mac) {
            out.push(violation(
                text,
                file,
                at,
                "panic",
                format!("`{mac}!` can panic; the wire path must degrade gracefully (return an error response or fall back)"),
            ));
        }
    }
    for at in index_occurrences(text) {
        out.push(violation(
            text,
            file,
            at,
            "panic",
            "slice/array index can panic out of bounds; use `.get(…)` on the wire path".to_string(),
        ));
    }
    out
}

/// Rule C-A: the token `Relaxed` appears only in the module that
/// defines the advisory cell (`serve/src/metrics.rs`, exempted by
/// [`crate::run`]). Everywhere else a value other threads may read
/// stale is an `AdvisoryCell` — whose whole API is relaxed
/// set/add/get, so it cannot be misused as a handshake — and anything
/// that orders memory spells out Acquire/Release or SeqCst.
pub fn atomics_discipline(text: &str, file: &str) -> Vec<Violation> {
    ident_occurrences(text, "Relaxed")
        .into_iter()
        .map(|at| {
            violation(
                text,
                file,
                at,
                "atomics-discipline",
                "`Relaxed` outside `serve/src/metrics.rs`; publish advisory values through `metrics::AdvisoryCell` (relaxed set/add/get is its whole API), and give a cross-thread handshake Acquire/Release (or SeqCst) so the flag cannot be reordered past the state it guards".to_string(),
            )
        })
        .collect()
}

/// Rule C-C: no unbounded `channel()` construction — a wedged consumer
/// must exert backpressure. (`sync_channel` is a different identifier
/// and passes.)
pub fn channel_protocol(text: &str, file: &str) -> Vec<Violation> {
    call_occurrences(text, "channel")
        .into_iter()
        .map(|at| {
            violation(
                text,
                file,
                at,
                "channel-protocol",
                "unbounded `channel()`; use a bounded `sync_channel` so a wedged consumer exerts backpressure (worker command answers travel on `worker::Reply`, a one-shot `sync_channel(1)`), or waive with the reason the queue is bounded in practice".to_string(),
            )
        })
        .collect()
}

/// Rule C-R: the epoll event loop must never block — slow work routes
/// through the reactor's slow lane (`net/src/lane.rs`, outside this
/// rule's scope on purpose) and replies come back via the mailbox.
pub fn reactor_nonblocking(text: &str, file: &str) -> Vec<Violation> {
    let blocking = |at: usize, what: &str| {
        violation(
            text,
            file,
            at,
            "reactor-nonblocking",
            format!("blocking `{what}` inside the reactor event-loop module; the loop must stay nonblocking — blocking work belongs on the slow lane (`net/src/lane.rs`: have `Handler::answer` return `Answered::WouldBlock` to `Caller::EventLoop` and block when called again as `Caller::MayWait`), whose replies come back through the mailbox"),
        )
    };
    let mut out = Vec::new();
    for m in ["recv", "recv_timeout", "join", "lock"] {
        for at in method_call_occurrences(text, m) {
            out.push(blocking(at, &format!(".{m}()")));
        }
    }
    for at in call_occurrences(text, "sleep") {
        out.push(blocking(at, "sleep"));
    }
    out
}

/// Rule C-U: `unsafe` stays confined to the audited syscall boundary
/// (`allowed` files), and there every block documents the invariant
/// that makes it sound: a `// SAFETY:` comment on the same line or the
/// three lines above, looked up in the raw `source` because comments
/// are blanked in `text`.
pub fn unsafe_audit(text: &str, source: &str, file: &str, allowed: &[&str]) -> Vec<Violation> {
    let src_lines: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();
    for at in ident_occurrences(text, "unsafe") {
        if !allowed.contains(&file) {
            out.push(violation(
                text,
                file,
                at,
                "unsafe-audit",
                format!(
                    "`unsafe` outside the audited syscall boundary ({}); move raw operations behind the safe wrappers there",
                    allowed.join(", ")
                ),
            ));
            continue;
        }
        // 1-based line L → 0-based indices [L-4, L-1].
        let line = line_of(text, at);
        let window = src_lines.get(line.saturating_sub(4)..line.min(src_lines.len()));
        if !window.is_some_and(|w| w.iter().any(|l| l.contains("SAFETY:"))) {
            out.push(violation(
                text,
                file,
                at,
                "unsafe-audit",
                "`unsafe` without a `// SAFETY:` comment on the same line or the three lines above; document the invariant that makes the block sound".to_string(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_occurrences_respects_boundaries() {
        let t = "HashMap HashMapX XHashMap x.HashMap::new()";
        assert_eq!(ident_occurrences(t, "HashMap").len(), 2);
    }

    #[test]
    fn path_occurrences_tolerates_whitespace() {
        let t = "let a = Instant::now(); let b = Instant ::\n now();";
        assert_eq!(path_occurrences(t, "Instant", "now").len(), 2);
        assert_eq!(path_occurrences(t, "Instant", "elapsed").len(), 0);
    }

    #[test]
    fn method_calls_require_receiver_and_args() {
        let t = "x.unwrap(); unwrap(); fn unwrap() {} y.unwrap_or(0); z.expect(\"m\");";
        assert_eq!(method_call_occurrences(t, "unwrap").len(), 1);
        assert_eq!(method_call_occurrences(t, "expect").len(), 1);
    }

    #[test]
    fn index_detection_skips_types_attrs_and_macros() {
        let flagged = "buf[0]; calls()[1]; grid[i][j];";
        assert_eq!(index_occurrences(flagged).len(), 4);
        let clean = "fn f(b: &mut [u8]) -> Vec<[u8; 4]> { vec![1] }\n#[derive(Debug)]\nstruct S;";
        assert_eq!(index_occurrences(clean).len(), 0);
    }

    #[test]
    fn allocation_rule_catches_formatting_and_string_building() {
        let src = "fn rec(&mut self) { let s = format!(\"{}\", 1); let t = 2.to_string(); let u = String::from(\"x\"); }";
        let v = determinism_allocation(src, "f.rs");
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|v| v.rule == "determinism"));
        let clean = "fn rec(&mut self) { self.buf.push_back(ev); self.next_seq += 1; }";
        assert!(determinism_allocation(clean, "f.rs").is_empty());
    }

    #[test]
    fn panic_rule_catches_macros_and_indexing() {
        let src =
            "fn f<'a>(b: &'a [u8]) { let x = b[0]; m.get(k).unwrap(); unreachable!(\"no\"); }";
        let v = panic_freedom(src, "f.rs");
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|v| v.rule == "panic"));
    }

    /// Cleaned, test-masked text the way [`crate::run`] prepares it.
    fn masked(src: &str) -> String {
        crate::scan::mask_tests(&crate::scan::clean(src).text)
    }

    #[test]
    fn relaxed_is_flagged_wherever_it_appears_and_stronger_orderings_are_not() {
        let src = "use std::sync::atomic::Ordering::Relaxed;\nfn f(s: &S) { s.stop.store(true, Ordering::Relaxed); s.stop.load(Ordering::SeqCst); s.n.fetch_add(1, Ordering::AcqRel); }\n";
        let v = atomics_discipline(&masked(src), "f.rs");
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "atomics-discipline"));
        assert_eq!((v[0].line, v[1].line), (1, 2));
        // Comments, strings and test code never count.
        let quiet = "// Relaxed would be wrong here\nfn f() -> &'static str { \"Relaxed\" }\n#[cfg(test)]\nmod tests { fn t(a: &A) { a.load(Ordering::Relaxed); } }\n";
        assert!(atomics_discipline(&masked(quiet), "f.rs").is_empty());
    }

    #[test]
    fn unbounded_channel_is_flagged_and_sync_channel_is_not() {
        let src = "fn firehose() {\n    let (tx, rx) = channel();\n    let (c, d) = std::sync::mpsc::sync_channel(8);\n    let e = mpsc::channel ();\n}\n";
        let v = channel_protocol(&masked(src), "f.rs");
        let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, [2, 4], "{v:?}");
        assert!(v[0].message.contains("unbounded"));
    }

    #[test]
    fn reactor_blocking_calls_are_flagged_and_poller_wait_is_not() {
        let src = "fn event_loop(rx: &Receiver<u64>, m: &Mutex<u32>, p: &Poller) {\n    let _ = rx.recv();\n    let _ = m.lock();\n    std::thread::sleep(d);\n    h.join();\n    let n = p.wait(&mut buf, timeout);\n}\n";
        let v = reactor_nonblocking(&masked(src), "crates/net/src/reactor.rs");
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "reactor-nonblocking"));
    }

    #[test]
    fn unsafe_outside_allowlist_and_without_safety_comment() {
        let allowed = &["crates/net/src/sys.rs"];
        let off = "fn f(xs: &[u8]) -> u8 { unsafe { *xs.get_unchecked(0) } }\n";
        let v = unsafe_audit(&masked(off), off, "crates/serve/src/service.rs", allowed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0]
            .message
            .contains("outside the audited syscall boundary"));

        let on = "pub fn close_fd(fd: i32) {\n    let _ = unsafe { close(fd) };\n}\n// SAFETY: read takes any pointer/length pair; ours is a valid slice.\npub fn read_fd(fd: i32) {\n    let _ = unsafe { read(fd) };\n}\n";
        let v = unsafe_audit(&masked(on), on, "crates/net/src/sys.rs", allowed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("SAFETY"));

        // The cleaner blanks comments, so `unsafe` in a doc comment is
        // never a site.
        let doc = "/// Calling `unsafe` code here would be bad.\npub fn ok() {}\n";
        assert!(unsafe_audit(&masked(doc), doc, "crates/net/src/sys.rs", allowed).is_empty());
    }
}
