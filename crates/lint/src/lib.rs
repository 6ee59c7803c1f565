//! `dvfs-lint`: the two workspace checks that span crates, which
//! neither rustc nor clippy can see.
//!
//! - `layering`: forbidden crate edges over *normal* dependencies,
//!   parsed from the `Cargo.toml` manifests (see [`layering`]).
//! - `atomics-discipline`: the word `Relaxed` appears in one file,
//!   `serve/src/metrics.rs`, home of the advisory cell; every other
//!   atomic access names Acquire/Release or SeqCst.
//!
//! Every other source invariant (determinism, wire-path panic-freedom,
//! the nonblocking event loop, bounded channels, the `unsafe` boundary)
//! is a rustc or clippy lint level in the crate it governs — a
//! manifest's `[lints]` table, a `clippy.toml` list, an inner attribute
//! — and an exception is an `#[expect(…, reason = "…")]` at the site.
//! DESIGN.md §6a has the table.

#![forbid(unsafe_code)]

pub mod layering;

use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id: `layering` or `atomics-discipline`.
    pub rule: String,
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// The one file allowed to spell `Relaxed`: it defines the advisory
/// cell every other module publishes stale-tolerant values through.
const RELAXED_HOME: &str = "crates/serve/src/metrics.rs";

/// 1-based lines of `text` holding `Relaxed` as a whole word — raw
/// text, so comments, strings and test code count too.
fn relaxed_lines(text: &str) -> impl Iterator<Item = usize> + '_ {
    let word = |c: char| c == '_' || c.is_ascii_alphanumeric();
    text.lines().enumerate().filter_map(move |(i, line)| {
        line.match_indices("Relaxed")
            .any(|(at, m)| !line[..at].ends_with(word) && !line[at + m.len()..].starts_with(word))
            .then_some(i + 1)
    })
}

/// Rule `atomics-discipline` over every `.rs` file below `dir`.
fn relaxed_below(root: &Path, dir: &Path, out: &mut Vec<Violation>) {
    for path in sorted_entries(dir) {
        let file = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
        if path.is_dir() {
            relaxed_below(root, &path, out);
        } else if file.ends_with(".rs") && file != RELAXED_HOME {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            out.extend(relaxed_lines(&text).map(|line| Violation {
                rule: "atomics-discipline".to_string(),
                file: file.to_string(),
                line,
                message: format!("`Relaxed` outside `{RELAXED_HOME}`; publish advisory values through `metrics::AdvisoryCell`, and give a cross-thread handshake Acquire/Release (or SeqCst)"),
            }));
        }
    }
}

fn sorted_entries(dir: &Path) -> Vec<PathBuf> {
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    let mut paths: Vec<PathBuf> = entries.map(|e| e.path()).collect();
    paths.sort();
    paths
}

/// Run both rules over the workspace at `root`: layering over its
/// manifests, `atomics-discipline` over `crates/*/src` — this crate's
/// own source, which has to name the word, excepted.
#[must_use]
pub fn run(root: &Path) -> Vec<Violation> {
    let mut out = layering::check(&layering::discover(root));
    for krate in sorted_entries(&root.join("crates")) {
        if !krate.ends_with("lint") {
            relaxed_below(root, &krate.join("src"), &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxed_is_a_whole_word_on_raw_text_outside_its_home_and_this_crate() {
        let src = "use Ordering::Relaxed;\n// Relaxed in a comment counts\nlet s = \"Relaxed\";\nRelaxedish(); _Relaxed; x.load(SeqCst);\n";
        let scanned = "crates/serve/src/sub/a.rs";
        let root = std::env::temp_dir().join(format!("dvfs-lint-{}", std::process::id()));
        for file in [RELAXED_HOME, scanned, "crates/lint/src/lib.rs"] {
            let path = root.join(file);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, src).unwrap();
        }
        let found = run(&root);
        std::fs::remove_dir_all(&root).unwrap();
        assert!(found.iter().all(|v| v.rule == "atomics-discipline"));
        let at: Vec<_> = found.iter().map(|v| (v.file.as_str(), v.line)).collect();
        assert_eq!(at, [(scanned, 1), (scanned, 2), (scanned, 3)]);
    }
}
