//! The layering rule end to end over two manifest-only workspaces: one
//! that passes (a dev-dependency cycle included) and one with a
//! forbidden edge out of each guarded crate.

use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn clean_fixture_is_clean() {
    let found = dvfs_lint::run(&fixture("clean"));
    assert!(found.is_empty(), "expected no violations, got {found:?}");
}

#[test]
fn violating_fixture_pins_each_forbidden_edge_to_its_manifest() {
    let found = dvfs_lint::run(&fixture("violations"));
    assert!(found.iter().all(|v| v.rule == "layering"), "{found:?}");
    for (file, chain) in [
        // A policy crate linking an executor.
        ("crates/core/Cargo.toml", "dvfs-core -> dvfs-sim"),
        // The trace bus must not depend on anything in the workspace.
        ("crates/trace/Cargo.toml", "dvfs-trace -> dvfs-core"),
        // The reactor must not reach back into the service.
        ("crates/net/Cargo.toml", "dvfs-net -> dvfs-serve"),
    ] {
        let hit = |v: &dvfs_lint::Violation| v.file == file && v.message.contains(chain);
        assert!(found.iter().any(hit), "missing {chain} in {found:?}");
    }
}
