//! The CI smokes' baselines. Each smoke (`crates/bench/tests/*.rs`)
//! gates its run against the numbers committed in `BENCH_<name>.json`
//! at the repository root, which it only reads, and writes its own
//! run's numbers under the target directory, so a CI run leaves the
//! tree as it found it. Refreshing a baseline is a deliberate copy of
//! that file over the committed one.

use std::path::PathBuf;

/// Field `key` of the committed `BENCH_<name>.json`, or `None` when the
/// file, the field or its number is missing.
pub fn baseline(name: &str, key: &str) -> Option<f64> {
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()?.get(key)?.as_f64()
}

/// Write this run's `json` as `BENCH_<name>.json` in the profile folder
/// of the target directory the running test binary was built into
/// (`target/debug/` under `cargo test`), and return that path.
///
/// # Panics
/// When the binary's own path is unknown or the file cannot be written:
/// a smoke that cannot record its run fails.
pub fn record(name: &str, json: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("the test binary's path");
    // `<target>/<profile>/deps/<binary>`
    let dir = exe
        .ancestors()
        .nth(2)
        .expect("test binaries live in <target>/<profile>/deps");
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json).expect("bench json writes");
    path
}
