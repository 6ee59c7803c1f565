//! `dvfs-lint [--root PATH]`: prints every finding and exits 1 when
//! there is one. Without `--root` the workspace is the first directory
//! upward of the current one whose `Cargo.toml` contains `[workspace]`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn find_root() -> Option<PathBuf> {
    let cwd = std::env::current_dir().ok()?;
    let is_root = |dir: &&std::path::Path| {
        std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]"))
    };
    cwd.ancestors().find(is_root).map(PathBuf::from)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match args.as_slice() {
        [] => find_root(),
        [flag, path] if flag == "--root" => Some(PathBuf::from(path)),
        _ => None,
    };
    let Some(root) = root else {
        eprintln!("usage: dvfs-lint [--root PATH] (default: the nearest workspace upward of here)");
        return ExitCode::from(2);
    };
    let found = dvfs_lint::run(&root);
    for v in &found {
        println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
    }
    println!("dvfs-lint: {} violation(s)", found.len());
    if found.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
