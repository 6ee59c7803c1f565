#!/usr/bin/env bash
# Tier-1 gate: formatting, crate layering and atomics, doc references,
# lints, release build, full test suite, results/ against the runner.
#
# Everything resolves offline — external dependencies are local path
# shims under shims/ and Cargo.lock is committed — so this script is
# deterministic on a machine with only the Rust toolchain installed.
#
# Usage: ./scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."
# Compared at the end: CI must leave the tree as it found it.
tree_before="$(git status --porcelain)"

run() {
    echo "==> $*"
    "$@"
}

# Lines of a Rust file above its `#[cfg(test)] mod tests`.
non_test_lines() {
    awk '/^#\[cfg\(test\)\]$/ { attr = NR }
         /^mod tests/ && attr == NR - 1 { print attr - 1; found = 1; exit }
         END { if (!found) print NR }' "$1"
}

# The checks below are functions, so that `scripts/ci.sh NAME` runs the
# one named (layering, atomics, docs) and exits: the rows of
# scripts/mutants.tsv that plant what such a check refuses call it so.
# Layering, which spans crates, so neither rustc nor clippy sees it:
# no guarded crate (first column) may reach a crate listed after it
# over normal dependencies, on any target. Policies
# stay engine-agnostic (core and model never see an executor), the
# service links the real-time executor only, the trace bus depends on
# nothing (`dvfs-core -> dvfs-trace` is the one edge into it), and the
# reactor is pure transport that only the service layer links.
# Dev-dependency edges into dvfs-sim (policies tested on the
# virtual-time executor) are deliberate. Cargo's resolver decides what
# a crate reaches, so a renamed or table-form dependency counts too.
layering() {
    echo "==> layering: cargo tree, normal dependencies"
    layering_ok=1
    while read -r from forbidden; do
        reached="$(cargo tree --offline --quiet -e normal --target all -p "$from" --prefix none |
            awk '{ print $1 }')"
        for to in $forbidden; do
            if grep -qx "$to" <<<"$reached"; then
                echo "ci: $from reaches $to over normal dependencies:" >&2
                cargo tree --offline --quiet -e normal --target all -p "$from" -i "$to" >&2
                layering_ok=0
            fi
        done
    done <<'TABLE'
dvfs-core  dvfs-sim dvfs-serve dvfs-net
dvfs-serve dvfs-sim
dvfs-model dvfs-core dvfs-sim dvfs-trace dvfs-net
dvfs-trace dvfs-core dvfs-model dvfs-sim dvfs-serve dvfs-net
dvfs-net   dvfs-core dvfs-model dvfs-sim dvfs-serve dvfs-trace
TABLE
    [ "$layering_ok" -eq 1 ] || exit 1
}
# Atomics: the word `Relaxed` (raw text, so comments and tests count)
# appears only in serve/src/metrics.rs, home of the AdvisoryCell; every
# other atomic access names Acquire/Release or SeqCst. A grep, because
# no lint can carry it: clippy's `disallowed-methods` names functions,
# and `Ordering::Relaxed` is an enum variant it refuses to resolve
# ("expected a type, found a variant"); an `AdvisoryCell` is the type
# that owns every relaxed access there is.
atomics() {
    echo "==> atomics: Relaxed only in crates/serve/src/metrics.rs"
    if grep -rnw --include='*.rs' Relaxed crates/*/src | grep -v '^crates/serve/src/metrics\.rs:' >&2; then
        echo "ci: Relaxed outside crates/serve/src/metrics.rs; publish advisory values through metrics::AdvisoryCell" >&2
        exit 1
    fi
}
# Docs name only what exists: every backticked path ending in .rs .sh
# .json .jsonl .toml .txt or .md, and every `--bin NAME`, in the docs
# below must resolve in the tree: a file that is the path or ends in
# `/path`, a bin target Cargo lists. The allow-list holds glob tails.
# Every `--flag` they name must be a key or switch that an
# `Args::parse` call in the non-test part of the CLI's commands.rs
# accepts, a flag sysbench's main.rs parses, or a cargo / rustfmt /
# grep flag of the short list below. And every backticked Rust path
# outside a fenced block — `a::b`, `Type::method`, `Enum::Variant`,
# `file.rs::test`, `name()`; a crate may be spelt `dvfs-core` — must
# name a declaration in the tree (see `rust_decls` below); paths into
# std, core, alloc, a primitive type or a lint tool's namespace are not
# the tree's and are skipped.
docs() {
    echo "==> doc references resolve in the tree"
    docs="README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md"
    allowed="/clippy.toml"
    tree="$(git ls-files --cached --others --exclude-standard)"
    bins="$(cargo metadata --offline --no-deps --format-version 1 |
        grep -o '"kind":\["bin"\][^}]*"name":"[^"]*"' | sed 's/.*"name":"//; s/"$//')"
    docs_ok=1
    for path in $(grep -ho '`[^`]*`' $docs |
            grep -oE '[A-Za-z0-9_./-]+\.(rs|sh|json|jsonl|toml|txt|md)\b' | sed 's|^\./||' | sort -u); do
        grep -qxF "$path" <<<"$allowed" && continue
        if ! grep -qE "(^|/)${path//./\\.}\$" <<<"$tree"; then
            echo "ci: the docs name \`$path\`, which is not in the tree" >&2
            docs_ok=0
        fi
    done
    for bin in $(grep -ohE -- '--bin[ =][A-Za-z0-9_-]+' $docs | sed 's/^--bin[ =]//' | sort -u); do
        if ! grep -qxF "$bin" <<<"$bins"; then
            echo "ci: the docs name \`--bin $bin\`, which no package builds" >&2
            docs_ok=0
        fi
    done
    cli=crates/cli/src/commands.rs
    known_flags="$(head -n "$(non_test_lines "$cli")" "$cli" |
        awk '/Args::parse\(|let keys = \[/ { on = 1 } on { print } /;/ { on = 0 }' |
        grep -oE '"[a-z][a-z0-9-]*"' | tr -d '"' | sed 's/^/--/'
        grep -oE '^ *"--[a-z][a-z0-9-]*" =>' crates/bench/examples/sysbench/main.rs | grep -oE -- '--[a-z0-9-]+'
        printf -- '--%s\n' all-targets bin check example include lib locked no-deps offline \
            prefix release target test workspace)"
    for flag in $(grep -ohE -- '--[a-z][a-z0-9-]*' $docs | sort -u); do
        if ! grep -qxF -- "$flag" <<<"$known_flags"; then
            echo "ci: the docs name \`$flag\`, which no command parses" >&2
            docs_ok=0
        fi
    done
    # What each .rs file declares, one `parent name` line per declaration
    # (and `- name` for any parent): a fn, struct, enum, trait, type, const,
    # static, mod, union or macro_rules, or a `pub use` re-export, under the
    # file's module (its stem; the package name for src/lib.rs and
    # src/main.rs; the directory for mod.rs and other main.rs), or under
    # the inline `mod`, `impl` or `trait` it sits in; an enum's variants
    # and a struct's named fields under the type. Scopes are read off
    # rustfmt's layout — a body ends at the `}` at its header's indent —
    # so no brace inside a string can confuse them.
    decls_awk='
    function parent() { return n ? sn[n] : m }
    function emit(name) { print parent(), name; print "-", name }
    function ident(x) { sub(/[^A-Za-z0-9_].*/, "", x); return x }
    {
        match($0, /^ */); ind = RLENGTH; t = substr($0, ind + 1)
        if (pend != "" && ind == pind && t == "{") { n++; sk[n] = pk; sn[n] = pend; si[n] = ind; pend = ""; next }
        if (n && ind == si[n] && t ~ /^}/) { n--; next }
        if (t == "" || t ~ /^(\/\/|#)/) next
        if (use != "") { use = use " " t } else if (t ~ /^pub(\([^)]*\))? use /) { use = t }
        if (use != "") {
            if (use !~ /;/) next
            gsub(/[A-Za-z_][A-Za-z0-9_]*::/, "", use)
            k = split(use, w, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= k; i++) if (w[i] !~ /^(|pub|crate|use|as|self|super)$/) emit(w[i])
            use = ""; next
        }
        if (n && ind == si[n] + 4 && sk[n] == "enum" && t ~ /^[A-Z][A-Za-z0-9_]*([ ,({=]|$)/) {
            print sn[n], ident(t); print "-", ident(t); next
        }
        s = t; sub(/^pub(\([^)]*\))? /, "", s)
        if (n && ind == si[n] + 4 && sk[n] == "struct" && s ~ /^[a-z_][a-z0-9_]*:/) {
            print sn[n], ident(s); print "-", ident(s); next
        }
        if (s ~ /^(const|static) [A-Za-z_][A-Za-z0-9_]*:/) { sub(/^[a-z]+ /, "", s); emit(ident(s)); next }
        while (sub(/^(const|async|unsafe|default|extern "[^"]*") /, "", s)) {}
        if (s ~ /^macro_rules! /) { emit(ident(substr(s, 14))); next }
        if (s ~ /^impl[ <]/) {
            while (sub(/<[^<>]*>/, "", s)) {}
            if (s ~ / for /) sub(/.* for /, "", s); else sub(/^impl /, "", s)
            sub(/^(&|dyn |mut )+/, "", s); sub(/[ {].*/, "", s); sub(/.*::/, "", s)
            kind = "impl"; name = s
        } else if (s ~ /^(fn|struct|enum|trait|type|mod|union|static) [A-Za-z_]/) {
            kind = s; sub(/ .*/, "", kind); name = ident(substr(s, length(kind) + 2)); emit(name)
        } else next
        if (kind !~ /^(impl|struct|enum|trait|mod)$/) next
        if (t ~ /\{$/) { n++; sk[n] = kind; sn[n] = name; si[n] = ind }
        else if (t !~ /[;,(]$/ && kind != "mod") { pend = name; pk = kind; pind = ind }
    }'
    rust_decls() {
        local f m
        for f in $(grep '\.rs$' <<<"$tree"); do
            case "$f" in
                src/lib.rs | src/main.rs | */src/lib.rs | */src/main.rs)
                    m="$(sed -n 's/^name = "\(.*\)"/\1/p' "${f%src/*}Cargo.toml" | head -n 1 | tr - _)" ;;
                */mod.rs | */main.rs) m="$(basename "$(dirname "$f")")" ;;
                *) m="$(basename "$f" .rs)" ;;
            esac
            awk -v m="$m" "$decls_awk" "$f"
        done
    }
    decls="$(rust_decls | sort -u)"
    for path in $(for d in $docs; do awk '/^ *```/ { fence = !fence; next } !fence' "$d"; done |
            tr '\n' ' ' | grep -o '`[^`]*`' |
            grep -oE '\.?[A-Za-z_][A-Za-z0-9_-]*(\.rs)?(::[A-Za-z_][A-Za-z0-9_]*)+(\(\))?|\.?[A-Za-z_][A-Za-z0-9_]*\(\)' |
            grep -v '^\.' | sed 's/\.rs::/::/; s/()$//' | tr - _ | sort -u); do
        case "${path%%::*}" in
            std | core | alloc | clippy | rustdoc | bool | char | str | f32 | f64 | [iu]8 | [iu]16 | [iu]32 | [iu]64 | [iu]128 | [iu]size) continue ;;
        esac
        parent=-
        [[ "$path" == *::* ]] && parent="${path%::*}" && parent="${parent##*::}"
        if ! grep -qxF -- "$parent ${path##*::}" <<<"$decls"; then
            echo "ci: the docs name \`$path\`, which the tree does not declare" >&2
            docs_ok=0
        fi
    done
    [ "$docs_ok" -eq 1 ] || exit 1
}

case "${1:-}" in
    layering | atomics | docs) "$1"; exit 0 ;;
    "") ;;
    *) echo "usage: scripts/ci.sh [layering | atomics | docs]" >&2; exit 2 ;;
esac

run cargo fmt --all --check
layering
atomics
docs

# The source invariants the conformance pins rest on are lint levels,
# so clippy is their gate: determinism (no `HashMap`/`HashSet` or wall
# clock in dvfs-core/dvfs-model, wall time in dvfs-serve only through
# `clock::wall_now()`, no clock, formatting or `String` on the
# dvfs-trace record path), wire-path panic-freedom (all of dvfs-net,
# serve's codec / protocol / server / admission, and the serde_json
# shim's reader), no unbounded
# `channel()` in net or serve, no blocking call in dvfs-net outside the
# slow lane, and `unsafe` confined to net/src/sys.rs with every block
# `// SAFETY:`-documented. The levels live in each crate's Cargo.toml
# `[lints]` table, clippy.toml and a few inner attributes; an exception
# is an `#[expect(.., reason = "..")]` at the site, which fails the run
# once it stops firing; and a `#[cfg(clippy)]` canary per carrier fails
# it when a list or a table stops applying. DESIGN.md "Enforced
# invariants" has the table.
run cargo clippy --workspace --all-targets -- -D warnings
run cargo build --release
# The full suite. Among its binaries: `net_framing` runs both backends
# in one binary — the framing table, the mixed-batch reply order (a
# slow command between submits, an oversized line behind a deferred
# one, a shutdown mid-batch) and the seeded differential; and
# `conformance` (dvfs-core's sched::conformance suite) holds the one
# engine to the committed golden bits of the pinned trace under both
# of its drivers, and the service wrapper around it (worker threads,
# shards 1/2/4, report merge) to a bit-identical replay. The request
# decoder, the ack encoder and the borrowed framer are held to their
# oracles (the tree parser, the generic encoder, the owning framer) by
# unit property tests in dvfs-serve and dvfs-net.
run cargo test --workspace -q

# Docs gate: rustdoc must build clean (broken intra-doc links and
# malformed doc comments are errors, not warnings).
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# Every carrier bites: scripts/mutants.sh plants each row of
# scripts/mutants.tsv — a breach of a §6a carrier, a bug an earlier
# change checked once by hand, an engine pin — in a git worktree under
# target/ and fails naming any mutant the row's command lets through.
run scripts/mutants.sh

# Results gate: results/ is what the experiment runner writes, so the
# numbers EXPERIMENTS.md quotes are the code's. The runner also fails
# when validate_wbg finds a plan that beats WBG. Regenerate with
# `cargo run --release -p dvfs-bench --bin experiments`.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
run cargo run --release -q -p dvfs-bench --bin experiments -- "$tmp"
echo "==> results/ equals the experiments runner's output"
if ! diff -r results "$tmp" >&2; then
    echo "ci: results/ differs from what the experiments runner writes (diff above)" >&2
    exit 1
fi

# Module-size table: lines above `#[cfg(test)] mod tests` for every
# file of the two crates the request path lives in. Printed so growth
# is visible in every CI log; a dvfs-serve file past 1 000 lines fails
# (ROADMAP: "a 2 000-line module is several modules"), and so does a
# total past the ceiling below — the last total a PR paid lines back
# to, so they stay paid. Lower it with the total; never raise it.
# shims/ (the offline stand-ins for registry crates) has a table and
# a ceiling of its own, on the same terms.
# The engine side (crates/{ostree,core,sim,trace}/src) has a table and a
# ceiling of its own too. A `tests.rs` there is a `#[cfg(test)] mod
# tests;` body, so it is skipped.
TOTAL_CEILING=6827
# Lower it with the total; never raise it.
SHIMS_CEILING=1365
# Lower it with the total; never raise it.
ENGINE_CEILING=6361
echo "==> non-test lines per file, crates/{serve,net}/src"
oversize=0
total=0
for f in crates/serve/src/*.rs crates/net/src/*.rs; do
    n=$(non_test_lines "$f")
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
    case "$f" in
        crates/serve/src/*) [ "$n" -le 1000 ] || oversize=1 ;;
    esac
done
printf '%6d  total\n' "$total"
if [ "$oversize" -ne 0 ]; then
    echo "ci: a crates/serve/src file exceeds 1000 non-test lines; split it" >&2
    exit 1
fi
if [ "$total" -gt "$TOTAL_CEILING" ]; then
    echo "ci: crates/{serve,net}/src non-test total $total exceeds the ceiling $TOTAL_CEILING" >&2
    exit 1
fi
echo "==> non-test lines per file, shims/*/src/lib.rs"
total=0
for f in shims/*/src/lib.rs; do
    n=$(non_test_lines "$f")
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
if [ "$total" -gt "$SHIMS_CEILING" ]; then
    echo "ci: shims/ non-test total $total exceeds the ceiling $SHIMS_CEILING" >&2
    exit 1
fi
echo "==> non-test lines per file, crates/{ostree,core,sim,trace}/src"
total=0
for f in crates/ostree/src/*.rs crates/core/src/*.rs crates/core/src/sched/*.rs \
        crates/sim/src/*.rs crates/trace/src/*.rs; do
    [ "${f##*/}" = tests.rs ] && continue
    n=$(non_test_lines "$f")
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
if [ "$total" -gt "$ENGINE_CEILING" ]; then
    echo "ci: crates/{ostree,core,sim,trace}/src non-test total $total exceeds the ceiling $ENGINE_CEILING" >&2
    exit 1
fi

# Concurrency stress: burst submitters race the drain loop and a wire
# shutdown in every backend × shard cell (tests/cells/mod.rs),
# repeatedly — the books must balance (admitted == completed across
# drained rounds, per-shard counts summing to round totals) under any
# interleaving of the worker command channels.
for rep in 1 2 3; do
    echo "==> concurrency stress, every cell (rep $rep)"
    cargo test -q --test concurrency_stress -- --ignored
done

# Cycle-tree differential at scale: 10^6 seeded inserts and removes,
# most keys folded onto a few values so equal-cycles runs span many
# leaves, held position for position to a sorted-Vec model — too slow
# for the debug suite above.
run cargo test -q --release -p dvfs-ostree -- --ignored

# Number-writer differential at scale: 10^8 seeded bit patterns (half
# folded into the fast path) against `Display`, byte for byte — too
# slow for the debug suite above.
run cargo test -q --release -p dvfs-trace -- --ignored

# Trace-overhead smoke: the ring sink on the LMC hot path must stay
# within an order of magnitude of running untraced (a miss means the
# record path started allocating or formatting; see the lists in
# crates/trace/clippy.toml, which clippy holds that path to).
run cargo test -q -p dvfs-bench --test trace_overhead -- --ignored

# The bench smokes below gate against the committed BENCH_*.json
# files, which they only read; each writes its run's numbers to
# target/debug/BENCH_*.json (dvfs_bench::smoke).
#
# Health-plane overhead smoke: the same drain workload with per-request
# stage telemetry off and on, back-to-back per rep, best pairwise
# ratio gated at 5% and against the committed ratio in
# BENCH_health_overhead.json. A miss means per-task work crept onto
# the submit or completion hot path (stage records are batched per
# worker round by design).
run cargo test -q -p dvfs-bench --test health_overhead -- --ignored

# Reactor-at-scale smoke: a single epoll reactor holds ~10k idle
# connections while a small active set submits. Gates per-connection
# RSS and p99 submit latency against the committed BENCH_net_10k.json
# (generous bounds — a tripwire for complexity regressions, not a
# benchmark). Each held connection is two descriptors of the test
# process, so the soft limit is raised to the hard one for it (in a
# subshell, so nothing else runs with it).
(ulimit -n "$(ulimit -Hn)" && run cargo test -q -p dvfs-bench --test net_10k -- --ignored)

# Parallelism smoke: the same task set drained at 1 shard vs 4 shards.
# On a >=4-core host the 4-shard drain must be at least 2x faster
# (shard workers genuinely run concurrently); on smaller hosts the run
# is informational.
run cargo test -q -p dvfs-bench --test parallel_drain -- --ignored

# Rebalancer smoke: a workload pinned to one shard of four, replayed
# with the cross-shard rebalancer off and on. Deterministic (replay
# never reads the wall clock): migrations must happen and the merged
# Eq. 27 cost must beat the skewed run, within a loose factor of the
# committed improvement in BENCH_rebalance.json.
run cargo test -q -p dvfs-bench --test rebalance -- --ignored

# Sanitizer stage (gated, never tier-1): when a nightly toolchain with
# the right components is installed, rerun the concurrency stress under
# ThreadSanitizer and the dvfs-core/dvfs-sim unit tests under Miri
# (the engine and its unit tests live in dvfs-core's `sched::engine`;
# dvfs-sim contributes the driver, trace analysis and report tests).
# Both catch the bug classes the lint levels can only approximate
# statically (real data races, real UB). Absent nightly/components the stage skips
# with a visible notice — tier-1 stays stable-toolchain-only by design.
if rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    host_target="$(rustc -vV | sed -n 's/^host: //p')"
    if rustup component list --toolchain nightly 2>/dev/null \
            | grep -q '^rust-src.*(installed)'; then
        echo "==> concurrency stress under ThreadSanitizer (nightly)"
        RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -Zbuild-std --target "$host_target" \
            --test concurrency_stress -- --ignored
    else
        echo "==> SKIPPED: ThreadSanitizer (nightly rust-src component not installed)"
    fi
    if rustup component list --toolchain nightly 2>/dev/null \
            | grep -q '^miri.*(installed)'; then
        echo "==> dvfs-core + dvfs-sim unit tests under Miri (nightly)"
        cargo +nightly miri test -p dvfs-core -p dvfs-sim --lib
    else
        echo "==> SKIPPED: Miri (nightly miri component not installed)"
    fi
else
    echo "==> SKIPPED: sanitizer stage (no nightly toolchain installed)"
fi

# sysbench guard: the benchmark harness (crates/bench/examples/sysbench,
# what BENCHMARK.json runs) is both an example of dvfs-bench and a
# stand-alone package with its own frozen manifest and lockfile. Run
# its unit tests against the workspace's current public APIs, and check
# that the frozen lockfile still resolves offline — so a PR that breaks
# either assumption fails here instead of at benchmark time.
run cargo test -q -p dvfs-bench --example sysbench
echo "==> cargo metadata --offline --locked (sysbench manifest)"
cargo metadata --offline --locked --format-version 1 \
    --manifest-path crates/bench/examples/sysbench/Cargo.toml >/dev/null

# sysbench smokes: three seconds of a workload through the stand-alone
# harness, exactly as BENCHMARK.json builds it. Each fails when the
# run's own verification does (`"correct":false`: books out of balance,
# a shed or failed submit, service ≢ `dvfs_sim` or rounds not repeating
# on the replay workload) or when any operation failed (`fail_ratio` >
# 0: the paced wait's bound must never trip here); the figures a change
# moves are printed, not gated — a 3 s run on a shared CI host is a
# tripwire, the benchmark proper is the driver's.
sysbench_smoke() {
    local workload="$1" out
    echo "==> sysbench smoke: $workload, 3 s"
    out="$(cargo run --release --offline --quiet \
        --manifest-path crates/bench/examples/sysbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 3 --trace 0)" || true
    echo "$out" | grep -E '^(tasks_per_s|peak_rss_mib|cost_per_task|fail_ratio) ' || true
    if ! echo "$out" | tail -n 1 | grep -q '"correct":true'; then
        echo "ci: sysbench $workload smoke failed its verification" >&2
        echo "$out" | tail -n 3 >&2
        exit 1
    fi
    if ! echo "$out" | grep -qE '^fail_ratio 0(\.0+)? '; then
        echo "ci: sysbench $workload smoke reports failed operations" >&2
        exit 1
    fi
}
# The submit path at saturation: two client threads against a reactor
# and two shard workers need two cores to mean anything.
if [ "$(nproc)" -ge 2 ]; then
    sysbench_smoke wire_closed_sat
else
    echo "==> SKIPPED: sysbench wire_closed_sat smoke (nproc < 2)"
fi
# The engine with 10^5 tasks resident in one replay shard: LMC's
# marginal-cost query, the ledger and the tree do all the work, and the
# run checks the service against the simulator on the same batch.
sysbench_smoke engine_drain_deep

# CI writes nothing into the tree: the smokes record their runs under
# target/, and results/ is compared in a temporary directory. The
# tree's status must be what it was when this script started.
echo "==> the tree is as CI found it"
if [ "$(git status --porcelain)" != "$tree_before" ]; then
    git status --porcelain >&2
    echo "ci: this run changed files in the tree (status above); write run output under target/" >&2
    exit 1
fi

echo "ci: all gates passed"
