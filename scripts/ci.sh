#!/usr/bin/env bash
# Tier-1 gate: formatting, crate layering and atomics, lints, release
# build, full test suite.
#
# Everything resolves offline — external dependencies are local path
# shims under shims/ and Cargo.lock is committed — so this script is
# deterministic on a machine with only the Rust toolchain installed.
#
# Usage: ./scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check

# The two invariants that span crates, which neither rustc nor clippy
# sees. Layering: no guarded crate (first column) may reach a crate
# listed after it over normal dependencies, on any target. Policies
# stay engine-agnostic (core and model never see an executor), the
# service links the real-time executor only, the trace bus depends on
# nothing (`dvfs-core -> dvfs-trace` is the one edge into it), and the
# reactor is pure transport that only the service layer links.
# Dev-dependency edges into dvfs-sim (policies tested on the
# virtual-time executor) are deliberate. Cargo's resolver decides what
# a crate reaches, so a renamed or table-form dependency counts too.
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
# Atomics: the word `Relaxed` (raw text, so comments and tests count)
# appears only in serve/src/metrics.rs, home of the AdvisoryCell; every
# other atomic access names Acquire/Release or SeqCst.
echo "==> atomics: Relaxed only in crates/serve/src/metrics.rs"
if grep -rnw --include='*.rs' Relaxed crates/*/src | grep -v '^crates/serve/src/metrics\.rs:' >&2; then
    echo "ci: Relaxed outside crates/serve/src/metrics.rs; publish advisory values through metrics::AdvisoryCell" >&2
    exit 1
fi

# The source invariants the conformance pins rest on are lint levels,
# so clippy is their gate: determinism (no `HashMap`/`HashSet` or wall
# clock in dvfs-core/dvfs-model, wall time in dvfs-serve only through
# `clock::wall_now()`, no clock, formatting or `String` on the
# dvfs-trace record path), wire-path panic-freedom (all of dvfs-net,
# and serve's codec / protocol / server / admission), no unbounded
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
run cargo test --workspace -q

# Docs gate: rustdoc must build clean (broken intra-doc links and
# malformed doc comments are errors, not warnings).
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# Module-size table: lines above `#[cfg(test)] mod tests` for every
# file of the two crates the request path lives in. Printed so growth
# is visible in every CI log; a dvfs-serve file past 1 000 lines fails
# (ROADMAP: "a 2 000-line module is several modules"), and so does a
# total past the ceiling below — the last total a PR paid lines back
# to, so they stay paid. Lower it with the total; never raise it.
# The engine side (crates/{core,sim,trace}/src) is printed after it,
# ungated: a baseline for the next PR that pays lines back there.
TOTAL_CEILING=7070
non_test_lines() {
    awk '/^#\[cfg\(test\)\]$/ { attr = NR }
         /^mod tests/ && attr == NR - 1 { print attr - 1; found = 1; exit }
         END { if (!found) print NR }' "$1"
}
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
echo "==> non-test lines per file, crates/{core,sim,trace}/src (not gated)"
total=0
for f in crates/core/src/*.rs crates/core/src/sched/*.rs crates/sim/src/*.rs crates/trace/src/*.rs; do
    n=$(non_test_lines "$f")
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d  total\n' "$total"

# Backend × shard sweep: the serve end-to-end suite at one engine shard
# (the bit-identical-to-the-simulator pin) and at multiple shards (the
# router, fan-out, and report merge). The e2e trace's ids all hash to
# shard 0, so every cell must replay it identically — including the
# drained lifecycle trace, byte for byte (trace_e2e). health_e2e drives
# the runtime health plane over the wire in every cell: heartbeat/stage/
# reactor sections of `health`, and the stage telescope summing to
# end-to-end latency. paced_retire drives waves of paced submits
# between ticks at the cell's shard count: every tick retires what it
# streams, so the drain finds nothing resident, VmRSS stays flat, and
# the round's totals still equal what the ticks streamed.
#
# The shard axis is swept on the reactor (the default backend) only.
# Both backends now run the same `dvfs_net::Handler` value through the
# same framer and batch splitter, and nothing below that handler can
# see which driver called it — so threads × {1,4} would re-run the
# scheduler cells reactor × {1,4} already cover. What the threads
# backend owns (its accept loop and `dvfs_net::blocking`) does not
# depend on the shard count: one cell (threads × 2) keeps it honest,
# and net_framing below replays the framing table and a seeded
# differential script against both backends directly.
SWEEP="reactor:1 reactor:2 reactor:4 threads:2"
for cell in $SWEEP; do
    net="${cell%%:*}" shards="${cell##*:}"
    echo "==> serve e2e at DVFS_SERVE_NET=$net DVFS_SERVE_SHARDS=$shards"
    DVFS_SERVE_NET="$net" DVFS_SERVE_SHARDS="$shards" cargo test -q --test serve_e2e
    DVFS_SERVE_NET="$net" DVFS_SERVE_SHARDS="$shards" cargo test -q --test trace_e2e
    DVFS_SERVE_NET="$net" DVFS_SERVE_SHARDS="$shards" cargo test -q --test health_e2e
    DVFS_SERVE_NET="$net" DVFS_SERVE_SHARDS="$shards" cargo test -q --test paced_retire
done
# Both backends in one binary: the framing table, the mixed-batch reply
# order (a slow command between submits, an oversized line behind a
# deferred one, a shutdown mid-batch) and the seeded differential. The
# request decoder, the ack encoder and the borrowed framer are held to
# their oracles (the tree parser, the generic encoder, the owning
# framer) by unit property tests in dvfs-serve and dvfs-net, which
# `cargo test --workspace` above already ran.
run cargo test -q --test net_framing

# Executor conformance (dvfs-core's sched::conformance suite): the one
# engine must reproduce the committed golden bits of the pinned trace
# under both of its drivers, and the service wrapper around it (worker
# threads, shards 1/2/4, report merge) must replay it bit-identically.
run cargo test -q --test conformance

# Concurrency stress: burst submitters race the drain loop and a wire
# shutdown on every cell of the sweep above (same reasoning for the
# dropped threads cells), repeatedly — the books must balance
# (admitted == completed across drained rounds, per-shard counts
# summing to round totals) under any interleaving of the worker
# command channels.
for cell in $SWEEP; do
    net="${cell%%:*}" shards="${cell##*:}"
    for rep in 1 2 3; do
        echo "==> concurrency stress at DVFS_SERVE_NET=$net DVFS_SERVE_SHARDS=$shards (rep $rep)"
        DVFS_SERVE_NET="$net" DVFS_SERVE_SHARDS="$shards" cargo test -q --test concurrency_stress -- --ignored
    done
done

# Trace-overhead smoke: the ring sink on the LMC hot path must stay
# within an order of magnitude of running untraced (a miss means the
# record path started allocating or formatting; see the lists in
# crates/trace/clippy.toml, which clippy holds that path to).
run cargo test -q -p dvfs-bench --test trace_overhead -- --ignored

# Health-plane overhead smoke: the same drain workload with per-request
# stage telemetry off and on, back-to-back per rep, best pairwise
# ratio gated at 5% and against the committed ratio in
# BENCH_health_overhead.json (then refreshed). A miss means per-task
# work crept onto the submit or completion hot path (stage records are
# batched per worker round by design).
run cargo test -q -p dvfs-bench --test health_overhead -- --ignored

# Reactor-at-scale smoke: a single epoll reactor holds ~10k idle
# connections while a small active set submits. Gates per-connection
# RSS and p99 submit latency against the committed BENCH_net_10k.json
# (generous bounds — a tripwire for complexity regressions, not a
# benchmark), then refreshes the file with this run's numbers.
run cargo test -q -p dvfs-bench --test net_10k -- --ignored

# Parallelism smoke: the same task set drained at 1 shard vs 4 shards.
# On a >=4-core host the 4-shard drain must be at least 2x faster
# (shard workers genuinely run concurrently); on smaller hosts the run
# is informational. Numbers land in BENCH_parallel.json.
run cargo test -q -p dvfs-bench --test parallel_drain -- --ignored

# Rebalancer smoke: a workload pinned to one shard of four, replayed
# with the cross-shard rebalancer off and on. Deterministic (replay
# never reads the wall clock): migrations must happen and the merged
# Eq. 27 cost must beat the skewed run, within a loose factor of the
# committed improvement in BENCH_rebalance.json (then refreshed).
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

echo "ci: all gates passed"
