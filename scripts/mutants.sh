#!/usr/bin/env bash
# The mutation table: every carrier of an invariant, and every pin,
# must bite. Each row of scripts/mutants.tsv plants one mutation — a
# construct a carrier refuses, or a bug a test pins — and names the one
# command that must then fail, and what its output must say.
#
# Columns, tab-separated, no tab inside a field, taken literally:
#   id       the row's name
#   file     the file to mutate, from the repo root
#   match    exact text, which must occur exactly once in the file (a
#            stale row fails instead of passing)
#   replace  what the match becomes
#   expect   an extended regex the command's output must match, so a
#            row killed by some other failure (a typo that does not
#            compile) does not count as killed
#   command  run with bash from the mutated tree's root; must fail
# Blank lines and lines starting with `#` are skipped.
#
# The rows run one at a time in a git worktree of the current tree
# (committed or not, ignored files left out) under target/mutants/,
# with one CARGO_TARGET_DIR for all of them, so each row rebuilds only
# what its mutation touches. The worktree is removed at the end; the
# repo's own tree is never written.
#
# Usage: scripts/mutants.sh [ID...]   (no ID: every row)
# Exits 1 naming each survivor (the command passed), misfire (it failed
# without the expected output) and stale row (the match is not unique).

set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
table="$root/scripts/mutants.tsv"
work="$root/target/mutants"
tree="$work/tree"
export CARGO_TARGET_DIR="$work/target"

mkdir -p "$work"
if [ -e "$tree" ]; then
    git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
fi
git worktree prune

# A commit of the tree as it is, through a scratch index, so neither
# the repo's index nor its files are touched.
index="$work/index"
rm -f "$index"
GIT_INDEX_FILE="$index" git read-tree HEAD
GIT_INDEX_FILE="$index" git add -A
snapshot="$(git -c user.name=mutants -c user.email=mutants@localhost \
    commit-tree "$(GIT_INDEX_FILE="$index" git write-tree)" -p HEAD -m "mutants: tree under test")"
rm -f "$index"
git worktree add --quiet --detach "$tree" "$snapshot"
trap 'git -C "$root" worktree remove --force "$tree" 2>/dev/null || true' EXIT

failed=()
rows=0
started=$SECONDS
while IFS=$'\t' read -r id file match replace expect command; do
    [[ -z "$id" || "$id" == \#* ]] && continue
    if [ $# -gt 0 ] && ! printf '%s\n' "$@" | grep -qxF -- "$id"; then
        continue
    fi
    rows=$((rows + 1))
    git -C "$tree" reset --quiet --hard "$snapshot"
    git -C "$tree" clean --quiet -fd
    path="$tree/$file"
    if [ ! -f "$path" ] || [ -z "$match" ] || [ -z "$command" ]; then
        echo "mutants: $id: stale row (no file $file, or an empty field)" >&2
        failed+=("$id (stale)")
        continue
    fi
    content="$(cat "$path"; printf x)"
    content="${content%x}"
    rest="${content//"$match"/}"
    count=$(((${#content} - ${#rest}) / ${#match}))
    if [ "$count" -ne 1 ]; then
        echo "mutants: $id: stale row ($count matches in $file, want 1)" >&2
        failed+=("$id (stale)")
        continue
    fi
    printf '%s' "${content/"$match"/"$replace"}" >"$path"
    t0=$SECONDS
    if out="$(cd "$tree" && bash -c "$command" 2>&1 </dev/null)"; then
        verdict="SURVIVED"
        failed+=("$id (survived)")
    elif grep -qE -- "$expect" <<<"$out"; then
        verdict="killed"
    else
        verdict="MISFIRED"
        failed+=("$id (failed without /$expect/)")
    fi
    printf '%-30s %-9s %4ds  %s\n' "$id" "$verdict" $((SECONDS - t0)) "$command"
    if [ "$verdict" != killed ]; then
        tail -n 20 <<<"$out" >&2
    fi
done <"$table"

echo "mutants: $rows rows in $((SECONDS - started)) s"
if [ "${#failed[@]}" -gt 0 ]; then
    printf 'mutants: not killed: %s\n' "${failed[@]}" >&2
    exit 1
fi
