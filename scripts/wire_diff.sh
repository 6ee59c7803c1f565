#!/usr/bin/env bash
# Same bytes on the wire? Runs two `dvfs-sched` binaries (say, a parent
# build and a change build) as replay servers on both wire backends at
# shards 1 and 2, plays one script at each — every request kind,
# malformed and oversized lines, a negative arrival, queue-cap sheds,
# a `shutdown` mid-batch — in a single write, and compares the response
# streams byte for byte.
# `stats` and `health` carry wall-clock histograms and the counter set,
# and an oversized rejection reports how many bytes had arrived when the
# budget tripped (a read-boundary artefact): those three are compared by
# position only.
#
# Usage: scripts/wire_diff.sh PARENT_BIN CHANGE_BIN
set -euo pipefail
a="$1" b="$2"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

script() {
    local submit='{"cmd":"submit","id":%d,"cycles":%d,"class":"%s","arrival":%s}\n'
    for i in 0 1 2 3 4 5; do
        printf "$submit" "$i" $(((i + 1) * 30000000)) non_interactive "0.0$i"
    done
    printf '{"cmd":"ping"}\nthis is not json\n{"cmd":"nope"}\n{"cmd":"submit","cycles":5}\n'
    printf "$submit" 3 1000 interactive 0.5       # duplicate id
    printf '{"cmd":"submit","cycles":0,"class":"batch"}\n' # invalid
    printf "$submit" 16 1000 batch -1               # negative arrival
    head -c 70000 /dev/zero | tr '\0' x; printf '\n' # oversized
    printf '{"cmd":"stats"}\n{"cmd":"ping"}\n'
    for i in 6 7 8 9 10 11 12 13 14 15; do           # past the queue cap
        printf "$submit" "$i" 20000000 batch 0.1
    done
    printf '{"cmd":"submit","cycles":7000000,"class":"interactive"}\n'
    printf '{"cmd":"health"}\n{"cmd":"trace_stream"}\n{"cmd":"drain"}\n{"cmd":"trace"}\n'
    printf "$submit" 3 40000000 interactive 0.0   # the id is free again
    printf '\r\n{"cmd":"drain"}\n{"cmd":"trace_stream"}\n{"cmd":"trace_stream"}\n'
    printf "$submit" 1 1000 batch 0.0
    printf '{"cmd":"shutdown"}\n{"cmd":"ping"}\n'
    printf "$submit" 2 1000 batch 0.0
}

play() { # BIN NET SHARDS OUT
    local port=$((20000 + RANDOM % 20000))
    "$1" serve --tcp "127.0.0.1:$port" --net "$2" --shards "$3" \
        --queue-cap 8 --trace-cap 4096 >/dev/null &
    local pid=$!
    for _ in $(seq 50); do
        if exec 3<>"/dev/tcp/127.0.0.1/$port"; then break; fi 2>/dev/null
        sleep 0.1
    done
    script >&3
    sed -E 's/^.*"metrics":.*$/<stats>/; s/^.*"heartbeats":.*$/<health>/; s/\([0-9]+ read\)/(N read)/' <&3 >"$4"
    exec 3<&- 3>&-
    wait "$pid"
}

status=0
for net in reactor threads; do
    for shards in 1 2; do
        play "$a" "$net" "$shards" "$tmp/a"
        play "$b" "$net" "$shards" "$tmp/b"
        if cmp -s "$tmp/a" "$tmp/b"; then
            echo "identical: --net $net --shards $shards ($(wc -l <"$tmp/a") lines, $(wc -c <"$tmp/a") bytes)"
        else
            echo "DIFFERENT: --net $net --shards $shards"
            diff <(cut -c1-200 "$tmp/a") <(cut -c1-200 "$tmp/b") | head -20
            status=1
        fi
    done
done
exit "$status"
