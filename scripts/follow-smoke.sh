#!/bin/sh
# follow-smoke: end-to-end proof of the incremental follower's
# dependability contract over a generated workspace.
#
#   1. Stream the latest 20 window commits through one warm follower,
#      once with the default options and once under all four checker
#      extensions (-static -prescan -allmod -coverage), writing each
#      report to a file.
#   2. cmp every streamed report with a literal `jmake -commit ID -json`
#      run of the same commit under the same options: warmth may change
#      cost, never a byte, whatever options reach the follower, and the
#      follower is not allowed its own serialization.
#   3. Gate the economics: replay the bench window through a warm
#      follower and require steady-state small commits (<= 2 files, past
#      warm-up) to average <= 30% of their cold price.
set -eu

GO=${GO:-go}
WS="-tree-scale 0.15 -commit-scale 0.008"
N=20

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

$GO build -o "$dir/jmake" ./cmd/jmake
$GO build -o "$dir/jmake-bench" ./cmd/jmake-bench

# stream NAME [OPTION...]: follow the latest $N commits under the options
# into $dir/NAME, then cmp each report with a one-shot check under them.
stream() {
    name=$1
    shift
    echo "follow-smoke: streaming $N commits (warm, $name options)..."
    "$dir/jmake" $WS "$@" -follow -n $N -follow-out "$dir/$name" >"$dir/$name.log"
    echo "follow-smoke: checking each $name report one-shot..."
    count=0
    for f in "$dir/$name"/*.json; do
        "$dir/jmake" $WS "$@" -commit "$(basename "$f" .json)" -json >"$dir/oneshot.json" 2>/dev/null
        cmp "$f" "$dir/oneshot.json"
        count=$((count + 1))
    done
    [ "$count" -ge 1 ] || { echo "follow-smoke: no $name reports were streamed" >&2; exit 1; }
    echo "follow-smoke: $count $name reports byte-identical to the one-shot CLI"
}

stream default
stream extension -static -prescan -allmod -coverage

echo "follow-smoke: gating small-commit economics..."
"$dir/jmake-bench" -reactive-check $WS -reactive-commits 40 -max-ratio 0.30

echo "follow-smoke: OK"
