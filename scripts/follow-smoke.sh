#!/bin/sh
# follow-smoke: end-to-end proof of the incremental follower's
# dependability contract over a generated workspace.
#
#   1. Stream the latest 20 window commits through one warm follower at
#      workers 1 and at workers 4, writing each report to a file.
#   2. cmp every streamed report with the workers 4 one and with a literal
#      `jmake -commit ID -json` run of the same commit: warmth and
#      concurrency may change cost, never a byte, and the follower is not
#      allowed its own serialization.
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

echo "follow-smoke: streaming $N commits (warm, workers 1)..."
"$dir/jmake" $WS -follow -follow-n $N -follow-workers 1 -follow-out "$dir/w1" >"$dir/w1.log"
echo "follow-smoke: streaming $N commits (warm, workers 4)..."
"$dir/jmake" $WS -follow -follow-n $N -follow-workers 4 -follow-out "$dir/w4" >/dev/null

echo "follow-smoke: checking each streamed commit one-shot..."
count=0
for f in "$dir/w1"/*.json; do
    b=$(basename "$f")
    cmp "$f" "$dir/w4/$b"
    "$dir/jmake" $WS -commit "${b%.json}" -json >"$dir/oneshot.json" 2>/dev/null
    cmp "$f" "$dir/oneshot.json"
    count=$((count + 1))
done
[ "$count" -ge 1 ] || { echo "follow-smoke: no reports were streamed" >&2; exit 1; }
echo "follow-smoke: $count reports byte-identical across warm/1, warm/4 and the one-shot CLI"

echo "follow-smoke: gating small-commit economics..."
"$dir/jmake-bench" -reactive-check $WS -reactive-commits 40 -max-ratio 0.30

echo "follow-smoke: OK"
