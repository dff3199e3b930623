#!/usr/bin/env bash
#===-- scripts/render_smoke.sh - All-labels render parity smoke -----------===#
#
# Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
#
# Every path that renders `--query=all-labels` must print the same bytes:
# the StandardCFA reference, the label-set kernel (threshold 1) on one
# and on two lanes, per-query BFS (threshold 0), the governed batch
# (--timeout-ms), the run that also writes a snapshot, and the run served
# from that snapshot.  The renderer formats each distinct label set once,
# so the corpora include cubic:30, whose kernel matrix holds more rows
# than distinct sets.  A failed stdout write must exit 1 with an error,
# never 0 with cut-short output.
#
# Usage: scripts/render_smoke.sh <path-to-stcfa>
#
#===------------------------------------------------------------------------===#

set -euo pipefail
bin="${1:?usage: render_smoke.sh <path-to-stcfa>}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for corpus in skewed:96 deep:64 cubic:30; do
  in=(--corpus="$corpus" --query=all-labels)
  "$bin" "${in[@]}" --analysis=standard >"$tmp/ref"
  test -s "$tmp/ref"
  "$bin" "${in[@]}" --kernel-threshold=1 >"$tmp/kernel"
  "$bin" "${in[@]}" --kernel-threshold=1 --threads=2 >"$tmp/kernel2"
  "$bin" "${in[@]}" --kernel-threshold=0 >"$tmp/bfs"
  "$bin" "${in[@]}" --timeout-ms=600000 >"$tmp/governed"
  "$bin" "${in[@]}" --save-snapshot="$tmp/s.snap" >"$tmp/saving"
  "$bin" "${in[@]}" --load-snapshot="$tmp/s.snap" >"$tmp/loaded"
  for run in kernel kernel2 bfs governed saving loaded; do
    cmp "$tmp/ref" "$tmp/$run" || {
      echo "render-smoke: $corpus: $run differs from --analysis=standard"
      exit 1
    }
  done
done

# A full device fails the write: exit 1 and say so on stderr.
for mode in "--query=all-labels" "--lint --lint-format=json"; do
  code=0
  # shellcheck disable=SC2086 # $mode is two words on purpose
  "$bin" --corpus=skewed:64 $mode >/dev/full 2>"$tmp/err" || code=$?
  if [ "$code" -ne 1 ] || ! grep -q '^error: writing output: ' "$tmp/err"; then
    echo "render-smoke: $mode to /dev/full exited $code:"
    cat "$tmp/err"
    exit 1
  fi
done

echo "render-smoke: ok"
