#!/usr/bin/env bash
#===-- scripts/serve_smoke.sh - Daemon end-to-end smoke --------------------===#
#
# Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
#
# Drives the real driver binary in `--serve` mode through a pipe:
# load -> query -> lint -> edit -> query -> metrics -> shutdown, one JSON
# request per line (docs/SERVE.md).  Asserts a clean exit, one reply line
# per request, and the expected ok/result shape for every verb — the edit
# must install epoch 2 and the follow-up query must answer from it.
# Registered as the `serve_smoke` ctest (label `serve-smoke`) so it also
# runs under the ASan/UBSan and TSan presets in scripts/ci.sh.  The
# session runs once with one lane and once with four, where the request
# workers share the process-wide lane pool.
#
# Usage: scripts/serve_smoke.sh <path-to-stcfa>
#
#===------------------------------------------------------------------------===#

set -euo pipefail
bin="${1:?usage: serve_smoke.sh <path-to-stcfa>}"

smoke_session() {
  local threads=$1
  set +e
  # Top-level `let ...;` items so the edit verb has definitions to target.
  out=$(printf '%s\n' \
    '{"id":1,"verb":"load","params":{"source":"let compose = fn f => fn g => fn x => f (g x); let inc = fn a => a + 1; compose inc inc 0"}}' \
    '{"id":2,"verb":"query","params":{"kind":"labels"}}' \
    '{"id":3,"verb":"query","params":{"kind":"all-labels"}}' \
    '{"id":4,"verb":"lint"}' \
    'this line is not JSON' \
    '{"id":5,"verb":"edit","params":{"op":"replace","name":"inc","text":"let inc = fn a => a + 2;"}}' \
    '{"id":6,"verb":"query","params":{"kind":"labels"}}' \
    '{"id":7,"verb":"metrics"}' \
    '{"id":8,"verb":"shutdown"}' \
    | "$bin" --serve --threads="$threads")
  status=$?
  set -e

  echo "$out"
  [ "$status" -eq 0 ] || { echo "serve-smoke: daemon exited $status" >&2; exit 1; }

  # One reply line per request (the garbage line gets a structured error).
  lines=$(printf '%s\n' "$out" | wc -l)
  [ "$lines" -eq 9 ] || { echo "serve-smoke: expected 9 replies, got $lines" >&2; exit 1; }

  # A here-string, not a pipe: `grep -q` exits at its first match, and under
  # pipefail the writer's SIGPIPE would fail a check that matched.
  check() { grep -q -- "$1" <<<"$out" \
    || { echo "serve-smoke: missing $1" >&2; exit 1; }; }

  check '"id":1,"ok":true'          # load accepted
  check '"epoch":1'                 # first epoch installed
  check '"id":2,"ok":true'          # labels query answered
  check '"id":3,"ok":true'          # all-labels answered
  check '"id":4,"ok":true'          # lint ran
  check '"id":null,"ok":false'      # garbage -> structured error, not a crash
  check '"code":"invalid-argument"'
  check '"id":5,"ok":true'          # edit accepted after the error
  check '"epoch":2'                 # edit installed a fresh epoch
  check '"mode":"delta"'            # ...via the incremental path
  check '"id":6,"ok":true'          # query answers from the edited epoch
  check '"id":7,"ok":true'          # metrics still served
  check '"serve.requests"'
  check '"serve.edits"'             # the edit counter is exported
  check '"id":8,"ok":true'          # clean shutdown reply
  check '"shutdown":true'
}

for threads in 1 4; do
  smoke_session "$threads"
done
echo "serve-smoke: ok"
