#!/usr/bin/env bash
#===-- scripts/cli_parity.sh - Byte parity of two stcfa builds -------------===#
#
# Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
#
# Runs two `stcfa` binaries over the same invocations and compares stdout
# (cmp) and the exit code of each pair.  A refactor that must not change
# behaviour should report 0 differences against its parent build.
#
#   1. queries: every example program and four corpora, crossed with
#      every --analysis and every --query mode (plus --stats, --print,
#      --dump-graph and --run on a few inputs, timings masked);
#   2. lint JSON (the per-pass "millis" masked), text and SARIF lint,
#      --dce, --export-deps=dot|json and --slice;
#   3. snapshots: the --save-snapshot files themselves, --load-snapshot
#      queries, lint and slice, and --snapshot-cache miss then hit runs;
#   4. usage and conflict errors, governed runs and extra query lanes;
#   5. the daemon's replies to one load/query/lint/slice/edit session.
#
# Usage: scripts/cli_parity.sh <old-stcfa> <new-stcfa>
# Prints each differing invocation and a summary line; exits 1 when any
# pair differs.
#
#===------------------------------------------------------------------------===#

set -uo pipefail
shopt -s globstar nullglob
old="$(realpath "${1:?usage: cli_parity.sh <old-stcfa> <new-stcfa>}")"
new="$(realpath "${2:?usage: cli_parity.sh <old-stcfa> <new-stcfa>}")"
root="$(cd "$(dirname "$0")/.." && pwd)"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/old" "$tmp/new"
runs=0
diffs=0

# mask <kind> <side-dir>: stdin -> stdout with run-dependent text masked.
mask() {
  case "$1" in
    millis) sed -E 's/"millis": [0-9.]+/"millis": _/g' ;;
    stats) sed -E -e "s#$2#@D@#g" -e 's/[0-9]+\.[0-9]+ ms/_ ms/g' \
             -e 's/"millis":[0-9.]+/"millis":_/g' ;;
    *) cat ;;
  esac
}

# check <mask> <args...>: runs both binaries (in their own directory, with
# @D@ in the arguments standing for it) and compares stdout + exit code.
check() {
  local kind=$1 side code_old code_new
  shift
  runs=$((runs + 1))
  for side in old new; do
    local bin="$old" dir="$tmp/$side"
    [[ $side == new ]] && bin="$new"
    local args=("${@//@D@/$dir}")
    (cd "$dir" && "$bin" "${args[@]}" </dev/null 2>/dev/null |
      mask "$kind" "$dir" >"$tmp/$side.out"
     exit "${PIPESTATUS[0]}")
    eval "code_$side=\$?"
  done
  if [[ $code_old != "$code_new" ]] || ! cmp -s "$tmp/old.out" "$tmp/new.out"
  then
    diffs=$((diffs + 1))
    echo "DIFF (exit $code_old vs $code_new): stcfa $*"
  fi
}

# same_file <path>: the two sides wrote byte-identical files.
same_file() {
  runs=$((runs + 1))
  if ! cmp -s "$tmp/old/$1" "$tmp/new/$1"; then
    diffs=$((diffs + 1))
    echo "DIFF (file): $1"
  fi
}

inputs=()
for f in "$root"/examples/**/*.stml; do
  inputs+=("$f")
done
for c in cubic:50 deep:64 skewed:96 lexgen; do
  inputs+=("--corpus=$c")
done
analyses=(standard unify subtransitive poly hybrid)
queries=(labels all-labels effects called-once callgraph dead-code klimited:2)

# 1. queries
for in in "${inputs[@]}"; do
  for a in "${analyses[@]}"; do
    for q in "${queries[@]}"; do
      check none "$in" --analysis="$a" --query="$q"
    done
    check stats "$in" --analysis="$a" --stats
  done
done
for in in "$root/examples/lint/dead_function.stml" --corpus=cubic:50; do
  check none "$in" --print --run
  check none "$in" --dump-graph
  check none "$in" --analysis=unify --dump-graph
  check stats "$in" --analysis=hybrid --degrade=partial --stats
done

# 2. lint and the slice modes
for in in "${inputs[@]}"; do
  for a in subtransitive poly; do
    check millis "$in" --analysis="$a" --lint --lint-format=json
    check none "$in" --analysis="$a" --lint
    check none "$in" --analysis="$a" --dce
    check none "$in" --analysis="$a" --export-deps=dot
    check none "$in" --analysis="$a" --export-deps=json
    for spec in expr@2:14 expr@4:1,fwd expr@1:1 expr@99:1; do
      check none "$in" --analysis="$a" --slice="$spec"
    done
  done
done
check none "$root/examples/lint/dead_function.stml" --lint=dead-function,called-once
check millis "$root/examples/lint/dead_function.stml" --lint --lint-format=sarif

# 3. snapshots
n=0
for in in "${inputs[@]}"; do
  n=$((n + 1))
  check none "$in" --query=all-labels --save-snapshot=@D@/s$n.snap
  same_file "s$n.snap"
  check none --load-snapshot=@D@/s$n.snap --query=all-labels
  check stats --load-snapshot=@D@/s$n.snap --query=labels --stats
  check millis "$in" --load-snapshot=@D@/s$n.snap --lint --lint-format=json
  check none "$in" --load-snapshot=@D@/s$n.snap --export-deps=json
  check stats "$in" --snapshot-cache=@D@/cache$n --query=all-labels --stats
  check stats "$in" --snapshot-cache=@D@/cache$n --query=all-labels --stats
  check none "$in" --snapshot-cache=@D@/cache$n --query=labels
done

# 4. flag handling, governed runs and lanes (flag-value errors that exit
# 2 on purpose are scripts/flag_errors_smoke.sh's business, not parity's)
ex="$root/examples/lint/dead_function.stml"
while read -r line; do
  # shellcheck disable=SC2086
  check none $line
done <<EOF_CASES
--help
$ex $ex
$ex --bogus
$ex --lint=
$ex --slice=
--serve --query=labels
--load-snapshot=/nonexistent.snap --close-budget=10
--load-snapshot=/nonexistent.snap --query=labels
--snapshot-cache --analysis=hybrid --degrade=standard
$ex --analysis=hybrid --degrade=off --timeout-ms=5
$ex --lint-format=json
$ex --dce --export-deps=dot
$ex --analysis=standard --lint
--gen-shape=diamond:3
--gen-shape=wide:0
--corpus=bogus
--corpus=cubic:30 --query=all-labels --threads=2
--corpus=skewed:64 --query=all-labels --timeout-ms=600000
--corpus=cubic:30 --query=all-labels --kernel-threshold=1 --kernel-chunk-rows=1
--corpus=cubic:30 --close-budget=10
--corpus=cubic:30 --analysis=poly --close-budget=10
--corpus=cubic:30 --analysis=standard --timeout-ms=0
--corpus=cubic:30 --analysis=hybrid --degrade=off
--corpus=random:7 --query=all-labels --congruence=none --policy=nodeexists
--corpus=cubic:8 --congruence=bybase --query=all-labels
$ex --frozen --query=callgraph
EOF_CASES

# 5. daemon replies (sorted by id: queries answer on worker threads) for
# the default ladder, both --degrade modes and the snapshot cache (a
# cold pass fills it, a warm pass hits it)
cat >"$tmp/requests" <<'EOF_REQS'
{"id":1,"verb":"load","params":{"source":"let f0 = fn x => x;\nlet f1 = fn y => f0 y;\nlet f2 = fn z => f1 (f0 z);\nf2 (fn w => w)\n"}}
{"id":2,"verb":"query","params":{"kind":"all-labels"}}
{"id":3,"verb":"query","params":{"kind":"occurrences","label":0}}
{"id":4,"verb":"query","params":{"kind":"is-label-in","expr":3,"label":1}}
{"id":5,"verb":"lint"}
{"id":6,"verb":"slice","params":{"dir":"back","witness":true}}
{"id":7,"verb":"edit","params":{"op":"replace","name":"f1","text":"let f1 = fn y => f0 (f0 y);"}}
{"id":8,"verb":"query","params":{"kind":"all-labels"}}
{"id":9,"verb":"lint"}
{"id":10,"verb":"slice","params":{"dir":"fwd","expr":2}}
{"id":11,"verb":"edit","params":{"op":"insert","text":"let h = fn q => q;"}}
{"id":12,"verb":"query","params":{"kind":"labels"}}
{"id":13,"verb":"load","params":{"source":"let x = in x"}}
{"id":14,"verb":"load","params":{"source":"data FList = FNil | FCons(Int -> Int, FList);\nletrec map = fn f => fn l => case l of FNil => FNil | FCons(h, t) => FCons(f h, map f t) end in map (fn g => g) (FCons(fn x => x + 1, FNil))"}}
{"id":15,"verb":"query","params":{"kind":"all-labels"}}
{"id":16,"verb":"query","params":{"kind":"occurrences","label":0}}
{"id":17,"verb":"lint"}
{"id":18,"verb":"slice"}
{"id":19,"verb":"shutdown"}
EOF_REQS
for mode in "" --degrade=partial --degrade=off \
            --snapshot-cache=@D@/serve-cache; do
  for pass in cold warm; do
    runs=$((runs + 1))
    for side in old new; do
      bin="$old"
      [[ $side == new ]] && bin="$new"
      # shellcheck disable=SC2086
      "$bin" --serve ${mode//@D@/$tmp/$side} <"$tmp/requests" 2>/dev/null |
        sort >"$tmp/$side.serve"
    done
    if ! cmp -s "$tmp/old.serve" "$tmp/new.serve"; then
      diffs=$((diffs + 1))
      echo "DIFF (daemon replies): stcfa --serve $mode ($pass)"
    fi
  done
done

echo "cli-parity: $diffs difference(s) over $runs comparison(s)"
[[ $diffs == 0 ]]
