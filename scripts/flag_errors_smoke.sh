#!/usr/bin/env bash
#===-- scripts/flag_errors_smoke.sh - Flag-value errors exit 2, do nothing -===#
#
# Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
#
# Every malformed flag value must be rejected by validation, before any
# input is read: exit code 2, nothing on stdout, and no snapshot file or
# cache directory written.  Covers the numeric flags (garbage, empty,
# past 2^64, past their documented bound — `--threads` is capped at 256),
# the numeric parts of `--corpus` and `--query=klimited:K`, the
# `--slice` position, and unknown `--analysis/--congruence/--policy/
# --query` values combined with output-producing flags.
#
# Usage: scripts/flag_errors_smoke.sh <path-to-stcfa> <program.stml>
#
#===------------------------------------------------------------------------===#

set -uo pipefail
bin="$(realpath "${1:?usage: flag_errors_smoke.sh <path-to-stcfa> <program.stml>}")"
src="$(realpath "${2:?usage: flag_errors_smoke.sh <path-to-stcfa> <program.stml>}")"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
huge=99999999999999999999 # > 2^64
fails=0

# expect_usage_error <args...>: exit 2, empty stdout, nothing written.
expect_usage_error() {
  local out="$tmp/stdout" code
  (cd "$tmp/work" && "$bin" "$@" >"$out" 2>/dev/null)
  code=$?
  if [[ $code != 2 ]]; then
    echo "flag-errors-smoke: 'stcfa $*' exited $code, want 2"
    fails=$((fails + 1))
  fi
  if [[ -s $out ]]; then
    echo "flag-errors-smoke: 'stcfa $*' wrote to stdout"
    fails=$((fails + 1))
  fi
  if [[ -n $(ls -A "$tmp/work") ]]; then
    echo "flag-errors-smoke: 'stcfa $*' left files: $(ls -A "$tmp/work")"
    fails=$((fails + 1))
    rm -rf "$tmp/work"
  fi
  mkdir -p "$tmp/work"
}
mkdir -p "$tmp/work"

# Numeric flag values: garbage, empty, overflowing or past the bound.
for flag in timeout-ms kernel-threshold kernel-chunk-rows close-budget \
            threads snapshot-cache-max-mb serve-max-cost \
            serve-max-request-mb; do
  expect_usage_error "$src" "--$flag=abc"
  expect_usage_error "$src" "--$flag="
  expect_usage_error "$src" "--$flag=$huge"
  expect_usage_error "$src" "--$flag=-1"
done
expect_usage_error "$src" --threads=257
expect_usage_error "$src" --serve-max-request-mb=17592186044416
expect_usage_error "$src" --snapshot-cache-max-mb=17592186044416
expect_usage_error "$src" --kernel-chunk-rows=4294967296

# Numeric parts of corpus specs, klimited:K and the slice position.
for corpus in cubic:abc lexgen:x random:x joinpoint: cubic:$huge; do
  expect_usage_error "--corpus=$corpus"
done
for q in klimited:abc klimited: klimited:$huge klimited:-2; do
  expect_usage_error "$src" "--query=$q"
done
for spec in expr@99999999999:1 expr@1:99999999999 expr@1: expr@:1 \
            expr@1:2:3 expr@1:2,sideways; do
  expect_usage_error "$src" "--slice=$spec"
done

# Unknown enumerated values are rejected before the pipeline runs: no
# program/type statistics, no snapshot, no cache directory.
for bad in --analysis=bogus --congruence=bogus --policy=bogus \
           --query=bogus; do
  expect_usage_error "$src" "$bad"
  expect_usage_error "$src" "$bad" --stats
  expect_usage_error "$src" "$bad" --print
  expect_usage_error "$src" "$bad" --save-snapshot=x.snap
done
expect_usage_error "$src" --congruence=bogus --snapshot-cache=cache
expect_usage_error "$src" --policy=bogus --snapshot-cache=cache
expect_usage_error "$src" --degrade=sideways --analysis=hybrid --stats

if [[ $fails == 0 ]]; then
  echo "flag-errors-smoke: ok"
else
  echo "flag-errors-smoke: $fails failure(s)"
  exit 1
fi
