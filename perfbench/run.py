#!/usr/bin/env python3
"""End-to-end benchmark of stcfa: builds the program and the harness from
this checkout, runs one workload, and prints the result as the last line.

    python3 perfbench/run.py --workload batch-all-labels --seed 1 \
        --seconds 10 --trace 0

Workloads, metrics and their meaning: perfbench/README.md.  The build tree
is `.bench_build` at the checkout root (or $CARGO_TARGET_DIR when set);
every result is also appended, stamped with its provenance, to
`<build>/results.jsonl`.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS_TIMEOUT_S = 170


def fail(code, message):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode == 0


def build(bdir):
    """Builds the `stcfa` CLI (the repository's default build) and the harness
    that links the same libraries; a no-op when both are up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    stcfa_dir = os.path.join(bdir, "stcfa")
    ledger_dir = os.path.join(bdir, "ledger")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(os.path.join(bdir, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(stcfa_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", ROOT, "-B", stcfa_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", stcfa_dir, "--target", "stcfa", "-j", jobs])
        if not os.path.exists(os.path.join(ledger_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", ledger_dir,
                          "-DSTCFA_BUILD_DIR=" + stcfa_dir])
        steps.append(["cmake", "--build", ledger_dir, "-j", jobs])
        for cmd in steps:
            if not run_logged(cmd, log):
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(4, "build failed; full log in " + log_path)
    return (os.path.join(stcfa_dir, "src", "driver", "stcfa"),
            os.path.join(ledger_dir, "stcfa_ledger"))


def source_digest():
    """sha256 over the program's sources, standing in for the git sha where
    the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(top, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["batch-all-labels", "batch-lint", "serve-editor"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail(2, "--seed must be >= 0 and --seconds > 0")

    for needed in ("CMakeLists.txt", "src/driver/Main.cpp", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(2, "no stcfa sources to build: %s is missing" % needed)

    bdir = build_dir()
    stcfa, harness = build(bdir)
    work = os.path.join(bdir, "work", args.workload)
    trace_out = os.path.join(bdir, "traces", "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--stcfa", stcfa, "--workdir", work, "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(5, "harness exceeded %d s" % HARNESS_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(proc.returncode or 3, "harness failed (exit %d)" % proc.returncode)

    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(6, "malformed result line")
    want = expected_metrics(args.trace == "1")
    if sorted(result["metrics"]) != sorted(want):
        fail(6, "harness metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(want)))

    provenance = {}
    for line in lines[:-1]:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
        else:
            print(line)
    provenance["git_sha"] = git_sha()
    provenance["source_digest"] = source_digest()
    print("provenance " + json.dumps(provenance, sort_keys=True))
    with open(os.path.join(bdir, "results.jsonl"), "a") as f:
        f.write(json.dumps({"provenance": provenance, "result": result},
                           sort_keys=True) + "\n")
    print(lines[-1])


if __name__ == "__main__":
    main()
