#!/usr/bin/env python3
"""Repo benchmark: builds the perfbench binary from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Workloads: scan, funnel, ingest_mix (see perfbench/METRICS.md). The
binary is configured and built under .bench_build/perfbench on first use;
later runs only re-check that it is up to date. Traces, snapshots and run
records go under .bench_build/perfbench-out. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is non-zero when the build fails, the run fails, or any
ranking is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("scan", "funnel", "ingest_mix")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return 1


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code = run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if code != 0:
            return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "-j", jobs], BUILD_TIMEOUT_S) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: no result line (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
