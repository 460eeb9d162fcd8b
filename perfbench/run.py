#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The harness and the library sources under src/ are compiled into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on the first
run. The last line of standard output is the result JSON; see README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "wide_sweep", "cluster_traffic", "failure_runs")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures and builds the harness; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "mepipe.h")):
        raise RuntimeError("library sources not found under " + os.path.join(ROOT, "src"))
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def run(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs the harness; returns (exit code, stdout)."""
    proc = subprocess.run([binary, "--root", ROOT] + args, stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    return proc.returncode, proc.stdout


def result_of(stdout):
    """The result object on the last line of the harness's output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("unexpected result keys: %s" % sorted(result))
    return result


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2

    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(), "traces")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--trace-out", os.path.join(spans, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        code, stdout = run(binary, cmd)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    if code != 0:
        sys.stderr.write(stdout)
        print("perfbench: harness exited with %d" % code, file=sys.stderr)
        return code

    try:
        result = result_of(stdout)
        expected = expected_metrics(args.trace)
        if expected is not None and sorted(result["metrics"]) != sorted(expected):
            raise ValueError("metrics differ from BENCHMARK.json")
    except ValueError as err:
        print("perfbench: bad result: %s" % err, file=sys.stderr)
        return 4
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
