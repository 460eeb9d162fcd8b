#!/usr/bin/env python3
"""Compares two checkouts on one perfbench workload in alternating pairs.

Usage:

    python3 tools/ab_pairs.py --base <checkout> --change <checkout> \\
        --workload failure_runs --seeds 101-110 --pairs 10 --seconds 20

Each pair runs `python3 perfbench/run.py` once from each checkout, one
after the other, on the same seed; even pairs run the base first and odd
pairs the change first, so slow drift of the host does not favour a side.
Seeds are taken in turn from --seeds (a range "a-b" or a list "a,b,c").

For every end-to-end metric BENCHMARK.json lists it prints the median [q1, q3] of each side, the
change of the median in percent, and in how many pairs the change was
better in the metric's declared direction. It also prints the requests
attempted and failed on each side. --json writes every run's result.

The tool only calls the harness: it builds nothing itself (run.py
compiles each checkout on its first run; a short unmeasured warm-up run
per side does that before the pairs) and changes no file of either
checkout outside its harness build tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text and "," not in text:
        first, last = (int(x) for x in text.split("-", 1))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",") if x]


def directions(checkout):
    """End-to-end metric name -> "higher"/"lower" from BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s: run.py exited with %d" % (checkout, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="checkout measured as the reference")
    parser.add_argument("--change", required=True, help="checkout measured against it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help='"101-110" or "1,2,3"')
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--json", help="write every run's result to this file")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    sides = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    better = directions(sides["base"])
    for path in sides.values():
        run_once(path, args.workload, seeds[0], 1)

    runs = {"base": [], "change": []}
    for pair in range(args.pairs):
        seed = seeds[pair % len(seeds)]
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            result["seed"] = seed
            runs[side].append(result)
        print("pair %d seed %d done" % (pair + 1, seed), file=sys.stderr)

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"args": vars(args), "runs": runs}, f, indent=1)

    print("%s, %d pairs, seeds %s, %g s runs" % (args.workload, args.pairs, args.seeds,
                                                  args.seconds))
    print("%-34s %-34s %-34s %9s %6s" % ("metric", "base median [q1, q3]",
                                          "change median [q1, q3]", "change", "wins"))
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        b_q1, b_med, b_q3 = quartiles(values["base"])
        c_q1, c_med, c_q3 = quartiles(values["change"])
        delta = (c_med - b_med) / b_med * 100.0 if b_med else float("nan")
        wins = sum(1 for b, c in zip(values["base"], values["change"])
                   if (c > b if direction == "higher" else c < b))
        print("%-34s %-34s %-34s %+8.1f%% %3d/%d" % (
            name, "%.6g [%.6g, %.6g]" % (b_med, b_q1, b_q3),
            "%.6g [%.6g, %.6g]" % (c_med, c_q1, c_q3), delta, wins, args.pairs))
    for side in ("base", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        correct = all(r["correct"] for r in runs[side])
        print("%s: %d attempted, %d failed, correct=%s" % (side, attempted, failed, correct))
    return 0


if __name__ == "__main__":
    sys.exit(main())
