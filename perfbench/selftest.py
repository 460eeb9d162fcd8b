#!/usr/bin/env python3
"""Self-test of the benchmark harness, at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that every workload runs clean in both modes and prints every
metric BENCHMARK.json lists, that a corrupted reference answer and a
flipped event-log byte each show up as failed requests, that the
simulated metrics repeat exactly for a fixed seed, and that the traced
run writes its span file. Exits non-zero on the first failed check.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def harness(binary, workload, *extra, seed=7, trace=0):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
            "--trace", str(trace), "--tiny"] + list(extra)
    code, stdout = bench.run(binary, args)
    if code != 0:
        raise AssertionError("%s %s exited with %d" % (workload, extra, code))
    return stdout, bench.result_of(stdout)


def simulated(stdout):
    """The '(simulated)' summary lines as {name: value text}."""
    out = {}
    for line in stdout.splitlines():
        if line.endswith("(simulated)"):
            name, value = line.split()[:2]
            out[name] = value
    return out


def check(condition, what):
    if not condition:
        raise AssertionError(what)
    print("ok  " + what)


def main():
    binary = bench.build()
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            stdout, result = harness(binary, workload, trace=trace)
            expected = bench.expected_metrics(trace)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  "%s trace=%d: %d requests, none failed" % (workload, trace,
                                                             result["attempted"]))
            check(expected is None or sorted(result["metrics"]) == sorted(expected),
                  "%s trace=%d: every listed metric present" % (workload, trace))
        first, _ = harness(binary, workload)
        again, _ = harness(binary, workload)
        check(simulated(first) and simulated(first) == simulated(again),
              "%s: simulated metrics repeat exactly %s" % (workload, simulated(first)))
        other, _ = harness(binary, workload, seed=8)
        print("    seed 8 gives %s" % simulated(other))

    _, result = harness(binary, "paper_grid", "--inject", "corrupt_reference")
    check(result["failed"] >= 1 and not result["correct"],
          "corrupted reference answer counts as a failed request")
    _, result = harness(binary, "cluster_traffic", "--inject", "flip_log")
    check(result["failed"] >= 1 and not result["correct"],
          "flipped event-log byte counts as failed requests")

    spans = os.path.join(bench.build_dir(), "traces", "selftest.json")
    harness(binary, "failure_runs", "--trace-out", spans, trace=1)
    with open(spans) as f:
        events = json.load(f)
    check(any("elastic.PriceElasticShapes" in e["name"] for e in events),
          "traced run wrote %d spans to %s" % (len(events), spans))

    # Not a check: the engine-grounded straggler cells fail at this
    # revision (README.md, "Known failures"). Report where they stand.
    _, result = harness(binary, "failure_runs", "--known-failures")
    print("    failure_runs --known-failures: %d of %d requests failed"
          % (result["failed"], result["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
