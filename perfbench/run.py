#!/usr/bin/env python3
"""Build and run one benchmark workload; print one JSON result line.

    python3 perfbench/run.py --workload synth_popular --seed 1 --seconds 25 --trace 0

Run from the root of the repository.  The benchmark executable is built
from source with dune (``perfbench/`` is its own dune project and links
the repository's libraries).

With ``--trace 0`` a run is ``PROCESSES`` fresh processes, each setting
up and then timing its share of the op budget.  Every distinct op is
repeated many times over the run, and its ``KEEP`` fastest repetitions
are its latency samples.  ``p50_ms`` and ``p90_ms`` are nearest-rank
over those samples, ``ops_per_s`` is the closed loop's throughput at
them (in-flight requests over their mean latency), ``setup_s`` is the
median set-up time and ``peak_rss_mb`` the largest process peak.  With
``--trace 1`` one process with the same share reports the per-layer
metrics.

Exits non-zero without printing a result when the build or the run
fails.  The build writes ``_build/``; everything a run writes goes
under ``_perfbench_runs/``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("synth_popular", "scan_resident", "serve_churn")
PROCESSES = 2
# Latency samples per distinct op: its fastest repetitions.
KEEP = 5
# p90 must leave at least ten samples beyond it.
MIN_OPS = 100
# A first build in a fresh checkout may take minutes; the processes of
# a run then get their own allowance.
BUILD_LIMIT_S = 600
TIME_LIMIT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time")
    return left


def build():
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run_process(args, deadline):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / PROCESSES),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("run failed with code %d" % proc.returncode)
    return json.loads(lines[-1])


def nearest_rank(sorted_values, p):
    rank = math.ceil(p / 100 * len(sorted_values))
    return sorted_values[max(0, min(len(sorted_values), rank) - 1)]


def fastest(parts):
    """Pool a run's processes into the end-to-end metrics.

    Every process runs the same op sequence, in which op ``i`` repeats
    the work of op ``i mod period``, so each distinct op is repeated
    many times over the run.  Its ``KEEP`` fastest repetitions are its
    latency samples, so a slowdown of the shared host that comes and
    goes within the run touches only some of them.
    """
    period = {p["period"] for p in parts}
    in_flight = {p["in_flight"] for p in parts}
    if len(period) != 1 or len(in_flight) != 1:
        fail("processes disagree on the op sequence")
    period, in_flight = period.pop(), in_flight.pop()
    reps = [[] for _ in range(period)]
    for p in parts:
        for i, x in enumerate(p["lat_ms"]):
            reps[i % period].append(x)
    if min(len(r) for r in reps) < 2 * KEEP:
        fail("every op needs %d repetitions" % (2 * KEEP))
    lat = sorted(x for r in reps for x in sorted(r)[:KEEP])
    if len(lat) < MIN_OPS:
        fail("only %d samples; p90 needs %d" % (len(lat), MIN_OPS))
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)

    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": metric(statistics.median(p["setup_s"] for p in parts), "s"),
            # A closed loop's throughput is its in-flight count over its
            # mean latency (Little's law).
            "ops_per_s": metric(in_flight * 1000 / statistics.fmean(lat), "1/s"),
            "p50_ms": metric(nearest_rank(lat, 50), "ms"),
            "p90_ms": metric(nearest_rank(lat, 90), "ms"),
            "peak_rss_mb": metric(max(p["peak_rss_mb"] for p in parts), "MB"),
        },
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.trace:
        result = run_process(args, deadline)
    else:
        result = fastest([run_process(args, deadline)
                          for _ in range(PROCESSES)])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
