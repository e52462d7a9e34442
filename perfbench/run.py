#!/usr/bin/env python3
"""Suite benchmark: how long the profiler takes from ir::Module to full_report.

Run from the repository root:

    python3 perfbench/run.py --workload feedback --seed 1 --seconds 10 --trace 0

The script builds perfbench/suite_bench and the profiler libraries it links
from source (CMake, Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs it on the workload. One pass profiles every
program of the workload once and renders its full_report. The last line of
stdout is one JSON object with "correct", "attempted", "failed", "metrics":

  --trace 0  end-to-end metrics, profiler tracing off:
               pass_ms  the median pass: each program's median
                        Module->report time over the measured passes,
                        summed over the workload's programs
               setup_s  median, over SETUP_PROCESSES fresh processes, of the
                        time to build the programs and produce a first
                        report for each one
  --trace 1  per-layer metrics, from a run with the profiler's pp::obs
             tracing on: the median over passes of each stage's span time,
             of suite_bench's own spans around Pipeline::run and full_report,
             and of the pipeline counters (the names are listed in
             suite_bench.cpp; times end in _ms, the rest are counts)

Workloads: feedback, ddg, scaled, transform (see suite_bench.cpp). A run
counts as correct when every report matches the set-up pass and both
references (a plain VM run and a profile with path compaction off). The
script exits non-zero without printing a result when the build or any run
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up is timed once in the measuring process and once in each of the
# other fresh processes; setup_s is the median.
SETUP_PROCESSES = 5
RUN_TIMEOUT_S = 150


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(1)


def build():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, base, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", bdir, "--target", "suite_bench", "-j", jobs]]
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", bdir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build failed: %s" % " ".join(cmd))
    return os.path.join(bdir, "suite_bench")


def run(cmd):
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: %s" % " ".join(cmd))
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("exit code %d: %s" % (p.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    base = [exe, "--workload", args.workload, "--seed", str(args.seed)]
    main_run = run(base + ["--seconds", str(args.seconds),
                           "--trace", str(args.trace)])
    runs = [main_run]
    if args.trace == 0:
        runs += [run(base + ["--trace", "0", "--setup-only"])
                 for _ in range(SETUP_PROCESSES - 1)]
        metrics = {
            "pass_ms": {"value": sum(statistics.median(v) for v in
                                     main_run["program_ms"].values()),
                        "unit": "ms"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in runs),
                        "unit": "s"},
        }
    else:
        metrics = {name: {"value": statistics.median(v),
                          "unit": "ms" if name.endswith("_ms") else "count"}
                   for name, v in main_run["layers"].items()}

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
