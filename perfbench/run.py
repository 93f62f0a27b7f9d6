#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload registry --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --short

The build goes to .bench_build/perfbench (the jrpm libraries from src/ plus
the jrpm-perfbench runner); the first run builds, later runs only check that
the build is up to date. The last line of standard output is jrpm-perfbench's
JSON result. --short runs every workload briefly in both modes and prints
every metric with its unit, checked against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "jrpm-perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("registry", "tracer-sweep", "corpus")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to perfbench/: run from a full checkout")
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", BUILD, "-j", "4"]):
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_bench(workload, seed, seconds, trace, expected=EXPECTED):
    """Runs one workload; returns (result dict, stdout lines)."""
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--expected", expected,
           "--scratch", os.path.join(BUILD, "scratch")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        fail("%s failed with exit code %d" % (workload, proc.returncode))
    return json.loads(lines[-1]), lines


def short():
    """One pass of every workload in both modes; every metric checked."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run_bench(workload, 1, 0, trace)
            ok &= result["correct"] and result["failed"] == 0
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    print("MISSING %s %s" % (workload, m["name"]))
                    ok = False
                    continue
                print("%-13s %-24s %16.6g %s" % (workload, m["name"],
                                                 got["value"], got["unit"]))
    print("short mode: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--expected", default=EXPECTED,
                   help="expected per-job digests (default: perfbench/expected.json)")
    p.add_argument("--short", action="store_true",
                   help="run every workload briefly and print every metric")
    args = p.parse_args()
    if not args.short and not args.workload:
        p.error("--workload or --short is required")
    start = time.monotonic()
    build()
    print("perfbench: build ready in %.1f s" % (time.monotonic() - start),
          file=sys.stderr)
    if args.short:
        return short()
    _, lines = run_bench(args.workload, args.seed, args.seconds, args.trace,
                          args.expected)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
