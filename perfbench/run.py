#!/usr/bin/env python3
"""Builds the engine benchmark from this checkout and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: wire_reads, wire_durable_mix, embedded_scan (see README.md).
The first call configures and builds perfbench/build (Release) from the
engine sources in src/, then runs the oracle's self-test; later calls only
rebuild what changed. Build output goes to stderr. The benchmark's run
report goes to stdout; its last line is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is the
benchmark's: 0 when every answer was correct.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("wire_reads", "wire_durable_mix", "embedded_scan")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "adaptive_index.h")):
        fail("engine sources not found in %s/src" % ROOT)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail("%s not found" % tool)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    steps.append([os.path.join(BUILD, "oracle_test")])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("timed out: " + " ".join(cmd))
        if done.returncode != 0:
            fail("failed (exit %d): %s" % (done.returncode, " ".join(cmd)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--clients", type=int, default=0, choices=range(0, 65), metavar="K",
                    help="closed-loop clients (default: the workload's own)")
    ap.add_argument("--cores", type=int, default=1, choices=range(0, 1025), metavar="C",
                    help="cores the run may use (default: 1; 0: all)")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds within 1..120")

    build()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--clients", str(args.clients),
           "--cores", str(args.cores), "--out", OUT]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
