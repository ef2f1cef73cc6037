#!/usr/bin/env python3
"""Steadiness of the engine benchmark: repeated runs, spreads, and set-vs-set
comparison against the bounds in BENCHMARK.json.

    # Run every workload once per seed and save the set:
    python3 perfbench/steady.py run --seeds 1-10 --save perfbench/out/set-a.json
    python3 perfbench/steady.py run --workloads wire_reads --seeds 1-5

    # Print medians, quartiles and spreads of a saved set:
    python3 perfbench/steady.py show perfbench/out/set-a.json

    # Compare two sets of the same code against the bounds:
    python3 perfbench/steady.py compare perfbench/out/set-a.json perfbench/out/set-b.json

The spread of a metric is (q3 - q1) / median over its runs, with the
quartiles of statistics.quantiles(values, n=4). A set is steady when every
end-to-end spread except setup_s's is within a third of the metric's bound.
Two sets agree when every spread is within its bound, no metric's second
median is worse than the first by more than its bound, and the share of
failed operations is identical.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(spec, workload, seed, trace):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s seed %d\n%s"
                 % (done.returncode, workload, seed, done.stdout[-2000:]))
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def metric_defs(spec):
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def show(spec, runs):
    defs = metric_defs(spec)
    steady = True
    for workload, results in runs.items():
        fails = sorted({r["failed"] / r["attempted"] for r in results})
        print("== %s: %d runs, correct=%s, failed share=%s"
              % (workload, len(results), all(r["correct"] for r in results),
                 fails))
        print("   %-34s %14s %14s %14s %8s %7s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            if len(values) < 2:
                print("   %-34s %14.4f %s" % (name, values[0], unit))
                continue
            med, q1, q3, sp = spread(values)
            bound = defs.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                if sp > bound / 3:
                    flag = "  WIDE"
                    steady = False
            print("   %-34s %14.4f %14.4f %14.4f %8.4f %7s%s %s"
                  % (name, med, q1, q3, sp,
                     "-" if bound is None else bound, flag, unit))
    return steady


def compare(spec, a, b):
    defs = metric_defs(spec)
    ok = True
    for workload in a:
        if workload not in b:
            continue
        ra, rb = a[workload], b[workload]
        share_a = {r["failed"] / r["attempted"] for r in ra}
        share_b = {r["failed"] / r["attempted"] for r in rb}
        print("== %s (failed share %s vs %s)" % (workload, share_a, share_b))
        if share_a != share_b or len(share_a) != 1:
            print("   FAILED-SHARE MISMATCH")
            ok = False
        for name, d in defs.items():
            if "bound" not in d or name not in ra[0]["metrics"]:
                continue
            va = [r["metrics"][name]["value"] for r in ra]
            vb = [r["metrics"][name]["value"] for r in rb]
            ma, _, _, sa = spread(va)
            mb, _, _, sb = spread(vb)
            worse = (mb - ma) / ma if d["better"] == "lower" else (ma - mb) / ma
            verdict = "ok"
            if worse > d["bound"]:
                verdict = "WORSE"
            if name != "setup_s" and max(sa, sb) > d["bound"]:
                verdict = "SPREAD"
            ok &= verdict == "ok"
            print("   %-24s %14.4f %14.4f worse=%+7.4f spread=%.4f/%.4f "
                  "bound=%.2f %s" % (name, ma, mb, worse, sa, sb, d["bound"],
                                     verdict))
    print("AGREE" if ok else "DISAGREE")
    return ok


def main():
    ap = argparse.ArgumentParser(description="benchmark steadiness")
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", default="")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--trace", type=int, default=0, choices=(0, 1))
    r.add_argument("--save", default="")
    s = sub.add_parser("show")
    s.add_argument("set")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    spec = load_spec()

    if args.cmd == "run":
        names = args.workloads.split(",") if args.workloads else \
            [w["name"] for w in spec["workloads"]]
        runs = {}
        for name in names:
            runs[name] = []
            for seed in parse_seeds(args.seeds):
                runs[name].append(run_once(spec, name, seed, args.trace))
                print("%s seed %d done" % (name, seed), file=sys.stderr)
        if args.save:
            with open(args.save, "w") as f:
                json.dump(runs, f, indent=1)
        sys.exit(0 if show(spec, runs) else 1)
    with open(args.set if args.cmd == "show" else args.first) as f:
        first = json.load(f)
    if args.cmd == "show":
        sys.exit(0 if show(spec, first) else 1)
    with open(args.second) as f:
        second = json.load(f)
    sys.exit(0 if compare(spec, first, second) else 1)


if __name__ == "__main__":
    main()
