#!/usr/bin/env python3
"""Steadiness report: how much each end-to-end metric moves across seeds.

    python3 perfbench/steadiness.py                      # every workload
    python3 perfbench/steadiness.py --workloads paper_qi --seeds 5

Runs perfbench/run.py once per (workload, seed), each in a fresh process,
then once more per workload on the held-out seed 9001. For every
end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median, and the
metric's bound from BENCHMARK.json. A spread above its bound is marked
UNSTEADY: a later change to that metric on that workload cannot be told
apart from noise and must be reported as unresolved, not unchanged. The
held-out seed's value is shown as a ratio to the median. Exits 1 if any
metric is unsteady.

Run from the repository root.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 9001


def load_config():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    cfg = load_config()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in cfg["workloads"]))
    p.add_argument("--seeds", type=int, default=10,
                   help="seeds 1..N are measured")
    p.add_argument("--seconds", type=int, default=cfg["run_seconds"])
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    unsteady = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            res = run_once(workload, seed, args.seconds)
            runs.append(res)
            print(f"  {workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}", file=sys.stderr, flush=True)
        held = run_once(workload, HELD_OUT_SEED, args.seconds)

        print(f"== {workload}: {len(runs)} seeds, {args.seconds} s each ==")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  {'held-out/median':>15}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else math.inf
            mark = ""
            if spread > bounds[name]:
                mark = "UNSTEADY"
                unsteady += 1
            ratio = held["metrics"][name]["value"] / med if med else math.inf
            print(f"  {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.2%} {bounds[name]:>6.2f}  {ratio:>15.3f} {mark}")
        failed = sum(r["failed"] for r in runs)
        print(f"  failed ops across runs: {failed}")

    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
