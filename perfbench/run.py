#!/usr/bin/env python3
"""The crackdb benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload paper_qi --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (the crackdb library plus
the `crackbench` program) into $CARGO_TARGET_DIR, or .bench_build by
default, then runs the workload in a fresh process:

  --trace 0  one untraced run; reports the end-to-end metrics.
  --trace 1  an untraced run, then a traced run (every query built with
             Trace()); reports the per-layer metrics, and the traced run's
             spans are written to <build dir>/spans/.

A human-readable report goes to stdout first; the last stdout line is the
JSON result. Exits non-zero when the build fails or an answer is wrong.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = "crackbench"
# Both crackbench runs of one invocation must finish within this many
# seconds.
TIME_LIMIT_S = 170


def load_metrics():
    """(name, unit) of the end-to-end and per-layer metrics, in report order,
    from BENCHMARK.json at the repository root."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        cfg = json.load(f)
    return ([(m["name"], m["unit"]) for m in cfg["end_to_end"]],
            [(m["name"], m["unit"]) for m in cfg["per_layer"]])


E2E, LAYERS = load_metrics()


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configures (once) and builds crackbench; returns its path."""
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", out, "--target", NAME, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return None
    exe = os.path.join(out, NAME)
    return exe if os.access(exe, os.X_OK) else None


def run_crackbench(exe, args, trace, deadline, spans_path=None):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"{NAME} did not finish within {TIME_LIMIT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{NAME} exited {proc.returncode} without a result")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{NAME} printed no JSON result: {lines[-1][:200]}")
        return None


def fmt(v):
    return f"{v:.6g}" if isinstance(v, (int, float)) else str(v)


def report_e2e(res):
    m, s = res["metrics"], res["samples"]
    print(f"== {res['workload']} seed {res['seed']}: end-to-end (untraced) ==")
    nq, nw = s["query"], s["write"]
    notes = {
        "setup_s": f"median of {s['reps']:.0f} registrations, "
                   f"range {s['setup_min_s']:.4g}-{s['setup_max_s']:.4g}",
        "cold_s": f"median of {s['reps']:.0f} cold phases, range "
                  f"{s['cold_min_s']:.4g}-{s['cold_max_s']:.4g}, "
                  f"{s['cold_queries']:.0f} queries in the one before steady",
        "qps": f"{nq:.0f} queries in {res['info']['steady_s']:.3f} s",
        "query_p50_us": f"n={nq:.0f}",
        "query_p99_us": f"n={nq:.0f}, {s['query_beyond_p99']:.0f} beyond",
        "write_p50_us": f"n={nw:.0f}",
        "write_p99_us": f"n={nw:.0f}, {s['write_beyond_p99']:.0f} beyond",
    }
    for beyond, name in (("query_beyond_p99", "query_p99_us"),
                         ("write_beyond_p99", "write_p99_us")):
        if s[beyond] < 10:
            notes[name] += " (fewer than 10 beyond p99: a coarse tail)"
    # error_rate is reported here but is no result metric: it is 0 on a
    # correct run, and the result's attempted/failed carry it.
    for name, unit in E2E + [("error_rate", "ratio")]:
        note = notes.get(name, "")
        print(f"  {name:<16} {fmt(m[name]):>14} {unit:<6} {note}")
    print(f"  attempted {res['attempted']:.0f}, failed {res['failed']:.0f}, "
          f"info {json.dumps(res['info'])}")


def report_layers(res, layers, na):
    print(f"== {res['workload']} seed {res['seed']}: traced run, "
          "steady phase ==")
    print(f"  {'span':<14} {'count':>9} {'queries':>9} {'us/query':>11} "
          f"{'share':>8}")
    for name, row in sorted(res["spans"].items(),
                            key=lambda kv: -kv[1]["us_per_query"]):
        print(f"  {name:<14} {row['count']:>9.0f} {row['queries']:>9.0f} "
              f"{row['us_per_query']:>11.3f} {row['share']:>8.2%}")
    print("  (self time per steady query; share = self time / summed "
          "bench execute spans. Partitions run in parallel under a pool, so "
          "shares can sum past 100%.)")
    for name, unit in LAYERS:
        if name in layers:
            print(f"  {name:<30} {fmt(layers[name]):>14} {unit}")
    for name, reason in na.items():
        print(f"  {name:<30} {'n/a':>14}        {reason}")
    print("  registry counter deltas over the steady phase:")
    for name, v in res["counters"].items():
        print(f"    {name:<40} {v:.6g}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    exe = build()
    if exe is None:
        log("build failed: perfbench needs the crackdb sources (../src)")
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    res = run_crackbench(exe, args, trace=False, deadline=deadline)
    if res is None:
        return 1
    report_e2e(res)
    attempted, failed = res["attempted"], res["failed"]
    correct = bool(res["correct"])

    if args.trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{args.workload}-{args.seed}.tsv")
        traced = run_crackbench(exe, args, trace=True, deadline=deadline,
                            spans_path=spans)
        if traced is None:
            return 1
        attempted += traced["attempted"]
        failed += traced["failed"]
        correct = correct and bool(traced["correct"])
        layers = dict(traced["layers"])
        layers["obs.trace_overhead"] = (traced["metrics"]["qps"] /
                                        res["metrics"]["qps"])
        report_layers(traced, layers, traced["na"])
        print(f"  spans written to {spans}")
        # The result holds every per-layer metric; one that does not apply
        # to this workload is written as 0, and the report gives the reason.
        metrics = {n: {"value": layers.get(n, 0.0), "unit": u}
                   for n, u in LAYERS}
    else:
        metrics = {n: {"value": res["metrics"][n], "unit": u}
                   for n, u in E2E}

    print(json.dumps({"correct": correct, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
