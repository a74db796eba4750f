#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Usage, from the repository root:
    python3 perfbench/steady.py --workloads lsched_closed,fifo_open,train_sim \
        --seeds 1-10 [--seconds S] [--traced]

For every workload and end-to-end metric it prints the median, the first and
third quartiles (Python's statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. With
--traced it also makes a traced run per seed and prints the per-layer
medians and the tracing overhead (traced minus untraced median). Runs one at
a time so that they do not disturb each other.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: INCORRECT {result['failed']}/"
              f"{result['attempted']} failed", file=sys.stderr)
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        sys.stdout.flush()
        untraced, traced = [], []
        for seed in seeds_from(args.seeds):
            untraced.append(run(workload, seed, seconds, 0))
            if args.traced:
                traced.append(run(workload, seed, seconds, 1))
        print(f"{workload}: {len(untraced)} seeds, {seconds} s each, "
              f"{sum(r['attempted'] for r in untraced)} operations, "
              f"{sum(r['failed'] for r in untraced)} failed")
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  values by seed")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in untraced]
            q1, q2, q3, sp = spread(vals)
            print(f"  {name:24} {q2:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{sp:8.3f} {bound:6.2f}  "
                  + " ".join(f"{v:.4g}" for v in vals))
        if traced:
            print("  per-layer medians (traced runs):")
            for name in traced[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in traced]
                print(f"    {name:30} {statistics.median(vals):14.4f} "
                      f"{traced[0]['metrics'][name]['unit']}")
            print("  tracing overhead (traced - untraced median):")
            for name in ("ops_per_s", "p50_ms", "p99_ms"):
                t = statistics.median(r["metrics"]["traced." + name]["value"]
                                      for r in traced)
                u = statistics.median(r["metrics"][name]["value"]
                                      for r in untraced)
                print(f"    {name:24} {t - u:+12.4f} ({(t - u) / u:+.1%})")


if __name__ == "__main__":
    main()
