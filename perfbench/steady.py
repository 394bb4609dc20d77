#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload repeatedly, one seed per
run, and print each metric's median, quartiles and spread.

    python3 perfbench/steady.py [--runs 10]

Run k uses seed k (1, 2, ...), BENCHMARK.json's run_seconds and --trace 0,
one run at a time through run.py. Spread is (Q3 - Q1) / median with the
quartiles of Python's statistics.quantiles(values, n=4). Next to each
metric it prints the bound from BENCHMARK.json and the spread as a share
of that bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        sys.exit(f"steady.py: {' '.join(cmd)} exited {proc.returncode}")
    # The per-campaign lines of the run's summary, for reading the spread.
    for line in proc.stderr.splitlines():
        if line.startswith(("campaign_s by", "detected by")):
            print("#   " + line)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            r = run_once(workload, seed, seconds)
            results.append(r)
            print(f"# {workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"## {workload}: {args.runs} runs, {seconds} s each, "
              f"failed shares {sorted(shares)}, all correct: "
              f"{all(r['correct'] for r in results)}")
        print(f"{'metric':20} {'unit':6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6} {'/bound':>7}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], None, vals[0]))
            spread = (q3 - q1) / med if med else 0.0
            b = bounds[name]
            print(f"{name:20} {unit:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {b:6.3f} {spread / b:7.3f}", flush=True)


if __name__ == "__main__":
    main()
