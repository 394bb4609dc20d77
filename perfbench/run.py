#!/usr/bin/env python3
"""Table-1 campaign benchmark: build, run one workload, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ssl_table1 --seed 12345 \
        --seconds 40 --trace 0

Builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench on first use, then runs the workload in its own
process on one thread. The last stdout line is the result JSON; build and
progress output go to stderr. With --trace 1 the Chrome trace-event JSON
is written to .bench_build/traces/<workload>-seed<N>.json.

Exits non-zero without printing a result when the library sources are
missing, the build fails, or the workload fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "campaign_bench")
WORKLOADS = ("ssl_table1", "ext_models", "ssl_compact")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds within 1..60")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: workload did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode:
        sys.exit(f"run.py: workload exited with {proc.returncode}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
