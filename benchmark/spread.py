#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the bounds are judged.

Runs the benchmark command of BENCHMARK.json ten times per workload, each
time with another --seed, and prints for each end-to-end metric the distance
between the first and the third quartile of its ten values as a share of
their median (statistics.quantiles(values, n=4)), next to the metric's
bound. A spread above a third of its bound is flagged: give that metric
more measured work, or a wider bound, before relying on it.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [workload ...]

Run it from the repository root. Exits non-zero when a spread is flagged or
a run is incorrect.
"""
import argparse
import json
import statistics
import subprocess
import sys

parser = argparse.ArgumentParser()
parser.add_argument("--runs", type=int, default=10)
parser.add_argument("--first-seed", type=int, default=1)
parser.add_argument("workloads", nargs="*")
args = parser.parse_args()

with open("BENCHMARK.json") as f:
    manifest = json.load(f)
workloads = args.workloads or [w["name"] for w in manifest["workloads"]]
flagged = False
for workload in workloads:
    values = {m["name"]: [] for m in manifest["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = manifest["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(manifest["run_seconds"]), "--trace", "0",
        ]
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if run.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit code {run.returncode}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {seed}: incorrect run")
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    for metric in manifest["end_to_end"]:
        series = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        # Set-up time is exempt from the spread rule (only its median is
        # compared), so it is shown but never flagged.
        over = spread > metric["bound"] / 3 and metric["name"] != "setup_s"
        flagged |= over
        print(f"{workload:<11} {metric['name']:<20} median {median:>16.6f} "
              f"{metric['unit']:<7} spread {spread:7.4f}  bound {metric['bound']:.2f}"
              f"{'  <-- above bound/3' if over else ''}", flush=True)
sys.exit(1 if flagged else 0)
