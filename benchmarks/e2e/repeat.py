#!/usr/bin/env python3
"""Run each workload k times on this commit and judge the spread.

    python3 benchmarks/e2e/repeat.py --runs 10 --vary-seed
    python3 benchmarks/e2e/repeat.py --runs 5 --workload hot_closed --seed 7

Every run is ``run.py --trace 0 --seconds 20``, what ``BENCHMARK.json``
names.  For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the interquartile range and the
full range (max - min) as shares of the median, next to the metric's
bound, and exits non-zero when a full range exceeds its bound or a run
reports a failed operation (its values are then left out).  With one seed
for all runs, the exact counts of the closed-loop workloads must also
repeat bit for bit.  ``--json``
keeps the raw values, so a parent's runs and a change's runs can be
compared pair by pair afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402  (no program import: this tool only spawns runs)

WORKLOADS = ("hot_closed", "scan_closed", "mixed_rw", "open_mixed")
CLOSED = ("hot_closed", "scan_closed", "mixed_rw")
RUN_SECONDS = 20  # BENCHMARK.json's run_seconds


def one_run(workload: str, seed: int) -> dict:
    """The result line of one ``run.py --trace 0`` (exit code 0 or 1)."""
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(RUN_SECONDS),
        "--trace", "0",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    scale = abs(median) or 1.0
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / scale,
        "range_share": (max(values) - min(values)) / scale,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true",
                        help="run i uses seed + i")
    parser.add_argument("--json", help="write every run's values to this file")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {name: bound for name, _, _, bound in M.END_TO_END}
    exceeded = []
    everything: Dict[str, Dict[str, List[float]]] = {}
    for workload in args.workload or WORKLOADS:
        runs = []
        for i in range(args.runs):
            seed = args.seed + i if args.vary_seed else args.seed
            result = one_run(workload, seed)
            print(f"# {workload} run {i + 1}/{args.runs} seed {seed}: "
                  f"{result['failed']} of {result['attempted']} failed", flush=True)
            if result["failed"] or not result["correct"]:
                exceeded.append((workload, f"seed {seed}: failed operations"))
            else:
                runs.append({n: e["value"] for n, e in result["metrics"].items()})
        if len(runs) < 2:
            continue
        columns = {name: [run[name] for run in runs] for name in runs[0]}
        everything[workload] = columns
        print(f"\n{workload}  ({len(runs)} runs, "
              f"{'seeds ' + str(args.seed) + '..' if args.vary_seed else 'seed ' + str(args.seed)})")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}")
        for name, values in columns.items():
            s = spread(values)
            bound = bounds[name]
            verdict = ""
            if s["range_share"] > bound:
                verdict = "  EXCEEDS"
                exceeded.append((workload, name))
            if (
                not args.vary_seed
                and workload in CLOSED
                and name in M.EXACT_ON_CLOSED_LOOPS
                and len(set(values)) > 1
            ):
                verdict += "  NOT EXACT"
                exceeded.append((workload, name))
            print(f"  {name:34s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['iqr_share']:8.4f} {s['range_share']:9.4f} {bound:6.2f}{verdict}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(everything, handle, indent=1)
    if exceeded:
        print("\nnot within the bounds: " + ", ".join(f"{w}/{m}" for w, m in exceeded))
        return 1
    print("\nevery range is within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
