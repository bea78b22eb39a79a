#!/usr/bin/env python3
"""Steadiness check: repeated sets of runs, each metric's median and spread.

Usage, from the repository root::

    python3 perfbench/steady.py                      # 10 seeds x 1 set, all workloads
    python3 perfbench/steady.py --runs 5 --workloads refine-linked
    python3 perfbench/steady.py --sets 2 --traced    # two sets, plus one traced run

Set *k* uses seeds ``1000 k + 1 .. 1000 k + runs``; each run measures
BENCHMARK.json's ``run_seconds``.

For every workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread — the
interquartile distance as a share of the median — beside the metric's
bound from BENCHMARK.json.  With two or more sets it also prints how
far each later set's median moved from the first, in the metric's
worse direction.  ``--traced`` adds one traced run per workload and
reports its end-to-end numbers against the untraced medians: the
tracing overhead.  Runs go one at a time, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
from fractions import Fraction
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=str(ROOT), capture_output=True, text=True, timeout=900
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    notes = json.loads(lines[-2]) if len(lines) > 1 else {}
    return result, notes


def summary(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("quartiles need at least 4 runs")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    for workload in args.workloads:
        sets = []
        for index in range(args.sets):
            runs = []
            for offset in range(args.runs):
                seed = 1000 * index + offset + 1
                result, _notes = run_once(workload, seed, seconds, 0)
                runs.append(result)
                print(
                    f"{workload} set {index} seed {seed}: correct="
                    f"{result['correct']} failed={result['failed']}/"
                    f"{result['attempted']}",
                    file=sys.stderr,
                )
            sets.append(runs)
        print(f"\n== {workload}: {args.sets} set(s) x {args.runs} runs")
        shares = {
            str(Fraction(r["failed"], r["attempted"]))
            for runs in sets for r in runs
        }
        print(f"failed/attempted share per run: {', '.join(sorted(shares))}")
        print(f"{'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} {'drift':>7}")
        first = {}
        for name, meta in metrics.items():
            for index, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, spread = summary(values)
                drift = ""
                if index == 0:
                    first[name] = med
                else:
                    worse = (med - first[name]) / first[name]
                    if meta["better"] == "higher":
                        worse = -worse
                    drift = f"{worse:+.3f}"
                label = name if index == 0 else f"  set {index}"
                print(f"{label:16} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                      f"{spread:7.3f} {meta['bound']:6.2f} {drift:>7}")
        if args.traced:
            result, notes = run_once(workload, 1, seconds, 1)
            traced = notes.get("end_to_end", {})
            print("traced run (seed 1), against the untraced median of the "
                  "first set:")
            for name in metrics:
                base = statistics.median(
                    r["metrics"][name]["value"] for r in sets[0]
                )
                value = traced.get(name)
                if value is None:
                    continue
                print(f"  {name:16} {value:12.4f}  overhead "
                      f"{(value - base) / base:+.3f}")
            for name, entry in result["metrics"].items():
                print(f"  {name:44} {entry['value']:14.4f} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
