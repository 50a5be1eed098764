#!/usr/bin/env python3
"""Compares two sets of rma_e2e result files against BENCHMARK.json bounds.

  python3 rma_e2e/compare_runs.py --a base/*.json --b change/*.json

Each file is one untraced run written by `run.py ... --json <file>`. Runs
pair up by workload and seed: run each seed once per side, and alternate
which side runs first. For every workload and end-to-end metric the table
shows each side's quartiles (Q1/median/Q3) and the paired change. The
paired change is the median over seeds of (B - A) / A, with its quartiles.
Pairs cancel the machine's drift between seeds, which on a shared host is
far larger than the difference between two runs made back to back.

The verdict reads the paired change against the metric's bound (the
largest tolerated worsening, as a share of A):

  better      B improves on A by more than the bound
  worse       B is worse than A by more than the bound
  unchanged   the median change is within the bound
  unresolved  the paired changes spread wider than the bound, (Q3 - Q1),
              and do not all lie beyond the bound in one direction

Runs on different machines are not comparable. The script refuses sides
whose hardware_threads, simd or seconds differ, and seed lists that differ
or repeat. Exit status: 0, or 1 if any row is "worse", or 2 if the inputs
are refused.
"""

import argparse
import json
import os
import statistics
import sys

MACHINE_KEYS = ("hardware_threads", "simd", "seconds")
STEAL_WARN_PCT = 2.0


def load(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            run = json.load(f)
        if run.get("trace"):
            raise ValueError(f"{path}: traced runs carry no end-to-end metrics")
        runs.append(run)
    return runs


def by_seed(runs, workload):
    """The runs of one workload keyed by seed; a repeated seed is refused."""
    out = {}
    for run in runs:
        if run["workload"] != workload:
            continue
        if run["seed"] in out:
            raise ValueError(f"{workload}: seed {run['seed']} appears twice")
        out[run["seed"]] = run
    return out


def check_comparable(a, b):
    for key in MACHINE_KEYS:
        seen = {run[key] for run in a + b}
        if len(seen) > 1:
            raise ValueError(f"runs differ in {key}: {sorted(map(str, seen))}")
    for w in sorted({run["workload"] for run in a + b}):
        seeds_a, seeds_b = sorted(by_seed(a, w)), sorted(by_seed(b, w))
        if seeds_a != seeds_b:
            raise ValueError(f"{w}: seeds differ: {seeds_a} vs {seeds_b}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(worsening, bound):
    """`worsening` holds each pair's (B - A) / A, signed so > 0 is worse."""
    q1, med, q3 = quartiles(worsening)
    if q3 - q1 > bound:
        if all(x < -bound for x in worsening):
            return "better"
        if all(x > bound for x in worsening):
            return "worse"
        return "unresolved"
    if med > bound:
        return "worse"
    if med < -bound:
        return "better"
    return "unchanged"


def fmt(q):
    return "/".join(f"{x:.4g}" for x in q)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench",
                        default=os.path.join(here, "..", "BENCHMARK.json"))
    parser.add_argument("--a", nargs="+", required=True, help="baseline runs")
    parser.add_argument("--b", nargs="+", required=True, help="candidate runs")
    args = parser.parse_args()
    with open(args.bench) as f:
        metrics = json.load(f)["end_to_end"]
    try:
        a, b = load(args.a), load(args.b)
        check_comparable(a, b)
    except (OSError, ValueError, KeyError) as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2

    print(f"{'workload':14} {'metric':15} {'n':>3} {'A q1/med/q3':>26} "
          f"{'B q1/med/q3':>26} {'paired change q1/med/q3':>26} "
          f"{'bound':>6}  verdict")
    worse = 0
    for w in sorted({run["workload"] for run in a}):
        runs_a, runs_b = by_seed(a, w), by_seed(b, w)
        seeds = sorted(runs_a)
        for m in metrics:
            va = [runs_a[s]["metrics"][m["name"]]["value"] for s in seeds]
            vb = [runs_b[s]["metrics"][m["name"]]["value"] for s in seeds]
            change = [(y - x) / x for x, y in zip(va, vb)]
            sign = 1 if m["better"] == "lower" else -1
            v = verdict([sign * c for c in change], m["bound"])
            worse += v == "worse"
            print(f"{w:14} {m['name']:15} {len(seeds):>3} "
                  f"{fmt(quartiles(va)):>26} {fmt(quartiles(vb)):>26} "
                  f"{'/'.join(f'{100 * c:+.1f}%' for c in quartiles(change)):>26} "
                  f"{m['bound']:>6.2f}  {v}")
    for side, runs in (("A", a), ("B", b)):
        steal = max(r.get("steal_pct", 0) for r in runs)
        if steal > STEAL_WARN_PCT:
            print(f"note: side {side} has runs with {steal:.1f}% CPU steal; "
                  "the host was busy, so its timings are inflated")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
