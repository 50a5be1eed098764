#!/usr/bin/env python3
"""Diff two BENCH_*.json files (bench_common's BenchJson format) and fail on
perf regressions beyond a noise threshold.

Usage:
  bench_compare.py BASELINE.json CURRENT.json [--threshold 0.30]
                   [--min-ns 100000] [--absolute]

Both files hold {"bench": ..., "scale": ..., "entries": [{"name", "ns", ...}]}.
Entries are matched by name. By default the comparison is *speed-normalized*:
the median current/baseline ratio across all matched entries is treated as
the machine-speed factor (CI runners differ from the machine that produced
the checked-in baseline), and an entry only counts as a regression when its
ratio exceeds the median by more than the threshold — i.e. it got slower
*relative to everything else*. --absolute compares raw ratios instead (for
same-machine A/B runs).

Entries whose baseline time is under --min-ns are skipped: timer granularity
and allocator noise dominate there (sub-100µs rows swing tens of percent
run-to-run even best-of-N). A scale mismatch between the two files is
an error (ns at different problem sizes are not comparable).

Entries may carry a cache "regime" ("l2"/"l3"/"dram") and a "shards" count
(the shard count the recorded plan executed with; 0 = not a sharded
measurement). Both are shown in the diff table, and a shard-count change
between baseline and current is flagged inline — a plan that stopped (or
started) sharding explains a timing shift better than the ratio alone.

Both files may record the producing machine's "hardware_threads". Both
sides' values are printed. When both files record it and the values differ
the comparison is refused (exit 2): concurrency entries measured on a
different thread count are not comparable. A file without the field only
draws a warning.

Exit status: 0 = no regressions, 1 = regressions found, 2 = usage/format
error or hardware-thread mismatch.
"""

import argparse
import json
import statistics
import sys


def fail(message):
    """Usage or format error (including a machine mismatch): exit 2."""
    print(f"bench_compare: {message}", file=sys.stderr)
    sys.exit(2)


def load_entries(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")
    if "entries" not in doc or not isinstance(doc["entries"], list):
        fail(f"{path}: no entries array")
    entries = {}
    meta = {}
    for e in doc["entries"]:
        name, ns = e.get("name"), e.get("ns")
        if not isinstance(name, str) or not isinstance(ns, (int, float)):
            fail(f"{path}: malformed entry {e!r}")
        entries[name] = float(ns)
        meta[name] = (e.get("regime", ""), int(e.get("shards", 0) or 0))
    return doc.get("scale", 1.0), doc.get("hardware_threads"), entries, meta


def check_hardware_threads(base_threads, cur_threads):
    """Prints both sides' hardware_threads; exits 2 on a recorded mismatch."""
    sides = (("baseline", base_threads), ("current", cur_threads))
    print("hardware threads: " + ", ".join(
        f"{side} {'unrecorded' if v is None else v}" for side, v in sides))
    missing = [side for side, v in sides if v is None]
    if missing:
        print(f"  [warning] {' and '.join(missing)} lacks hardware_threads; "
              f"cannot check that the machines match")
    elif base_threads != cur_threads:
        fail(f"hardware_threads mismatch: baseline {base_threads}, current "
             f"{cur_threads} — regenerate the baseline on a machine with the "
             f"same thread count")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.30,
                    help="max tolerated slowdown, e.g. 0.30 = +30%% "
                         "(default: %(default)s)")
    ap.add_argument("--min-ns", type=float, default=100000,
                    help="skip entries whose baseline is below this many ns "
                         "(default: %(default)s)")
    ap.add_argument("--absolute", action="store_true",
                    help="compare raw ratios; skip median speed "
                         "normalization")
    args = ap.parse_args()

    base_scale, base_threads, base, base_meta = load_entries(args.baseline)
    cur_scale, cur_threads, cur, cur_meta = load_entries(args.current)
    if base_scale != cur_scale:
        fail(f"scale mismatch: baseline ran at {base_scale}, current at "
             f"{cur_scale} — regenerate the baseline at the comparison scale")
    check_hardware_threads(base_threads, cur_threads)

    matched = sorted(set(base) & set(cur))
    for name in sorted(set(base) - set(cur)):
        print(f"  [missing] {name}: in baseline only (renamed or removed?)")
    for name in sorted(set(cur) - set(base)):
        print(f"  [new]     {name}: not in baseline (skipped)")
    if not matched:
        fail("no common entries to compare")

    usable = [n for n in matched if base[n] >= args.min_ns]
    skipped = len(matched) - len(usable)
    if not usable:
        fail(f"every common entry is under --min-ns ({args.min_ns:.0f}); "
             f"nothing comparable")

    ratios = {n: cur[n] / base[n] for n in usable}
    speed = 1.0 if args.absolute else statistics.median(ratios.values())

    regressions, improvements = [], []
    print(f"{'benchmark':<40} {'baseline':>12} {'current':>12} "
          f"{'norm ratio':>10} {'regime':>6} {'shards':>6}")
    for name in usable:
        norm = ratios[name] / speed
        regime, shards = cur_meta.get(name, ("", 0))
        base_shards = base_meta.get(name, ("", 0))[1]
        shards_cell = "-" if shards == 0 and base_shards == 0 else str(shards)
        flag = ""
        if shards != base_shards:
            # The plan changed shape, not just speed.
            flag = f"  [shards {base_shards}->{shards}]"
        if norm > 1.0 + args.threshold:
            regressions.append((name, norm))
            flag += "  << REGRESSION"
        elif norm < 1.0 - args.threshold:
            improvements.append((name, norm))
            flag += "  (improved)"
        print(f"{name:<40} {base[name]:>10.0f}ns {cur[name]:>10.0f}ns "
              f"{norm:>9.2f}x {regime:>6} {shards_cell:>6}{flag}")

    print(f"\nmachine-speed factor (median ratio): {speed:.2f}x"
          f"{' (absolute mode)' if args.absolute else ''}")
    if skipped:
        print(f"skipped {skipped} entr{'y' if skipped == 1 else 'ies'} under "
              f"the {args.min_ns:.0f}ns noise floor")
    if improvements:
        print(f"{len(improvements)} improved beyond the threshold")
    if regressions:
        print(f"\nFAIL: {len(regressions)} regression(s) beyond "
              f"+{args.threshold:.0%}:")
        for name, norm in sorted(regressions, key=lambda r: -r[1]):
            print(f"  {name}: {norm:.2f}x the expected time")
        return 1
    print("OK: no regressions beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
