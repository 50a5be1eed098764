#!/usr/bin/env python3
"""Builds and runs the rma_e2e benchmark (see README.md in this directory).

Run from the repository root:

  python3 rma_e2e/run.py --workload trips_ols --seed 1 --seconds 15 --trace 0
  python3 rma_e2e/run.py --workload trips_ols --seed 1 --seconds 15 --trace 0 \
      --json results/a1.json
  python3 rma_e2e/run.py --smoke

The engine sources (src/) and the benchmark program are compiled into
$CARGO_TARGET_DIR/rma_e2e (default .bench_build/rma_e2e) on first use. Build
output goes to stderr, so the last line of stdout is the result JSON.
Trace files and the paged workload's data directory live under that build
directory too.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "rma_e2e")


def build(out):
    """Configures (once) and builds; serialized by a lock on the directory."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not any(os.path.exists(os.path.join(out, f))
                   for f in ("build.ninja", "Makefile")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"] + generator,
                           stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", out, "-j", jobs],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--json", help="also write a results file here")
    parser.add_argument("--smoke", action="store_true",
                        help="one checked job per workload, then exit")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"rma_e2e: build failed: {e}", file=sys.stderr)
        return 1

    workdir = os.path.join(out, "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(out, "rma_e2e"), "--workdir", workdir]
    if args.smoke:
        cmd.append("--smoke")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace]
        if args.json:
            cmd += ["--json", os.path.abspath(args.json)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"rma_e2e: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
