#!/usr/bin/env python3
"""Builds and runs the LightRW host-speed benchmark.

Run from the repository root:

    python3 hostbench/run.py --workload deepwalk_engine --seed 1 \
        --seconds 10 --trace 0

Configures hostbench/ (which builds the simulator libraries from src/)
under $CARGO_TARGET_DIR/hostbench, default .bench_build/hostbench, then
runs the benchmark binary. Its standard output is passed through; the
last line is the JSON result. Build or run failures exit non-zero
without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("deepwalk_engine", "node2vec_engine", "metapath_service")
DEFAULT_SEED = 1  # the seed whose fingerprints pinned_fingerprints.json pins
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def build(bench_dir, build_dir):
    """Configures (once) and builds the benchmark; returns the exit code."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "hostbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        code = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False).returncode
        if code != 0:
            return code
    return 0


def main():
    args = parse_args()
    bench_dir = Path(__file__).resolve().parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_root / "hostbench").resolve()
    build_dir.mkdir(parents=True, exist_ok=True)
    code = build(bench_dir, build_dir)
    if code != 0:
        print(f"hostbench: build failed with exit code {code}",
              file=sys.stderr)
        return code

    command = [str(build_dir / "hostbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--pinned", str(bench_dir / "pinned_fingerprints.json")]
    if args.trace:
        spans_dir = build_dir / "spans"
        spans_dir.mkdir(exist_ok=True)
        command += ["--spans-out",
                    str(spans_dir / f"{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("hostbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(proc.stdout)
        print(f"hostbench: run failed with exit code {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
