#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload allreduce_8k --seed 1 --seconds 30 --trace 0

Configures and builds perfbench/ (the library from src/ plus the benchmark
program, Release) into .bench_build/perfbench under the repository root,
then runs one workload. Build output goes to stderr; stdout carries the
benchmark's context line and, last, its result JSON. With --trace 1 the
spans are also written as Chrome trace JSON into the build directory.

Exits non-zero without printing a result when the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4"],
    ):
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed")
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, f"trace_{args.workload}_{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        sys.exit("perfbench: run timed out")
    if proc.returncode != 0:
        sys.exit(f"perfbench: benchmark exited with {proc.returncode}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
