#!/usr/bin/env python3
"""Steady-state RHHH benchmark entry point.

Builds the library and the benchmark program from source (CMake, Release)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and runs
one workload:

    python3 perfbench/run.py --workload ingest_10rhhh --seed 1 --seconds 30 --trace 0

The program's last stdout line is the result JSON. `--self-test` builds and
runs the benchmark's own math tests instead. Run from the repository root.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ["ingest_10rhhh", "ingest_rhhh", "windowed_trend"]


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once and builds incrementally; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/; nothing to build")
        return False
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(build_dir):
        return 2
    if args.self_test:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode

    out_dir = os.path.join(build_dir, "runs")
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    # The program inherits stdout, so its last line is this script's last line.
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
