#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 0

The first call configures and builds perfbench/ (and the libraries under
src/) into .bench_build/perfbench; later calls rebuild only what changed.
The benchmark binary prints a report and, as its last line, one JSON result
object. `--workload all` runs every workload in turn and ends with one table
row per workload instead. Any further flags (--reference-dir, --work-dir)
are passed to the binary.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "pipeline_bench")
WORKLOADS = ["table3", "table5", "daemon_mix"]


def build():
    """Configure once, then build incrementally; logs go to stderr."""
    src = os.path.join(BENCH_DIR, "..", "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        sys.exit(f"run.py: no library sources next to {BENCH_DIR} "
                 "(run from the repository root)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "pipeline_bench", "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def run_one(workload, args, extra):
    """Run the binary for one workload; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bench-dir", BENCH_DIR, "--work-dir", WORK_DIR] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    lines = []
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            lines.append(line.rstrip("\n"))
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args, extra = parser.parse_known_args()

    build()
    sys.stdout.flush()
    if args.workload != "all":
        code, _ = run_one(args.workload, args, extra)
        return code

    worst = 0
    rows = []
    for workload in WORKLOADS:
        code, lines = run_one(workload, args, extra)
        worst = max(worst, code)
        result = json.loads(lines[-1]) if code in (0, 1) and lines else None
        rows.append((workload, result))
    print("\nsummary (one row per workload):")
    for workload, result in rows:
        if result is None:
            print(f"  {workload}: no result")
            continue
        cells = [f"{name}={m['value']:.6g} {m['unit']}"
                 for name, m in result["metrics"].items()]
        ratio = result["failed"] / result["attempted"]
        cells.append(f"failed_ratio={ratio:.6g} "
                     f"({result['failed']}/{result['attempted']})")
        print(f"  {workload}: " + "  ".join(cells))
    return worst


if __name__ == "__main__":
    sys.exit(main())
