#!/usr/bin/env python3
"""Self-test for the pipeline benchmark.

Run from the repository root:

    python3 perfbench/selftest.py [--seconds 1]

For each workload, a short untraced and a short traced run must emit every
metric BENCHMARK.json names, report correct results, and fail no op. Then a
deliberately corrupted reference (one verdict flipped in table3.txt and in
table5.txt) must make the batch workloads fail their correctness check.
Scratch files go to .bench_build/selftest. Exit code 0 means every check
passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(BENCH_DIR, "..", "BENCHMARK.json")
SCRATCH = os.path.join(".bench_build", "selftest")


def run(workload, seconds, trace, extra=()):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stdout + done.stderr


def corrupt_reference():
    """Copy the references and flip the first verdict of each file."""
    dest = os.path.join(SCRATCH, "reference")
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(os.path.join(BENCH_DIR, "reference"), dest)
    for name in ("table3.txt", "table5.txt"):
        path = os.path.join(dest, name)
        with open(path) as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("epoch ") and " verdicts " in line:
                head, verdicts = line.rsplit(" ", 1)
                flipped = ("x" if verdicts[0] == "V" else "V") + verdicts[1:]
                lines[i] = f"{head} {flipped}"
                break
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
    return dest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    with open(SPEC) as f:
        spec = json.load(f)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    os.makedirs(SCRATCH, exist_ok=True)
    problems = []

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, result, output = run(workload, args.seconds, trace)
            tag = f"{workload} trace={trace}"
            if code != 0 or result is None:
                problems.append(f"{tag}: exit {code}\n{output}")
                continue
            missing = [n for n in names[trace] if n not in result["metrics"]]
            extra = [n for n in result["metrics"] if n not in names[trace]]
            if missing or extra:
                problems.append(f"{tag}: missing {missing}, unlisted {extra}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']}")
            if result["attempted"] < 1:
                problems.append(f"{tag}: no op attempted")
            print(f"ok   {tag}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops, failed_ratio 0")

    bad_ref = corrupt_reference()
    for workload in ("table3", "table5"):
        code, result, output = run(workload, args.seconds, 0,
                                   ["--reference-dir", bad_ref])
        caught = (code == 1 and result is not None and not result["correct"]
                  and result["failed"] > 0)
        if caught:
            print(f"ok   {workload}: corrupted reference detected "
                  f"({result['failed']} of {result['attempted']} ops failed)")
        else:
            problems.append(f"{workload}: corrupted reference not detected "
                            f"(exit {code})\n{output}")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
