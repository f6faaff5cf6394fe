#!/usr/bin/env python3
"""The benchmark's own test: every workload and check in short mode.

    python3 perfbench/test_short.py

Runs perfbench/run.py --short for each workload in BENCHMARK.json, untraced
and traced, and checks that each run exits 0, ends with a JSON result that
is correct, reports no failed operation, and carries exactly the metric set
BENCHMARK.json lists (end_to_end untraced, per_layer traced) with the listed
units. Also checks that a directory holding only the benchmark's files makes
run.py fail without printing a result. Takes well under a minute once built.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            out = run(["--workload", workload, "--seed", "7", "--seconds", "2",
                       "--trace", str(trace), "--short"], ROOT)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                failures.append(f"{label}: exit {out.returncode}\n{out.stdout}{out.stderr}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{label}: {lines[-1]}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                failures.append(f"{label}: metrics {units} != {expected[trace]}")
            print(f"ok {label}")

    # Only BENCHMARK.json and the benchmark's own files: no sources to build.
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run(["--workload", "is5_stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  bare)
        if out.returncode == 0 or out.stdout.strip():
            failures.append(f"bare directory: exit {out.returncode}, stdout {out.stdout!r}")
        else:
            print("ok bare directory fails without a result")

    for failure in failures:
        print(f"FAIL {failure}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
