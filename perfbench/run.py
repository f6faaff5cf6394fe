#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload is5_stream --seed 1 --seconds 25 --trace 0

Workloads (shapes and reasons are in BENCHMARK.json and perfbench/README.md):
  is5_stream  IS-5 (1,266 sensors) through core::StreamingCad, closed loop
  fleet_iot   2,048 eight-sensor tenants through fleet::FleetEngine, open loop
  is3_batch   IS-3 (406 sensors) through core::CadDetector::Detect

The first run configures and builds CMake project perfbench/ (Release, the
cad libraries compiled from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs rebuild only what
changed. Build output goes to stderr. The binary prints "# ..." lines (build
facts, source digest, one line per metric with its sample count) and, last,
one JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones and writes the
run's spans next to the build. --short shrinks every shape so all workloads
and checks run in seconds (see perfbench/test_short.py).

Exits non-zero without a result when the sources or the toolchain are
missing, and non-zero after the result when a check failed.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the measured sources (src/ and perfbench/)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                         text=True, check=False)
    return out.stdout.strip() or "unknown"


def build(build_dir):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, check=False).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    step = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, check=False).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["is5_stream", "fleet_iot", "is3_batch"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--short", action="store_true",
                        help="tiny shapes: every workload and check in seconds")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "engine.h")):
        fail(f"no cad sources under {os.path.join(ROOT, 'src')}")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    command = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    if args.short:
        command.append("--short")
    print(f"# commit: {commit()}")
    print(f"# source_sha256: {source_digest()}")
    sys.stdout.flush()
    with subprocess.Popen(command, cwd=ROOT) as child:
        try:
            code = child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
