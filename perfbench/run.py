#!/usr/bin/env python3
"""End-to-end training benchmark: builds the binary and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the hetsgd libraries plus the binary
(Release) under $CARGO_TARGET_DIR, default .bench_build; later calls only
rebuild what changed. The binary's report goes to stdout, and its last line
is the JSON result. Exits non-zero, printing no result, when the build or
the run fails. See perfbench/README.md for workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
WORKLOADS = ("replica-covtype", "hogwild-w8a", "adaptive-realsim")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def parse_result(stdout):
    """The binary's last stdout line, if it is a well-formed result."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    build_root = os.path.join(
        CHECKOUT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        exe = build(os.path.join(build_root, "perfbench"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # Two cores stay free for the coordinator and the GPU worker's thread:
    # the binary gives the Hogwild lanes nproc - 2 threads, and the OpenMP
    # team of every GEMM the same. With a full-width team beside the lanes,
    # adaptive-realsim oversubscribes the cores and a pass swung from 4.5 s
    # to 10 s within two minutes on a 4-core host.
    cpus = len(os.sched_getaffinity(0))
    env = dict(os.environ, OMP_NUM_THREADS=str(max(1, cpus - 2)))
    scratch = os.path.join(build_root, f"scratch-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        proc = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch", scratch],
            stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = parse_result(proc.stdout)
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
