#!/usr/bin/env python3
"""Builds and runs the compression-service benchmark.

    python3 perfbench/run.py --workload kv4k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of the source tree. The first run configures and builds
the server (cdpu_cli) and the load generator (svcbench) in .bench_build/;
later runs rebuild only what changed. The last line of standard output is
the result object printed by svcbench. --self-test runs a short kv4k
benchmark whose expected page for key 0 is deliberately wrong and checks
that the run then reports the mismatch and fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
BENCH_DIR = os.path.dirname(os.path.relpath(os.path.abspath(__file__)))
WORKLOADS = ("kv4k", "ingest64k", "auto-mixed")


def build():
    """Configures (once) and builds both binaries; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "svcbench", "cdpu_cli",
                    "--parallel", jobs],
                   check=True, stdout=sys.stderr)


def run_bench(workload, seed, seconds, trace, corrupt=False):
    """Runs svcbench once; returns (exit code, stdout lines)."""
    run_dir = os.path.join(BUILD_DIR, "runs", workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(BUILD_DIR, "svcbench"),
           "--cli", os.path.join(BUILD_DIR, "cdpu_tools", "cdpu_cli"),
           "--run-dir", run_dir, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt-expected")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        print("svcbench did not finish within 170 s", file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def self_test():
    code, lines = run_bench("kv4k", 1, 1, 0, corrupt=True)
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1]) if lines else {}
    if code != 0 and result.get("correct") is False and result.get("failed", 0) > 0:
        print(f"self-test passed: the wrong expected page failed the run "
              f"({result['failed']} of {result['attempted']} operations, exit code {code})")
        return 0
    print(f"self-test FAILED: exit code {code}, result {result}")
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test()
    code, lines = run_bench(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
