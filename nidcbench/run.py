#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see METRICS.md).

    python3 nidcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the benchmark runner from source (CMake, Release)
into $CARGO_TARGET_DIR/nidcbench, or .bench_build/nidcbench when the
variable is unset; the first run builds, later runs reuse the build. Then
it runs the benchmark's self-tests and the workload. The runner's output
passes through unchanged, so the last stdout line is the result JSON;
build output goes to stderr. Working files stay under the build
directory, and reports and spans land in its reports/ subdirectory.

Exits non-zero, without printing a result, when the sources are missing,
the build or a self-test fails; exits non-zero after printing the result
when an output check failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("nidcbench: library sources (src/) not found", file=sys.stderr)
        return 2
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.join(build_root, "nidcbench")
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]):
            print("nidcbench: cmake configure failed", file=sys.stderr)
            return 2
    if not run_quiet(["cmake", "--build", build, "-j", jobs]):
        print("nidcbench: build failed", file=sys.stderr)
        return 2
    if not run_quiet([os.path.join(build, "nidcbench_selftest"),
                      os.path.join(ROOT, "BENCHMARK.json")]):
        print("nidcbench: self-tests failed", file=sys.stderr)
        return 2

    work = os.path.join(build_root, "work-%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(build, "nidcbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", work,
           "--data-dir", os.path.join(HERE, "expected"),
           "--report-dir", os.path.join(build_root, "reports")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("nidcbench: the runner printed no result", file=sys.stderr)
        return proc.returncode or 2
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
