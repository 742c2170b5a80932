#!/usr/bin/env python3
"""Builds and runs the request-to-pixels benchmark (perfbench/pixels_bench.cc).

Run from the repository root:

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

The first run configures and builds the library and pixels_bench with CMake
under .bench_build/perfbench (progress goes to standard error); later runs
only rebuild what changed. All arguments are passed to pixels_bench, whose
last line of standard output is the JSON result. The exit code is its own,
or non-zero when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench", "build")
JOBS = "4"


def build():
    """Configures (once) and builds pixels_bench; returns its path or None."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if configure.returncode != 0:
            return None
    compiled = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "pixels_bench", "-j", JOBS],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    if compiled.returncode != 0:
        return None
    return os.path.join(BUILD, "pixels_bench")


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    os.chdir(ROOT)
    return subprocess.run([binary] + sys.argv[1:], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
