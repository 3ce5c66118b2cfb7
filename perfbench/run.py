#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the repository's sources.

Run from the repository root:

    python3 perfbench/run.py --workload compile --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/CMakeLists.txt (the program
library, asdfd and the benchmark) in .bench_build/; later calls rebuild only
what changed. Build output goes to stderr, so the benchmark's result line is
the last line of stdout. Exits nonzero when the sources are missing, the
build fails, or an output check fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    for needed in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} not found in {ROOT}; the benchmark "
                     "builds the program from the repository's sources")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j",
                  "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed")


def main():
    build()
    binary = os.path.join(BUILD, "perfbench")
    sys.exit(subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
