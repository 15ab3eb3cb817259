#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds a Release tree in .bench_build (the
vmincqr library from src/ plus the perfbench binaries); later calls only
rebuild what changed. Build output goes to standard error, so the last line
of standard output is always the benchmark's result object. Traced runs write
their spans under .bench_out/.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
JOBS = "4"


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", JOBS, "--target", target],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, target)


def main(argv):
    try:
        if argv == ["--self-test"]:
            return subprocess.run([build("perfbench_selftest")]).returncode
        binary = build("vbench")
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    return subprocess.run([binary, *argv, "--out-dir", OUT_DIR]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
