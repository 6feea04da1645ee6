#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fuzz|jbb|stm --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark is built from source with CMake into .bench_build/ (or
$CARGO_TARGET_DIR when set) on first use; later runs only re-check the
build. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result.
"""

import fcntl
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TYPE = "RelWithDebInfo"


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return False
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out, ".lock"), "w") as lock:
        # One build at a time when several runs start together.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cfg = subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", out,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                stdout=sys.stderr, stderr=sys.stderr)
            if cfg.returncode != 0:
                return False
        b = subprocess.run(
            ["cmake", "--build", out, "--target", "tmsim_perfbench",
             "-j", jobs],
            stdout=sys.stderr, stderr=sys.stderr)
        return b.returncode == 0


def main():
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(out, "tmsim_perfbench")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
