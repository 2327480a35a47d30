#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The ssam library and the benchmark binary are built with CMake (Release)
into .bench_build/perfbench on first use; later runs rebuild only what
changed. Build output goes to stderr, so the last line on stdout is the
result object the benchmark prints. The arguments are passed through to the
binary, which validates them (see perfbench/README.md). A failed build exits
non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ssam_perfbench")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return False
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    env = dict(os.environ)
    # Nothing the benchmark runs may write outside the checkout: the
    # library's process-wide tuning cache defaults to the home directory.
    env["SSAM_TUNE_CACHE"] = "off"
    return subprocess.run([BINARY] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
