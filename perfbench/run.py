#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) inside the checkout; build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. Every other
argument is passed to the perfbench binary, which validates it (exit 2
and usage on a bad one). See perfbench/README.md.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    """Configures (once) and builds perfbench and rebeca-node."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "rebeca-node",
                  "-j", JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    cmd = [os.path.join(BUILD, "perfbench"), *sys.argv[1:],
           "--out-dir", os.path.join(BUILD, "traces"),
           "--node", os.path.join(BUILD, "rebeca-node")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
