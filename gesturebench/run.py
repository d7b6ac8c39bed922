#!/usr/bin/env python3
"""Builds and runs the gesture benchmark.

Usage (from the repository root):
    python3 gesturebench/run.py --workload explore --seed 1 --seconds 10 --trace 0
    python3 gesturebench/run.py --selftest

The driver is compiled from source on first use into .bench_build/gesturebench
(CMake, Release) together with the program's libraries under src/. Each run
works in its own directory under .bench_run/ and removes it at the end. The
last line of standard output is the driver's JSON result.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "gesturebench")
BINARY = os.path.join(BUILD, "gesturebench")


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "--build", BUILD, "--target", "gesturebench", "-j", jobs],
    ]
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.insert(0, ["cmake", "-S", SOURCE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("gesturebench: build failed: %s\n" % " ".join(step))
            return False
    return True


def main(argv):
    if not build():
        return 2
    args = list(argv)
    if "--selftest" not in args:
        workdir = os.path.join(ROOT, ".bench_run", "run-%d" % os.getpid())
        args += ["--workdir", workdir]
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
