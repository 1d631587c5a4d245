#!/usr/bin/env python3
"""Builds the CorrOpt benchmark harness from this checkout and runs it.

    python3 perfbench/run.py --workload fleet|storm|churn --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; build output goes to stderr,
so the last line of stdout is the harness's JSON result. See
perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no CorrOpt sources under %s" % ROOT)
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, configure)
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)
    harness = os.path.join(build_dir, "perfbench")
    # The harness replaces this process, so it is the only one left to
    # wait for and to signal.
    os.execv(harness, [harness, *sys.argv[1:], "--root", ROOT,
                      "--out-dir", build_dir])


if __name__ == "__main__":
    main()
