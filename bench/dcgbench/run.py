#!/usr/bin/env python3
"""Build dcgbench from this checkout and run one workload.

    python3 bench/dcgbench/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

NAME is sim-int, sim-mem, grid-figures or serve-grid. The first call
configures and builds bench/dcgbench (Release + LTO) into .bench_build
at the repository root; later calls only rebuild what changed. The
benchmark's last line of standard output is its JSON result. Exits
non-zero without a result when the simulator sources are missing or
the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
# A run measures at most 120 s plus set-up and checks; stop a hung one
# well before anyone else's time limit.
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("dcgbench: no simulator sources under " + ROOT + "/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "dcgbench"],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sim-int", "sim-mem", "grid-figures",
                             "serve-grid"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit("dcgbench: build failed: " + str(e))

    cmd = [os.path.join(BUILD, "dcgbench"),
           "--workload=" + args.workload,
           "--seed=" + str(args.seed),
           "--seconds=" + repr(args.seconds),
           "--trace=" + str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("dcgbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
