#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grade --seed 1 --seconds 25 --trace 0

The OCaml executable perfbench/main.exe is built with dune into
.bench_build/ (release profile, shared dune cache off, so nothing is
written outside the checkout) and run with the same arguments.  Its last
line of standard output is the result JSON.  When the build or the run
fails, the exit code is not 0 and no result is printed.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
