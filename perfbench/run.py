#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 15 --trace 0

The Go program in this directory is built into .bench_build/ at the
repository root, with its build cache there too, so the benchmark reads
and writes nothing outside the checkout. Arguments are passed to the
program unchanged; its standard output, whose last line is the JSON
result, and its exit status are the benchmark's. The build's own output
goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    os.makedirs(BUILD, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(BUILD, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", exe, "."], cwd=HERE, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
