#!/usr/bin/env python3
"""Build the QVISOR benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fabric-paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py compare old.txt new.txt

Every argument is passed to the benchmark binary (see main.go). The build
and the Go caches stay under .bench_build/ at the repository root, so a
run reads and writes nothing outside the checkout. The exit code is the
benchmark's: non-zero on a build failure or a correctness breach.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOFLAGS="",
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE,
                           env=go_env(), stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
