#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload rebuild|tune|serve --seed N \
        --seconds S --trace 0|1

The program is built into .bench_build/, and the go command's cache,
temporary files and config (telemetry) are kept there too, so nothing is
written outside the checkout. Arguments are passed through;
the exit status is the program's (or the build's, when the build fails, in
which case no result line is printed).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main() -> int:
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="-mod=readonly -buildvcs=false",
        GOENV="off",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
