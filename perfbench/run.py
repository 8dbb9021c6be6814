#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dse-cold --seed 1 --seconds 20 --trace 0

The script compiles the benchmark (a Go module in this directory that
builds the repository from source through a local replace) into
.bench_build/, keeping the Go build cache, temporary files and module
state there too, then runs it once with the given arguments under a hard
timeout. The benchmark prints its result as the last line of standard
output. A failed build, a failed run or a timeout exits non-zero.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    go = shutil.which("go")
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 2

    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("HOME", "home"), ("XDG_CONFIG_HOME", "home/config"),
                     ("XDG_CACHE_HOME", "home/cache")]:
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOENV="off", GOTOOLCHAIN="local", GOPROXY="off", GOSUMDB="off", GOFLAGS="")

    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if built.returncode != 0:
        sys.stderr.write(built.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 2

    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env,
                             stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    if run.returncode != 0:
        # Pass the run's own output through, but never a result line.
        sys.stderr.write(run.stdout.decode(errors="replace"))
        return run.returncode
    sys.stdout.write(run.stdout.decode(errors="replace"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
