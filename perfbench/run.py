#!/usr/bin/env python3
"""Build the perfbench benchmark inside the checkout and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig13-64q --seed 1 --seconds 20 --trace 0

Every file the build and the run write stays in the checkout: the Go
build cache, temporary files, toolchain configuration and the binary go
under .bench_build (or $CARGO_TARGET_DIR when set, resolved against the
repository root), and overrun goroutine dumps under
.bench_build/perfbench. The arguments are passed to the benchmark
unchanged, and its exit code is returned. A failed build exits non-zero
without printing a result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark's own deadlines end every run well inside this bound.
RUN_TIMEOUT_S = 175


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode

    child = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)

    def stop(signum, frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: killed after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
