#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload crash-selective-redo --seed 1 --seconds 10 --trace 0

The arguments are passed to the program unchanged. The build and all of Go's
caches live under the build directory ($CARGO_TARGET_DIR when set, else
.bench_build), so nothing outside the checkout is read or written besides the
Go toolchain itself. The exit code is the program's; a failed build exits 1
without printing a result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOTMPDIR=os.path.join(build_dir, "tmp"),
        GOPATH=os.path.join(build_dir, "gopath"),
        GOMODCACHE=os.path.join(build_dir, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(build_dir, "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-o", exe, "."],
            cwd=bench_dir, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
