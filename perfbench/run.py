#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in its own process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload recovery-sweep --seed 1 --seconds 30 --trace 0

The Go build cache, the binary, traces and CPU profiles all live under
.bench_build/ in the checkout, so the benchmark reads and writes nothing
outside it. The last line of standard output is the result JSON; every
argument is passed through to the benchmark binary (see README.md).
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850  # the first build compiles the standard library
RUN_TIMEOUT_S = 175


def main() -> int:
    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "bin", "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        # Go keeps its env file and telemetry counters in the user config
        # directory; point that into the checkout too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    try:
        subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=bench_dir, env=env, check=True, timeout=BUILD_TIMEOUT_S,
            stdout=sys.stderr,
        )
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    # Regenerating golden digests recomputes many batches; it has no limit.
    timeout = None if "--write-golden" in sys.argv else RUN_TIMEOUT_S
    try:
        done = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=timeout)
    except (OSError, subprocess.SubprocessError) as e:
        # subprocess.run kills the child on timeout and waits for it.
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
