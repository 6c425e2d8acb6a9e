#!/usr/bin/env python3
"""Build the perfbench binary from source, then run it with the given flags.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload node-capped --seed 1 --seconds 10 --trace 0

Every build product (binary, Go build cache, span files) goes under
.bench_build/ in the checkout, so nothing outside the checkout is written.
Go is incremental: only the first run in a checkout compiles everything.
The last line the benchmark prints is its JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOMODCACHE": "gomodcache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        # The go command keeps its settings and telemetry under the user
        # config directory; point it inside the checkout too.
        "XDG_CONFIG_HOME": "config",
    }
    for key, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    # The benchmark module needs nothing beyond the repository itself:
    # never reach for a toolchain, proxy or checksum database.
    env.update(GOFLAGS="-mod=readonly", GOWORK="off", GOTOOLCHAIN="local",
               GOPROXY="off", GOSUMDB="off", CGO_ENABLED="0")
    return env


def main():
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary] + sys.argv[1:] + ["--trace-dir", os.path.join(BUILD, "traces")]
    # Replace this process, so that the benchmark is the only process left
    # and its exit code is the command's.
    os.execv(binary, args)
    return 1


if __name__ == "__main__":
    sys.exit(main())
