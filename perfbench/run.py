#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload gemm-mix --seed 1 --seconds 20 --trace 0

Every argument is passed to the binary. The Go build cache, module cache,
temporary files and the binary all live under the build directory
($CARGO_TARGET_DIR, default .bench_build in the repository root), so the
run reads and writes nothing outside the checkout. The last line of
standard output is the benchmark's JSON result; build output goes to
standard error.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod in %s; the benchmark needs the repository "
              "it measures" % root, file=sys.stderr)
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    dirs = {name: os.path.join(build, name) for name in ("gocache", "gopath", "tmp", "config")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    # Keep the go command's telemetry counters off and inside the build
    # directory (it writes them under the user config directory).
    mode = os.path.join(dirs["config"], "go", "telemetry", "mode")
    os.makedirs(os.path.dirname(mode), exist_ok=True)
    with open(mode, "w") as f:
        f.write("off")
    env = dict(os.environ,
               GOCACHE=dirs["gocache"],
               GOPATH=dirs["gopath"],
               GOMODCACHE=os.path.join(dirs["gopath"], "pkg", "mod"),
               GOTMPDIR=dirs["tmp"],
               XDG_CONFIG_HOME=dirs["config"],
               GOTOOLCHAIN="local",
               GOPROXY="off")
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
