#!/usr/bin/env python3
"""Build and run the host-time benchmark from the root of a checkout.

    python3 perfbench/run.py --workload overload --seed 1 --seconds 20 --trace 0

Builds the perfbench Go module (which imports the repository's internal
packages through a replace directive) into .bench_build/, then runs it with
the given arguments. Everything the build and the run write stays under
.bench_build/. The last line of standard output is the result as JSON; the
exit code is non-zero if the build fails, the run fails, or an output check
fails.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOMAXPROCS": "2",
    })
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."],
                               cwd=bench, env=env, timeout=BUILD_TIMEOUT_S,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print(f"perfbench: build failed:\n{build.stdout}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
    try:
        run = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
