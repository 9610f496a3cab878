#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload run|verify|session --seed N \
        --seconds T --trace 0|1

Builds perfbench/wbbench.exe with dune (from source, shared cache off so
nothing is written outside the checkout), runs it once and relays its
output: the last line of standard output is the JSON result.  Exits
non-zero without printing a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGET = os.path.join("_build", "default", "perfbench", "wbbench.exe")


def run(cmd, timeout, **kwargs):
    """Run cmd to completion; kill it and wait if it outlives timeout."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("perfbench: %s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build = ["dune", "build", "--root", ".", "--cache=disabled", "-j", "2",
             "--display=quiet", "./perfbench/wbbench.exe"]
    try:
        code, _ = run(build, BUILD_TIMEOUT_S, stdout=sys.stderr)
    except FileNotFoundError:
        sys.exit("perfbench: dune not found on PATH")
    if code != 0 or not os.path.exists(TARGET):
        sys.exit("perfbench: build failed (exit %d)" % code)

    bench = [TARGET, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out = run(bench, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if code != 0:
        sys.exit("perfbench: wbbench exited with %d" % code)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
