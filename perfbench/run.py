#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload jbb|javac_stw --seed N \
        --seconds S --trace 0|1

Run from the repository root. The binary is built with cargo (offline)
into $CARGO_TARGET_DIR, or `.bench_build` when it is unset, and then
run with the same arguments from the repository root. Its standard
output is passed through; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. METRICS.md defines the
metrics.

Exits non-zero without a result when the build fails (for example when
the collector's sources are not present), when the run fails or times
out, or when the last line is not a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main(argv):
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    binary = os.path.join(target, "release", "perfbench")
    try:
        ran = subprocess.run([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(ran.stdout)
    sys.stdout.flush()
    if ran.returncode != 0:
        print(f"perfbench: run exited with {ran.returncode}", file=sys.stderr)
        return ran.returncode
    lines = ran.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: no result line", file=sys.stderr)
        return 4
    if set(result) != RESULT_KEYS:
        print(f"perfbench: result keys {sorted(result)}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
