#!/usr/bin/env python3
"""Build and run the ftb benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (a workspace of its own, on the library
crates in `crates/`) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs one workload in its own process, and passes its
output through: the last line of standard output is the JSON result.
Ledgers, spans and the exact-repeat record go to `<target dir>/perfbench/`.
The exit code is non-zero, with no result printed, if the build, the run or
the exact-repeat check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run must end within 180 s; the slowest measured run, a traced
# exhaustive-jacobi run on a slow host, took about 40 s.
RUN_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--locked", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "perfbench")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out", os.path.join(target, "perfbench"),
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising
        print(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print(f"perfbench: {args.workload} exited with {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
