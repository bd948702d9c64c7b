#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <market|drift|batch|monitor> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The binary is built with
`cargo build --release --offline` into `$CARGO_TARGET_DIR` (default
`.bench_build`); build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. A traced run also writes
its spans to `<target dir>/perfbench-spans/`. The exit code is the
benchmark's, or the build's when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # The runtime pool keeps its default width (the machine's cores).
    env.pop("PRC_THREADS", None)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "prc-perfbench")
    spans = os.path.join(target, "perfbench-spans")
    run = subprocess.run([binary, *sys.argv[1:], "--spans-dir", spans], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
