#!/usr/bin/env python3
"""Build `noc_serve` and the `perfbench` driver from source, then run one
measurement.

Run from the repository root:

    python3 perfbench/run.py --workload fig11_cold --seed 0 --seconds 10 --trace 0

Builds go to $CARGO_TARGET_DIR (default `.bench_build`); the driver's
scratch cache directories and span files go under `<target>/perfbench-work`.
Cargo's output is sent to stderr, so the last line of stdout is the
driver's JSON result.
"""

import os
import subprocess
import sys


def main() -> int:
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "bench"))):
        print("run.py: run from the repository root (no Cargo.toml or crates/bench here)", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    for build in (["-p", "noc-bench", "--bin", "noc_serve"], ["--manifest-path", os.path.join("perfbench", "Cargo.toml")]):
        if subprocess.run(cargo + build, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed", file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    driver = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--daemon", os.path.join(release, "noc_serve"),
        "--work", os.path.join(target, "perfbench-work"),
    ]
    return subprocess.run(driver).returncode


if __name__ == "__main__":
    sys.exit(main())
