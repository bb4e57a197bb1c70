#!/usr/bin/env python3
"""Builds and runs the HAP benchmark.

    python3 perfbench/run.py --workload cold_grid|hit_storm \
        --seed N --seconds S --trace 0|1

Builds, offline and in release mode, the `perfbench` binary (a Cargo
workspace of its own in this directory, depending on the repository's
crates by path) and the `hap-serve` daemon, into $CARGO_TARGET_DIR
(default: .bench_build at the checkout root). Then runs the workload from
the checkout root. Build output goes to stderr; the last line of standard
output is the run's JSON result, and the exit code is non-zero when the
build or any output check fails. Traced runs write their spans under
.perfbench_out/ at the checkout root.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(here, "Cargo.toml"),
        "-p", "perfbench", "-p", "hap-service", "--bin", "perfbench", "--bin", "hap-serve",
    ]
    if subprocess.run(build, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    release = os.path.join(target, "release")
    run = [
        os.path.join(release, "perfbench"), *sys.argv[1:],
        "--serve-bin", os.path.join(release, "hap-serve"),
        "--out", os.path.join(root, ".perfbench_out"),
    ]
    return subprocess.run(run, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
