#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <fleet_boot|pal_mix|durable_journal> \
        --seed <n> --seconds <s> --trace <0|1>

The release build goes to $CARGO_TARGET_DIR (default: .bench_build at
the repository root); cargo's output goes to standard error, so the last
line of standard output is the benchmark's JSON result. A traced run
also writes its spans, as a Chrome trace-event file, to
<target dir>/perfbench-traces/<workload>-seed<n>.json. The exit code is
the binary's, or cargo's if the build fails.
"""

import os
import subprocess
import sys


def flag(argv, name):
    """The value following `name` in argv, or None."""
    for i, arg in enumerate(argv[:-1]):
        if arg == name:
            return argv[i + 1]
    return None


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = list(argv)
    if flag(args, "--trace") == "1" and flag(args, "--trace-out") is None:
        name = "{}-seed{}.json".format(flag(args, "--workload"), flag(args, "--seed"))
        args += ["--trace-out", os.path.join(target, "perfbench-traces", name)]
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
