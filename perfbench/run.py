#!/usr/bin/env python3
"""Build the rrs benchmark from source and run it.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build` under the current directory); its output is sent to
standard error so the benchmark's last line of standard output stays its
JSON result. The exit code is the benchmark's, or the build's if the build
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
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
        print("error: the benchmark did not build", file=sys.stderr)
        return build.returncode
    rustc = subprocess.run(
        ["rustc", "--version"], capture_output=True, text=True, env=env
    ).stdout.strip()
    binary = os.path.join(target, "release", "rrs-perfbench")
    return subprocess.run([binary, *sys.argv[1:], "--rustc", rustc or "unknown"]).returncode


if __name__ == "__main__":
    sys.exit(main())
