#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); its output goes to standard error, so the
benchmark's own result line stays the last line of standard output.
The exit code is the build's when it fails, else the benchmark's.

The benchmark runs with glibc's malloc arenas capped at two
(MALLOC_ARENA_MAX, unless already set). Uncapped, whether a short-lived
worker thread reuses a freed arena or creates a new one is a race, which
makes peak RSS bimodal from run to run.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    env.setdefault("MALLOC_ARENA_MAX", "2")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
