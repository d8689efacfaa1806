#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The release build goes to $CARGO_TARGET_DIR
(default: .bench_build under the current directory); Cargo's own output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. The exit code is the build's when the build
fails, the benchmark's otherwise.
"""

import os
import subprocess
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent / "Cargo.toml"


def main() -> int:
    args = sys.argv[1:]
    try:
        trace = args[args.index("--trace") + 1]
    except (ValueError, IndexError):
        print("run.py: missing --trace 0|1", file=sys.stderr)
        return 2
    binary = {"0": "perfbench", "1": "traced"}.get(trace)
    if binary is None:
        print(f"run.py: --trace must be 0 or 1, got {trace!r}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env["CARGO_TARGET_DIR"] = str(target)
    env["CARGO_NET_OFFLINE"] = "true"
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
         "--manifest-path", str(MANIFEST)],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return build.returncode
    return subprocess.run([str(target / "release" / binary), *args], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
