#!/usr/bin/env python3
"""Build and run the request-level benchmark of the DASP serving path.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds 10 --trace <0|1>

Workloads: lookup_topk_20k, rank_all13_cu1, live_mixed_10k. The script
builds the perfbench package in release mode (into $CARGO_TARGET_DIR, or
perfbench/target), then runs one workload and passes its output through.
The last line of stdout is the JSON result: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. Each run also writes a run
record (seed, host shape, build profile, commit, metrics) and, traced, its
spans to <target dir>/perfbench-runs/.

It exits non-zero when the build fails (printing no result), and when any
request fails or any answer check finds a wrong answer (the result line
then reads "correct": false).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    """The checkout's git commit, or "unknown" outside a git repository."""
    # Stop git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: no DASP crates next to perfbench/; run it from a full checkout",
              file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "dasp-perfbench")
    runs = os.path.join(target, "perfbench-runs")
    return subprocess.run([binary, *sys.argv[1:], "--out", runs, "--commit", commit()]).returncode


if __name__ == "__main__":
    sys.exit(main())
