#!/usr/bin/env python3
"""Build and run one workload of the simulator benchmark.

Run from the repository root:

    python3 simbench/run.py --workload sweep-small --seed 1 --seconds 45 --trace 0

Builds `simbench` (its own Cargo package, release profile) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs it. The last line of
stdout is the JSON result; the `# host` line before it records the host.
Recorded traces, span dumps and digests go to `simbench/work/`.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sweep-small", "serve-gshare"]


def fact(cmd):
    """First line of a command's output, or 'unknown'."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "harness", "Cargo.toml")):
        print("simbench: no simulator sources next to the benchmark; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=700)
    if build.returncode != 0:
        print("simbench: build failed", file=sys.stderr)
        return build.returncode

    # A checkout without its own .git (an exported tree) has no commit;
    # asking git there would report whatever repository encloses it.
    commit = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = fact(["git", "rev-parse", "HEAD"])

    work = os.path.join(HERE, "work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # The in-process server spools uploads under the temp directory.
    env["TMPDIR"] = tmp
    cmd = [
        os.path.join(target, "release", "simbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", ROOT,
        "--work", work,
        "--clk-tck", str(os.sysconf("SC_CLK_TCK")),
        "--rustc", fact(["rustc", "-V"]),
        "--commit", commit,
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("simbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
