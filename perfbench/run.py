#!/usr/bin/env python3
"""Build `qcp` and the benchmark harness from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-search --seed 1 --seconds 30 --trace 0

Both builds are offline release builds into `$CARGO_TARGET_DIR`
(default `.bench_build`); generated inputs go under
`.bench_build/perfbench-work`. Build output goes to standard error, so the
last line of standard output is the harness's JSON result. Any failure
(build, run, timeout) exits non-zero without printing a result.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("cli-search", "serve-mix", "batch-dedup")
# A run must finish within 180 s; leave room for process teardown.
RUN_TIMEOUT_S = 170


def build(target, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: `{' '.join(cmd)}` failed with {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir("tests/qasm")):
        sys.exit("run.py: run from the repository root (Cargo.toml and tests/qasm needed)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target, ["--bin", "qcp"])
    build(target, ["--manifest-path", os.path.join("perfbench", "Cargo.toml")])

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--qcp", os.path.join(target, "release", "qcp"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    # A process group of its own, so a timeout can stop the harness together
    # with any `qcp` process it started.
    child = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit(f"run.py: perfbench exceeded {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
