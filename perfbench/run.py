#!/usr/bin/env python3
"""Builds the benchmark and the shipped server from source, then runs
workloads of the benchmark.

    python3 perfbench/run.py --workload lookup-uniform|serve-mixed|ingest-churn|all \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. Cargo builds into $CARGO_TARGET_DIR when
it is set, else into ./target. Cargo's own output goes to standard error.
For one workload, the last line of standard output is its JSON result
(see README.md beside this file); `all` runs the three in turn, each
ending in its own JSON line. The exit code is the worst run's: 0 when
every answer was right, 1 on a wrong answer or a lost write, 2 on bad
arguments or a failed set-up, 124 when a run overstays its time limit.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["lookup-uniform", "serve-mixed", "ingest-churn"]
# A run measures for --seconds plus set-up; nothing legitimate takes this
# long, and a run is allowed 180 s.
RUN_TIMEOUT_S = 170


def build(target):
    """Builds the benchmark package and the cobtree-serve binary."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    commands = [
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "cobtree-serve", "--bin", "cobtree-serve"],
    ]
    for command in commands:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(command)}", file=sys.stderr)
            sys.exit(done.returncode)


def run_one(target, args):
    """Runs the benchmark binary once; returns its exit code."""
    command = [
        os.path.join(target, "release", "cobtree-perfbench"),
        *args,
        "--serve-bin", os.path.join(target, "release", "cobtree-serve"),
        "--out-dir", os.path.join(HERE, "out"),
    ]
    # Its own process group, so a run that overstays is stopped together
    # with the server it started.
    run = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return run.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124
    finally:
        stop_group(run)


def stop_group(run):
    """Kills whatever is left of the run's process group and reaps the run."""
    try:
        os.killpg(run.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    run.wait()


def main():
    target = os.environ.get("CARGO_TARGET_DIR", "target")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build(target)
    args = sys.argv[1:]
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "all":
        at = args.index("--workload") + 1
        codes = []
        for workload in WORKLOADS:
            args[at] = workload
            sys.stdout.flush()
            codes.append(run_one(target, args))
        sys.exit(max(codes))
    sys.exit(run_one(target, args))


if __name__ == "__main__":
    main()
