#!/usr/bin/env python3
"""Build and run the diagnosis benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds perfbench/bench.exe with dune
into .bench_build/ (release profile, dune cache off), then runs it; the
last line of standard output is the result object.  Exits non-zero
without a result when the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("corpus", "pruned", "batch_faults")


def run(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout,
                            env=dict(os.environ, DUNE_CACHE="disabled"),
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if shutil.which("dune") is None:
        print("run.py: dune not found", file=sys.stderr)
        return 1
    build_dir = os.path.join(BUILD, "dune")
    os.makedirs(BUILD, exist_ok=True)
    code = run(["dune", "build", "--root", ROOT, "--build-dir", build_dir,
                "--profile", "release", "-j", "2", "./perfbench/bench.exe"],
               timeout=850, stdout=sys.stderr)
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    sys.stdout.flush()
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    return run([exe, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--work-dir", os.path.join(BUILD, "work"),
                "--reference", os.path.join(HERE, "reference_chains.json")],
               timeout=170, stdout=None)


if __name__ == "__main__":
    sys.exit(main())
