#!/usr/bin/env python3
"""Builds and runs the ParaLift end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload rodinia-exec --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --figures

The first run configures and builds perfbench/ (which pulls in the
library from the repository root) into .bench_build/perfbench; later runs
only rebuild what changed. The benchmark runs at one thread per CPU this
process may use, at most 8. Its result is the last line of stdout; build
output and the human-readable report go to stderr. Any failure exits
non-zero without printing a result.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
MAX_THREADS = 8


def build():
    """Configures once, then builds incrementally. Configuring again would
    refresh the library's build stamp and rebuild it on every run."""
    jobs = str(min(len(os.sched_getaffinity(0)), 4))
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--figures", action="store_true")
    args = ap.parse_args()
    if not (args.self_check or args.figures or args.workload):
        ap.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    threads = min(len(os.sched_getaffinity(0)), MAX_THREADS)
    cmd = [BINARY, "--threads", str(threads)]
    if args.self_check or args.figures:
        cmd.append("--self-check" if args.self_check else "--figures")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
