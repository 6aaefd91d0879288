#!/usr/bin/env python3
"""Build and run the time-to-certified-bracket benchmark.

    python3 perfbench/run.py --workload exact-cold --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe from source with dune into .bench_build/,
runs it, and prints its output. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, to which this script adds
peak_rss_mb (the benchmark process's maximum resident set, from
wait4); with --trace 1 they are the per-layer split.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["exact-cold", "sketched-cold", "serve-lineage"]
BUILD_DIR = ".bench_build"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    for need in ("dune-project", "lib"):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a full checkout")

    # The shared dune cache lives outside the checkout; keep the build
    # inside it.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    workdir = os.path.join(BUILD_DIR, "perfbench-work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.Popen(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True)
        lines = []
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if args.trace == 0:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
