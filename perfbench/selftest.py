#!/usr/bin/env python3
"""The benchmark's own tests, at the tiny correctness-only scale.

    python3 perfbench/selftest.py

For every workload, untraced and traced: the run exits 0, every operation
returns the serial ground truth's bytes, none fails, and every metric of
BENCHMARK.json is printed with its unit (run.py checks the last two). Then
the benchmark must refuse to run, without printing a result, from a
directory holding only BENCHMARK.json and perfbench/. Run from the root of
a checkout; scratch files go below $CARGO_TARGET_DIR (default .bench_build).
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            last = proc.stdout.rstrip("\n").split("\n")[-1]
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                result = None
            ok = (proc.returncode == 0 and result is not None
                  and result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0)
            print(f"{workload} trace={trace}: {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{workload} trace={trace}: exit "
                                f"{proc.returncode}\n{proc.stderr[-2000:]}")

    # A directory with only the benchmark's own files cannot build it.
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bare = os.path.join(ROOT, target, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_lookup",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)
    refused = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"bare directory refused: {'ok' if refused else 'FAIL'}")
    if not refused:
        failures.append("bare directory produced a result")
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
