#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload point_lookup --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The driver binary is built from source with
CMake under $CARGO_TARGET_DIR (default .bench_build) on first use. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; with --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list. --tiny runs the
correctness-only scale of the benchmark's self-test (selftest.py).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build(build_dir, env):
    """Configures (once) and builds idf_perfbench; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as out:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=out, stderr=subprocess.STDOUT, env=env, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                        "--target", "idf_perfbench"],
                       stdout=out, stderr=subprocess.STDOUT, env=env,
                       check=True)
    return os.path.join(build_dir, "idf_perfbench")


def wanted_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["point_lookup", "mixed_spill",
                                 "batch_analytics"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    wanted = wanted_metrics(args.trace)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    work = os.path.join(ROOT, target)
    # The engine reads IDF_* knobs from the environment; a run is configured
    # by its arguments alone. Temporary files (the compiler's too) stay in
    # the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("IDF_")}
    env["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        binary = build(os.path.join(work, "perfbench"), env)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed ({e}); see {work}/perfbench/build.log")
        return 1

    out_dir = os.path.join(work, "perfbench-out",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        # Spill segments are scratch; spans of traced runs are kept.
        shutil.rmtree(os.path.join(out_dir, "spill"), ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        full = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"no result from idf_perfbench (exit {proc.returncode})")
        return 1
    print("context: " + json.dumps(full["context"]))

    metrics = {}
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            log(f"metric {m['name']} missing or mis-unit: {got}")
            return 1
        metrics[m["name"]] = got
    result = {"correct": bool(full["correct"]),
              "attempted": int(full["attempted"]),
              "failed": int(full["failed"]),
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
