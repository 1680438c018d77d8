#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and prints each end-to-end
metric's spread against its bound from BENCHMARK.json.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--rounds 1]

Each run uses another seed (1..runs). A metric's spread is the distance
between the first and third quartile of its values (statistics.quantiles,
n=4) as a share of their median. A spread passes when it is under a third
of the metric's bound; setup_s is reported but not held to that. With
--rounds 2 the whole set is run twice and each metric's second median must
not be worse than the first by more than its bound. Exits 1 when a check
fails. Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    result = json.loads(last) if proc.returncode == 0 else None
    if result is None or not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {proc.returncode}): {last[:300]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), med


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=1, choices=[1, 2])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        medians = []
        for rnd in range(args.rounds):
            runs = [run_once(workload, seed, args.seconds)
                    for seed in range(1, args.runs + 1)]
            print(f"{workload} round {rnd + 1}: {args.runs} runs")
            print(f"  {'metric':<22} {'median':>14} {'spread':>8} "
                  f"{'bound':>6}  verdict")
            row = {}
            for m in spec["end_to_end"]:
                values = [r[m["name"]] for r in runs]
                s, med = spread(values)
                row[m["name"]] = med
                passed = m["name"] == "setup_s" or s < m["bound"] / 3
                ok &= passed
                print(f"  {m['name']:<22} {med:>14.6g} {s:>8.3f} "
                      f"{m['bound']:>6.2f}  "
                      f"{'ok' if passed else 'SPREAD OVER BOUND/3'}")
            medians.append(row)
        if args.rounds == 2:
            for m in spec["end_to_end"]:
                a, b = medians[0][m["name"]], medians[1][m["name"]]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                if worse > m["bound"]:
                    ok = False
                    print(f"  {m['name']}: second median worse by "
                          f"{worse:.3f} > bound {m['bound']}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
