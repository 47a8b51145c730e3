"""Repeat a workload and summarise how its end-to-end metrics spread.

    python3 perfbench/spread.py --workload certify --runs 10 --seconds 25

Runs ``run.py`` once per seed (``--first-seed`` onwards), one run at a time,
from the current directory, which must be the root of a checkout.  For each
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``),
the spread (interquartile distance over the median) and the drift: the
median of the second half of the runs against the first half, as a share of
the first.  The bounds in BENCHMARK.json are set from these figures.  It also
checks that every run was correct and that the failed share never changed.
Raw results are appended to perfbench/results/<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    half = len(values) // 2
    first, second = statistics.median(values[:half]), statistics.median(values[half:])
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "drift": (second - first) / first}


def repeat(workload: str, runs: int, first_seed: int, seconds: float) -> int:
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    log_path = os.path.join(HERE, "results", f"{workload}.jsonl")
    records = []
    for seed in range(first_seed, first_seed + runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return 1
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-1])
        record["seed"] = seed
        record["notes"] = lines[:-1]
        records.append(record)
        with open(log_path, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
        ref = next((line for line in lines if line.startswith("speed reference")), "")
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in record["metrics"].items())
        print(f"seed {seed}: correct={record['correct']} failed={record['failed']}/{record['attempted']} "
              f"{shown} | {ref}", flush=True)

    ok = all(r["correct"] for r in records)
    shares = {(r["failed"], r["attempted"]) for r in records}
    same_share = len({f * 1.0 / a for f, a in shares}) == 1
    print(f"\n{workload}: {runs} runs, all correct: {ok}, failed share constant: {same_share}")
    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'drift':>8}")
    for name in records[0]["metrics"]:
        s = summarise([r["metrics"][name]["value"] for r in records])
        print(f"{name:<40} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g} "
              f"{s['spread']:>8.2%} {s['drift']:>+8.2%}")
    return 0 if ok and same_share else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    args = ap.parse_args()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    for name in names:
        code |= repeat(name, args.runs, args.first_seed, args.seconds)
    return code


if __name__ == "__main__":
    sys.exit(main())
