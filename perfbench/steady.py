"""Steadiness of one workload's metrics across runs with different seeds.

    python3 perfbench/steady.py --workload NAME [--runs K] [--first-seed S]
                                [--seconds T] [--trace 0|1]

Runs perfbench/run.py K times (seeds S, S+1, ...) one after another, and
prints for each metric its median, first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile spread as a
share of the median. End-to-end metrics also show their bound from
BENCHMARK.json and whether the spread is within a third of it; setup_s is
exempt from that test. The share of failed operations must be the same in
every run. --seconds defaults to BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    shares = set()
    all_correct = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode not in (0, 1):
            print(f"seed {seed}: run.py exited {proc.returncode}: {proc.stderr.strip()}",
                  file=sys.stderr)
            return 2
        result = json.loads(proc.stdout.splitlines()[-1])
        all_correct &= result["correct"]
        shares.add(Fraction(result["failed"], result["attempted"]))
        summary = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            summary.append(f"{name}={metric['value']:.6g}")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(summary), flush=True)

    steady = True
    print(f"\n{args.workload}, {args.runs} runs of {args.seconds:g} s, trace {args.trace}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        line = f"{name:34} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3%}"
        if name in bounds:
            line += f" {bounds[name]:6.2f}"
            if name != "setup_s" and spread > bounds[name] / 3:
                line += "  spread above a third of the bound"
                steady = False
        print(line)
    if len(shares) > 1:
        print(f"failed shares differ between runs: {sorted(map(str, shares))}")
        steady = False
    print(f"correct in every run: {all_correct}; steady: {steady}")
    return 0 if all_correct and steady else 1


if __name__ == "__main__":
    sys.exit(main())
