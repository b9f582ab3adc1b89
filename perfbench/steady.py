#!/usr/bin/env python3
"""Steadiness and seed checks for the benchmark.

Runs the command in BENCHMARK.json from the repository root, once per seed,
and prints for every end-to-end metric the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound:

    python3 perfbench/steady.py --workload online --seeds 1-10 --seconds 20

With --shares A,B it instead makes one traced run per seed and prints each
layer's share of the traced self time side by side, to show that a
held-out seed keeps every layer in the same band.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return lines[:-1], json.loads(lines[-1])


def steadiness(bench, workload, seeds, seconds):
    values = {}
    for seed in seeds:
        _, result = run(bench["command"], workload, seed, seconds, False)
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {seed} was incorrect: {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"  seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    print(f"{workload}: {len(seeds)} runs of {seconds} s")
    worst = 0.0
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        q1, median, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / median
        if name != "setup_s":
            worst = max(worst, spread / bound)
        flag = "" if spread < bound / 3 else ("  ABOVE A THIRD OF THE BOUND"
                                               if spread <= bound else "  ABOVE THE BOUND")
        print(f"  {name:12} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:6.3f}  bound {bound}{flag}")
    print(f"  worst spread / bound (setup_s excluded): {worst:.3f}")


def shares(bench, workload, seeds, seconds):
    table = {}
    for seed in seeds:
        lines, result = run(bench["command"], workload, seed, seconds, True)
        if not result["correct"]:
            sys.exit(f"{workload} traced seed {seed} was incorrect")
        for line in lines:
            match = re.match(r"\s*self time (\S+): [\d.]+ ms \(([\d.]+)%", line)
            if match:
                table.setdefault(match.group(1), {})[seed] = float(match.group(2))
    print(f"{workload}: share of traced self time per layer, seeds {seeds}")
    for layer, by_seed in sorted(table.items()):
        row = [by_seed.get(seed, 0.0) for seed in seeds]
        print(f"  {layer:8} " + "  ".join(f"{v:5.1f}%" for v in row)
              + f"   range {max(row) - min(row):4.1f} points")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--shares", help="two or more seeds for the traced share check")
    options = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = options.seconds or bench["run_seconds"]
    for workload in options.workload:
        if options.shares:
            shares(bench, workload, seeds_of(options.shares), seconds)
        else:
            steadiness(bench, workload, seeds_of(options.seeds), seconds)


if __name__ == "__main__":
    main()
