"""Steadiness runner: repeat workloads over seeds and print, per metric, the
median, the quartiles and the quartile spread as a share of the median
(the figure each end-to-end bound in BENCHMARK.json is checked against).

    python3 perfbench/steady.py --runs 10                     # every workload
    python3 perfbench/steady.py --workloads serve-churn --runs 5
    python3 perfbench/steady.py --runs 5 --overhead           # + traced runs

``--overhead`` also makes traced runs with the same seeds and prints each
end-to-end metric's tracing overhead: traced median minus untraced median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's metric values, plus its wall time under ``wall_s``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    begin = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - begin
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: {result['failed']} failed operations", flush=True)
    return {**{name: m["value"] for name, m in result["metrics"].items()}, "wall_s": wall}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def table(runs: list[dict], bounds: dict) -> dict:
    """Print each metric's median, quartiles and spread; return the medians."""
    print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} bound")
    medians = {}
    for name in runs[0]:
        med, q1, q3, share = spread([r[name] for r in runs])
        medians[name] = med
        bound = bounds.get(name)
        flag = "" if bound is None or share < bound / 3 else "  <-- above bound/3"
        print(f"  {name:32s} {med:12.4f} {q1:12.4f} {q3:12.4f} {share:8.4f} {bound}{flag}")
    return medians


def repeat(workload: str, seeds: range, seconds: int, trace: int) -> list[dict]:
    runs = []
    for seed in seeds:
        runs.append(run_once(workload, seed, seconds, trace))
        print(f"  seed {seed}: " + " ".join(
            f"{name}={value:.4g}" for name, value in runs[-1].items()), flush=True)
    return runs


def main(argv: list[str]) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for workload in args.workloads:
        print(f"== {workload}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}")
        medians = table(repeat(workload, seeds, args.seconds, 0), bounds)
        if args.overhead:
            print(f"== {workload} traced")
            traced = table(repeat(workload, seeds, args.seconds, 1), {})
            print("  tracing overhead (traced median - untraced median):")
            for name, med in medians.items():
                if f"traced.{name}" in traced:
                    t_med = traced[f"traced.{name}"]
                    print(f"  {name:32s} {t_med - med:+12.4f}  ({t_med:.4f} vs {med:.4f})")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
