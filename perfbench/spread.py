#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the tracing overhead.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload cluster-plain --seeds 1-10
    python3 perfbench/spread.py --trace-table --seed 7

The first form runs the workload once per seed, each in a fresh process,
and prints for every end-to-end metric its median and the distance
between its first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``). Compare that share with the
metric's ``bound`` in ``BENCHMARK.json``.

The second form runs every workload twice on one seed, untraced and
traced, prints the per-layer table, and reports the tracing overhead as
traced minus untraced ``latency_p50_ms``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns its final JSON line."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(part) for part in text.split("-", 1))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace-table", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in config["workloads"]]

    if args.trace_table:
        table: dict[str, dict] = {}
        overhead: dict[str, float] = {}
        for workload in workloads:
            plain = run_once(workload, args.seed, args.seconds, 0)
            traced = run_once(workload, args.seed, args.seconds, 1)
            table[workload] = traced["metrics"]
            overhead[workload] = (
                traced["metrics"]["traced.latency_p50_ms"]["value"]
                - plain["metrics"]["latency_p50_ms"]["value"]
            )
        names = [m["name"] for m in config["per_layer"]]
        print(f"{'layer metric':<32}" + "".join(f"{w:>22}" for w in workloads))
        for name in names:
            cells = "".join(f"{table[w][name]['value']:>22.4f}" for w in workloads)
            print(f"{name:<32}{cells}")
        cells = "".join(f"{overhead[w]:>22.4f}" for w in workloads)
        print(f"{'tracing overhead p50 ms':<32}{cells}")
        return 0

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload in workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in parse_seeds(args.seeds)]
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        print(f"{workload}: {len(runs)} runs, {len(bad)} incorrect or failing")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, share = spread(values)
            flag = "ok" if share <= bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
            print(
                f"  {name:<18} median {median:12.4f}  iqr/median {share:7.4f}"
                f"  bound {bound:5.3f}  {flag}   values {[round(v, 3) for v in values]}"
            )
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
