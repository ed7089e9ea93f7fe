#!/usr/bin/env python3
"""Serving benchmark: one workload, one seed, one fresh process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload adaptive-distinct --seed 1 \\
        --seconds 12 --trace 0

Prints a human-readable report, then, as the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics,
measured with no tracing installed; ``--trace 1`` installs the per-layer
wrappers and the program's trace collector and reports the per-layer
metrics instead. The full record (provenance, phases, gates, both metric
sets) is also written under ``perfbench/.work/out/``.

Exits non-zero, printing no result, when the program's sources are not
next to the benchmark or a run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_qps": "req/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE.parent))
    from perfbench import env

    if not env.program_available():
        print(f"perfbench: program sources not found under {env.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(env.SRC))
    from perfbench import layers, workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; pick from "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    provenance = env.provenance(args.seed)
    provenance["pinned_cpu"] = env.pin_to_one_cpu()
    dirs = env.RunDirs(f"{args.workload}-{args.seed}").enter()
    sampler = env.RssSampler().start()
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), dirs)
    started = time.perf_counter()
    try:
        if run.trace:
            run.tracer = layers.LayerTracer().install()
        result = workloads.WORKLOADS[args.workload](run)
    finally:
        peak_rss_mb = sampler.stop()
        if run.tracer is not None:
            run.tracer.uninstall()
        dirs.cleanup()
        leftover = env.stop_children()
    result.metrics["peak_rss_mb"] = peak_rss_mb
    if leftover:
        result.info["children_stopped_at_exit"] = leftover

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "provenance": provenance,
        "end_to_end": result.metrics,
        "per_layer": result.layers,
        "phases": result.phases,
        "gates": result.gates,
        "info": result.info,
        "attempted": result.attempted,
        "failed": result.failed,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.trace and run.collector is not None:
        from repro.evaluation.instrument import write_trace

        write_trace(dirs.out / f"{tag}.trace.jsonl", run.collector)
    env.write_json(dirs.out / f"{tag}.json", record)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for phase in result.phases:
        print("phase " + json.dumps(phase, sort_keys=True))
    print("gates " + json.dumps(result.gates, sort_keys=True, default=str))
    for name, value in result.metrics.items():
        print(f"  {name:<34} {value:14.4f} {END_TO_END_UNITS[name]}")
    if run.trace:
        for name, unit in layers.PER_LAYER_UNITS.items():
            print(f"  {name:<34} {result.layers[name]:14.4f} {unit}")
        chosen, units = result.layers, layers.PER_LAYER_UNITS
    else:
        chosen, units = result.metrics, END_TO_END_UNITS
    summary = {
        "correct": result.wrong == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(chosen[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
