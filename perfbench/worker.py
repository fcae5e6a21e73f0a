"""One execution of one workload in a fresh process.

Run by ``run.py``, never imported by it.  Set-up time runs from the moment
the parent started this process (``--spawned``, a ``time.monotonic``
reading, which is system-wide on Linux) to the first timed call, so it
covers interpreter start, importing numpy, scipy and ``qndspin``, and
building the workload's inputs.  The timed region is the workload's
``execute``; the checks run after it.  The result is written as JSON to
``<out-dir>/result.json``, and a traced execution also writes its spans to
``<out-dir>/spans.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy  # noqa: F401  (import cost belongs to set-up)
import scipy  # noqa: F401

import qndspin.cli  # noqa: F401  (imports every layer)

import tracer as tracing
import workloads

# Per-layer metrics named after one function: (metric, function, field).
FUNCTION_METRICS = (
    ("nv.scan_2d.total_s", "nv.scan_2d", "fn_total"),
    ("nv.tolerance_profile.total_s", "nv.tolerance_profile", "fn_total"),
    ("stability.dephasing_map.calls", "stability.dephasing_map", "fn_calls"),
    ("stability.survival_curve.total_s", "stability.survival_curve", "fn_total"),
    ("stability.survival_ensemble.total_s", "stability.survival_ensemble", "fn_total"),
    ("control.solve_waiting_time.calls", "control.solve_waiting_time", "fn_calls"),
    ("control.solve_waiting_time.total_s", "control.solve_waiting_time", "fn_total"),
    ("rotations.rotor_exp.calls", "rotations.rotor_exp", "fn_calls"),
    ("hyperfine.exact_dd_evolution.total_s", "hyperfine.exact_dd_evolution", "fn_total"),
    ("trajectory.run_ensemble.total_s", "trajectory.run_ensemble", "fn_total"),
    ("trajectory.run.total_s", "trajectory.run", "fn_total"),
    ("cascade.exact_distribution.total_s", "cascade.exact_distribution", "fn_total"),
    ("cascade.optimal_threshold.total_s", "cascade.optimal_threshold", "fn_total"),
)


def layer_metrics(summary: dict, wall_s: float, facts: dict) -> dict:
    """Per-layer metrics of one traced execution (``trace.overhead_s`` is
    added by the parent, which knows the untraced wall time)."""
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = summary["layer_calls"].get(layer, 0)
        metrics[f"{layer}.self_s"] = summary["layer_self"].get(layer, 0.0)
    for metric, fn, field in FUNCTION_METRICS:
        metrics[metric] = summary[field].get(fn, 0)
    scan_s = summary["fn_total"].get("nv.scan_2d", 0.0)
    metrics["nv.points_per_s"] = facts.get("points", 0) / scan_s if scan_s else 0.0
    metrics["nv.no_crossing_points"] = facts.get("no_crossing_points", 0)
    traj_s = metrics["trajectory.run_ensemble.total_s"] + metrics["trajectory.run.total_s"]
    metrics["trajectory.cycles_per_s"] = facts.get("cycles", 0) / traj_s if traj_s else 0.0
    metrics["trajectory.stream_floor_s"] = facts.get("stream_floor_s", 0.0)
    metrics["cli.csv_bytes"] = facts.get("csv_bytes", 0)
    metrics["trace.spans"] = summary["spans"]
    metrics["trace.wall_s"] = wall_s
    metrics["trace.untraced_s"] = wall_s - summary["root_s"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    inputs = workload.build(args.seed, args.out_dir)
    tracer = tracing.Tracer() if args.trace else None
    setup_s = time.monotonic() - args.spawned
    if tracer:
        tracer.install()
    try:
        cpu0, t0 = time.process_time(), time.perf_counter()
        output = workload.execute(inputs)
        wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - cpu0
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, facts = workload.check(inputs, output)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "facts": facts,
    }
    if tracer:
        if "streams" in facts:
            facts["stream_floor_s"] = workloads.stream_floor_s(*facts["streams"])
        with open(os.path.join(args.out_dir, "spans.csv"), "w", encoding="utf-8") as handle:
            handle.write("index,name,layer,start_s,end_s,parent\n")
            for i, (name, layer, start, end, parent) in enumerate(tracer.spans):
                handle.write(f"{i},{name},{layer},{start!r},{end!r},{parent}\n")
        summary = tracing.summarize(tracer.spans)
        layers = layer_metrics(summary, wall_s, facts)
        accounted = sum(summary["layer_self"].values()) + layers["trace.untraced_s"]
        if abs(accounted - wall_s) > 0.05 * wall_s:
            failures.append(f"trace: self times account for {accounted:.3f} s of {wall_s:.3f} s")
        result["layers"] = layers
    with open(os.path.join(args.out_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
