"""qndspin benchmark: one workload, several fresh-process executions, one JSON line.

    python3 perfbench/run.py --workload {scan,ensemble,sweep} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each execution is a fresh Python process
(``worker.py``) with ``QNDSPIN_THREADS`` and the BLAS/OpenMP thread
variables pinned to 1, so ``peak_rss_mb`` and ``setup_s`` are per process.
Executions repeat until the next one would end after ``--seconds`` (at
least ``MIN_EXECUTIONS``), and each metric reports the median.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
untraced executions for half the time, then traced ones, and prints the
per-layer metrics (medians over the traced executions) together with
``trace.overhead_s``, the traced minus the untraced median wall time.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; an execution fails on a nonzero exit, an exception, a ``nan``
in an output or a failed check.  Quartiles, sample counts, output digests,
reference comparisons and the run environment go to stderr and to
``.perfbench/<workload>-seed<N>-trace<T>.json`` in the checkout; a traced
run also leaves the spans of its last traced execution in
``.perfbench/<workload>-seed<N>-trace1-spans.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan", "ensemble", "sweep")
MIN_EXECUTIONS = 3
TIME_LIMIT_S = 170.0  # the whole run, including an execution that hangs

THREAD_VARS = {
    "QNDSPIN_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "1",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_commit(root: str) -> str | None:
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "thread_vars": THREAD_VARS,
    }


def output_path(args, suffix: str) -> str:
    """Where a run keeps its record and spans, inside the checkout."""
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}"
    return os.path.join(ROOT, ".perfbench", name)


def execute_once(args, run_dir: str, index: int, trace: int, deadline: float) -> dict:
    """Run one worker process; return its result, or a failure record."""
    out_dir = os.path.join(run_dir, f"exec{index}")
    os.makedirs(out_dir)
    env = dict(os.environ, **THREAD_VARS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace),
        "--out-dir", out_dir,
    ]
    log_path = os.path.join(out_dir, "worker.log")
    started = time.monotonic()
    try:
        with open(log_path, "wb") as log:
            proc = subprocess.run(
                command + ["--spawned", repr(started)],
                cwd=ROOT,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                timeout=max(deadline - started, 1.0),
            )
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    elapsed = time.monotonic() - started
    result_path = os.path.join(out_dir, "result.json")
    if code == 0 and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
    else:
        with open(log_path, encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-2000:]
        result = {"failures": [f"worker exit {code}: {tail}"]}
    result["trace"] = trace
    result["elapsed_s"] = elapsed
    spans_path = os.path.join(out_dir, "spans.csv")
    if os.path.exists(spans_path):
        os.replace(spans_path, output_path(args, "-spans.csv"))  # keep the last traced one
    shutil.rmtree(out_dir)
    return result


def run_executions(args, run_dir: str, started: float) -> list[dict]:
    deadline = started + TIME_LIMIT_S
    phases = [(0, args.seconds / 2.0), (1, float(args.seconds))] if args.trace else [(0, float(args.seconds))]
    results = []
    for trace, phase_end in phases:
        minimum = 1 if args.trace else MIN_EXECUTIONS
        done = []
        while time.monotonic() < deadline:
            elapsed = time.monotonic() - started
            if len(done) >= minimum:
                typical = statistics.median(r["elapsed_s"] for r in done)
                if elapsed + typical > phase_end:
                    break
            result = execute_once(args, run_dir, len(results), trace, deadline)
            done.append(result)
            results.append(result)
            if "wall_s" not in result:
                break  # a worker that crashed will crash again; report it
    return results


def summarize(results: list[dict], trace: int) -> tuple[dict, dict]:
    """Metrics for the JSON line and the detailed statistics behind them."""
    ok = [r for r in results if "wall_s" in r]
    untraced = [r for r in ok if r["trace"] == 0]
    failed = sum(1 for r in results if r["failures"])
    detail = {}
    metrics = {}
    if not trace:
        for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
            if untraced:
                detail[name] = quartiles([r[name] for r in untraced])
                metrics[name] = detail[name]["median"]
        metrics["pass_ratio"] = 1.0 - failed / max(len(results), 1)
        units = END_TO_END_UNITS
    else:
        traced = [r for r in ok if r["trace"] == 1 and "layers" in r]
        if traced:
            for name in traced[0]["layers"]:
                detail[name] = quartiles([r["layers"][name] for r in traced])
                metrics[name] = detail[name]["median"]
            if untraced:
                base = statistics.median(r["wall_s"] for r in untraced)
                metrics["trace.overhead_s"] = metrics["trace.wall_s"] - base
        units = {name: layer_unit(name) for name in metrics}
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}, detail


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="qndspin benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "qndspin", "__init__.py")):
        print(f"error: no qndspin source under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2

    run_dir = output_path(args, f"-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        results = run_executions(args, run_dir, started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics, detail = summarize(results, args.trace)
    failed = sum(1 for r in results if r["failures"])
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "attempted": len(results),
        "failed": failed,
        "statistics": detail,
        "executions": [
            {key: r.get(key) for key in ("trace", "elapsed_s", "setup_s", "wall_s", "cpu_s",
                                          "peak_rss_mb", "failures", "facts")}
            for r in results
        ],
    }
    record_path = output_path(args, ".json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for r in results:
        for failure in r["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)
    for name, stat in detail.items():
        print(
            f"{name}: median {stat['median']:.6g} [q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}] n={stat['n']}",
            file=sys.stderr,
        )
    facts = next((r["facts"] for r in results if r.get("facts")), {})
    for key in ("digests", "digests_match_reference", "n_l_cells_differing_from_reference"):
        if key in facts:
            print(f"{key}: {json.dumps(facts[key])}", file=sys.stderr)
    print(f"record: {record_path}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0 and bool(results),
        "attempted": max(len(results), 1),
        "failed": failed if results else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
