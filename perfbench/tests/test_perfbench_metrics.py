"""BENCHMARK.json matches what run.py prints, and run.py refuses a bare tree."""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _declared(section):
    return {m["name"]: m["unit"] for m in _benchmark()[section]}


def _printed(metrics):
    return {name: value["unit"] for name, value in metrics.items()}


def _fake_result(trace, layers=None):
    result = {"trace": trace, "elapsed_s": 2.0, "setup_s": 0.5, "wall_s": 1.5, "cpu_s": 1.4,
              "peak_rss_mb": 60.0, "failures": [], "facts": {}}
    if layers is not None:
        result["layers"] = layers
    return result


def test_end_to_end_metrics_printed_are_declared():
    metrics, _ = run.summarize([_fake_result(0), _fake_result(0)], trace=0)
    assert _printed(metrics) == _declared("end_to_end")
    assert all(value["value"] > 0 for value in metrics.values())


def test_per_layer_metrics_printed_are_declared():
    import qndspin.stability as stability

    with tracing.Tracer() as tr:
        stability.dephasing_map(np.array([0.1, 0.0, 0.0]))
    layers = worker.layer_metrics(tracing.summarize(tr.spans), 0.01, {"points": 4})
    results = [_fake_result(0), _fake_result(1, layers)]
    metrics, _ = run.summarize(results, trace=1)
    assert _printed(metrics) == _declared("per_layer")


def test_benchmark_json_follows_the_contract():
    bench = _benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["command"][1] in (os.path.join(p, "run.py") for p in bench["paths"])
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in bench["workloads"])
    names = [m["name"] for s in ("workloads", "end_to_end", "per_layer") for m in bench[s]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in bench["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert 1 <= bench["run_seconds"] <= 60


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
