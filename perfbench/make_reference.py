"""Record the reference outputs the benchmark compares against.

Runs the ``scan`` and ``ensemble`` workloads once at the reference seed and
stores, under ``perfbench/reference/``, the sha256 of every CSV, the
``N_L`` column of ``scan.csv`` and the whole trajectories CSV (gzip).  Run
it from the repository root with the code whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    scratch = os.path.join(os.getcwd(), ".perfbench", "reference-build")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    seed = workloads.REFERENCE_SEED

    scan = workloads.build_scan(seed, scratch)
    workloads.WORKLOADS["scan"].execute(scan)
    scan_rows = checks.read_csv(os.path.join(scratch, "scan.csv"))
    ensemble = workloads.build_ensemble(seed, scratch)
    workloads.WORKLOADS["ensemble"].execute(ensemble)

    reference = {
        "seed": seed,
        "scan": {
            "sha256": {
                name: checks.sha256_of(os.path.join(scratch, name))
                for name in ("scan.csv", "tolerance.csv")
            },
            "N_L": [row[6] for row in scan_rows],
        },
        "trajectories": {"sha256": checks.sha256_of(ensemble["csv"])},
    }
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(workloads.REFERENCE_DIR, "reference.json"), "w", encoding="utf-8") as out:
        json.dump(reference, out, sort_keys=True)
        out.write("\n")
    gz_path = os.path.join(workloads.REFERENCE_DIR, f"trajectories_seed{seed}.csv.gz")
    with open(ensemble["csv"], "rb") as src, open(gz_path, "wb") as raw:
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as dst:
            shutil.copyfileobj(src, dst)
    shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
