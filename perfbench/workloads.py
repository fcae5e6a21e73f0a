"""The three benchmark workloads: inputs, the timed call, output checks.

Each workload is sized so that one execution takes a few seconds and a run
of the benchmark can take the median of several fresh-process executions:

* ``scan``: the ``nv-scan`` command for preset P2 on a 25 x 64 grid with
  ``n_max = 1e5``.  The time splits between the first-crossing tail of the
  points that never cross (``nv.scan_2d``) and the per-probe bisection plus
  QND solves of ``nv.tolerance_profile``.  The grid has an odd number of
  durations so the middle one is exactly resonant.  It has no random input.
* ``ensemble``: the ``trajectories`` command, 16,384 seeded trajectories of
  1000 cycles in the QND case, so the ``u_bar`` law is exactly binomial.
* ``sweep``: the paper's point computations as scalar library calls: the
  universal fidelity curve plus one n = 1e6 fidelity, criterion-9 QND
  solves over the presets and random systems drawn from the seed, the two
  criterion-7 systematic survival curves plus a random-error ensemble, and
  scalar ``trajectory.run`` records.

``build`` makes the inputs from the seed (set-up time), ``execute`` is the
timed region, and ``check`` reads the outputs back and returns
``(failures, facts)``; facts are digests, reference comparisons and the
counts the per-layer metrics are derived from.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qndspin.cascade as cascade
import qndspin.cli as cli
import qndspin.control as control
import qndspin.hyperfine as hyperfine
import qndspin.measurement as measurement
import qndspin.nv as nv
import qndspin.stability as stability
import qndspin.trajectory as trajectory
from qndspin.rotations import rotor_exp

import checks

REFERENCE_SEED = 12345
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
EZ = np.array([0.0, 0.0, 1.0])
E45 = np.array([math.cos(math.pi / 4), math.sin(math.pi / 4), 0.0])

SCAN_GRID = (25, 64)
SCAN_N_MAX = 100_000

ENSEMBLE_N = 1000
ENSEMBLE_N_TRAJ = 16_384
ENSEMBLE_ALPHA = 0.1
ENSEMBLE_PHI = 4 * math.pi / 9
ENSEMBLE_CYCLE_ROT = (0.0, 0.0, 0.7)

SWEEP_RANDOM_SYSTEMS = 4
SWEEP_ENSEMBLE_SEEDS = 2000
SWEEP_ENSEMBLE_CYCLES = 2000
SWEEP_RECORDS = 30
SWEEP_RECORD_CYCLES = 200


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, str], dict]
    execute: Callable[[dict], object]
    check: Callable[[dict, object], tuple[list[str], dict]]


def load_reference() -> dict:
    with open(os.path.join(REFERENCE_DIR, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def load_reference_trajectories() -> list[list[str]]:
    path = os.path.join(REFERENCE_DIR, f"trajectories_seed{REFERENCE_SEED}.csv.gz")
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return [line.split(",") for line in handle.read().splitlines()[1:]]


def _run_cli(argv) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"qndspin {argv[0]} exited with code {code}")


# ------------------------------------------------------------------- scan


def build_scan(seed: int, out_dir: str) -> dict:
    n_tdd, n_tr = SCAN_GRID
    argv = [
        "nv-scan", "--preset", "P2", "--out-dir", out_dir, "--force",
        "--n-tdd", str(n_tdd), "--n-tr", str(n_tr), "--n-max", str(SCAN_N_MAX),
    ]
    return {"argv": argv, "out_dir": out_dir}


def check_scan(inp: dict, _result) -> tuple[list[str], dict]:
    n_tdd, n_tr = SCAN_GRID
    paths = {name: os.path.join(inp["out_dir"], name) for name in ("scan.csv", "tolerance.csv")}
    scan_rows = checks.read_csv(paths["scan.csv"])
    tol_rows = checks.read_csv(paths["tolerance.csv"])
    params = nv.PRESETS["P2"]
    resonant_ns = params.n_dd * params.larmor_period_dd * 1e9
    failures = checks.check_scan(scan_rows, tol_rows, n_tdd, n_tr, resonant_ns)
    digests = {name: checks.sha256_of(path) for name, path in paths.items()}
    ref = load_reference()["scan"]
    n_l = [row[6] for row in scan_rows if len(row) == 7]
    facts = {
        "digests": digests,
        "digests_match_reference": {name: digests[name] == ref["sha256"][name] for name in digests},
        "n_l_cells_differing_from_reference": sum(a != b for a, b in zip(n_l, ref["N_L"]))
        + abs(len(n_l) - len(ref["N_L"])),
        "points": n_tdd * n_tr,
        "no_crossing_points": sum(cell == "inf" for cell in n_l),
        "csv_bytes": sum(os.path.getsize(p) for p in paths.values()),
    }
    return failures, facts


# --------------------------------------------------------------- ensemble


def _ensemble_setting() -> measurement.MeasurementSetting:
    return measurement.MeasurementSetting(ENSEMBLE_ALPHA * EZ, ENSEMBLE_PHI)


def build_ensemble(seed: int, out_dir: str) -> dict:
    out = os.path.join(out_dir, "trajectories")
    argv = [
        "trajectories", "--alpha", repr(ENSEMBLE_ALPHA), "--phi", repr(ENSEMBLE_PHI),
        "--n", str(ENSEMBLE_N), "--n-traj", str(ENSEMBLE_N_TRAJ), "--seed", str(seed),
        "--initial", "plus", "--cycle-rot", ",".join(map(repr, ENSEMBLE_CYCLE_ROT)),
        "--out", out, "--force",
    ]
    return {"argv": argv, "csv": out + ".csv", "seed": seed}


def stream_floor_s(seed: int, n_traj: int, n: int) -> float:
    """Time to build the per-trajectory streams the seeded contract fixes.

    Trajectory ``i`` must draw from ``SeedSequence(seed, spawn_key=(i,))``;
    building those generators and their uniforms is a cost no kernel can
    remove while the contract holds.
    """
    started = time.perf_counter()
    for i in range(n_traj):
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))).random(n)
    return time.perf_counter() - started


def check_ensemble(inp: dict, _result) -> tuple[list[str], dict]:
    rows = checks.read_csv(inp["csv"])
    law = cascade.exact_distribution(_ensemble_setting(), ENSEMBLE_N).probs_plus
    at_reference = inp["seed"] == REFERENCE_SEED
    reference_rows = load_reference_trajectories() if at_reference else None
    failures = checks.check_ensemble(rows, ENSEMBLE_N, ENSEMBLE_N_TRAJ, law, reference_rows)
    digest = checks.sha256_of(inp["csv"])
    facts = {
        "digests": {"trajectories.csv": digest},
        "digests_match_reference": (
            {"trajectories.csv": digest == load_reference()["trajectories"]["sha256"]}
            if at_reference
            else {}
        ),
        "cycles": ENSEMBLE_N * ENSEMBLE_N_TRAJ,
        "csv_bytes": os.path.getsize(inp["csv"]),
        "streams": (inp["seed"], ENSEMBLE_N_TRAJ, ENSEMBLE_N),
    }
    return failures, facts


# ------------------------------------------------------------------ sweep


def build_sweep(seed: int, _out_dir: str) -> dict:
    rng = np.random.default_rng(seed)
    systems = [
        (name, nv.nv_system(p), nv.nv_system(p).dd_period, p.n_dd)
        for name, p in nv.PRESETS.items()
    ]
    # generic in every parameter, including the sequence period, as in
    # acceptance criterion 9
    for k in range(SWEEP_RANDOM_SYSTEMS):
        omega = rng.normal(size=3)
        omega *= rng.uniform(0.5, 2.0) / np.linalg.norm(omega)
        coupling = rng.normal(size=3) * rng.uniform(0.05, 0.3)
        sys_ = hyperfine.SpinSystem.from_vectors(omega, coupling)
        tau = rng.uniform(0.5, 1.5) * sys_.dd_period
        systems.append((f"rand{k}", sys_, tau, int(rng.integers(1, 4))))
    systematic = []
    for alpha_mag, dphi in ((math.pi - 0.1, 0.1), (0.5, 0.1 * math.tan(0.25) ** 2)):
        predicted = 2.0 * math.tan(alpha_mag / 2.0) ** 2 / dphi**2
        systematic.append((alpha_mag, dphi, int(min(2.5 * predicted, 2e5))))
    return {
        "seed": seed,
        "curve_setting": measurement.MeasurementSetting(0.1 * EZ, math.pi / 2),
        "curve_ratios": np.linspace(0.1, 4.0, 79),
        "large_n_setting": measurement.MeasurementSetting(
            0.1 * EZ, math.pi / 2, nv.room_temp_readout(0.1, 0.07)
        ),
        "systems": systems,
        "systematic": systematic,
        "std": 0.05,
        "checkpoints": (200, 500, 1000, 1500, 2000),
        "record_setting": _ensemble_setting(),
        "record_rotation": rotor_exp(np.array(ENSEMBLE_CYCLE_ROT)),
        "record_seeds": [
            np.random.SeedSequence(seed, spawn_key=(i,)) for i in range(SWEEP_RECORDS)
        ],
        "cycles": SWEEP_RECORD_CYCLES,
    }


def _fidelity(setting, n: int) -> tuple[float, float]:
    dist = cascade.exact_distribution(setting, n)
    strength = measurement.binary_stats(setting).strength_d
    rep = cascade.readout_fidelity(dist, cascade.optimal_threshold(dist), strength)
    return rep.f_bar, rep.f_erf


def execute_sweep(inp: dict) -> dict:
    stage_s = {}
    clock = time.perf_counter
    started = clock()
    n_c = cascade.critical_n(measurement.binary_stats(inp["curve_setting"]).strength_d)
    curve = [
        _fidelity(inp["curve_setting"], max(1, round(r * n_c))) for r in inp["curve_ratios"]
    ]
    large_n = _fidelity(inp["large_n_setting"], 1_000_000)
    stage_s["cascade"], started = clock() - started, clock()

    qnd = []
    for name, sys_, tau, n_rep in inp["systems"]:
        for order in (2, 1):
            seq = control.concatenated_dd(order, tau, n_rep)
            alpha_vec, phi_dd = hyperfine.extract_alpha_phi(*hyperfine.exact_dd_evolution(sys_, seq))
            mag = float(np.linalg.norm(alpha_vec))
            if mag < 1e-8:
                qnd.append((name, order, None))  # no measurement axis: nothing to solve
                continue
            roots = control.solve_waiting_time(sys_, phi_dd, alpha_vec / mag, (0.0, sys_.wait_period))
            qnd.append((name, order, min(r for _, r in roots)))
    stage_s["qnd"], started = clock() - started, clock()

    systematic = [
        stability.survival_curve(
            alpha_mag * E45, stability.RotationErrorModel("systematic", delta_phi=dphi * EZ), horizon
        ).values
        for alpha_mag, dphi, horizon in inp["systematic"]
    ]
    stage_s["survival_curves"], started = clock() - started, clock()
    ensemble = stability.survival_ensemble(
        (math.pi - 0.1) * E45, inp["std"], EZ, SWEEP_ENSEMBLE_CYCLES, SWEEP_ENSEMBLE_SEEDS, inp["seed"]
    )
    stage_s["survival_ensemble"], started = clock() - started, clock()

    initial = trajectory.NuclearState.mixed()
    records = [
        trajectory.run(inp["record_setting"], inp["record_rotation"], initial, inp["cycles"], seq)
        for seq in inp["record_seeds"]
    ]
    stage_s["records"] = clock() - started
    return {
        "curve": curve,
        "large_n": large_n,
        "qnd": qnd,
        "systematic": systematic,
        "ensemble": ensemble,
        "records": records,
        "stage_s": stage_s,
    }


def check_sweep(inp: dict, out: dict) -> tuple[list[str], dict]:
    out = dict(
        out,
        rerun=trajectory.run(
            inp["record_setting"],
            inp["record_rotation"],
            trajectory.NuclearState.mixed(),
            inp["cycles"],
            np.random.SeedSequence(inp["seed"], spawn_key=(0,)),
        ),
    )
    failures = checks.check_sweep(out, inp)
    odd = [r for _, order, r in out["qnd"] if order == 1 and r is not None]
    facts = {
        "stage_s": out["stage_s"],
        "qnd_solves": sum(r is not None for _, _, r in out["qnd"]),
        "odd_order_min_residual": min(odd, default=None),
        "cycles": SWEEP_RECORDS * SWEEP_RECORD_CYCLES,
    }
    return failures, facts


WORKLOADS = {
    "scan": Workload(build_scan, lambda inp: _run_cli(inp["argv"]), check_scan),
    "ensemble": Workload(build_ensemble, lambda inp: _run_cli(inp["argv"]), check_ensemble),
    "sweep": Workload(build_sweep, execute_sweep, check_sweep),
}
