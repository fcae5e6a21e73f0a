"""Each correctness check passes on real output and fails on a corrupted copy."""

import copy
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from qndspin.cli import main  # noqa: E402
from qndspin.nv import PRESETS  # noqa: E402

SCAN_GRID = (3, 128)  # smallest grid found to keep a connected qualifying run
ENS_N, ENS_TRAJ = 100, 2000


@pytest.fixture(scope="module")
def scan_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan")
    argv = ["nv-scan", "--preset", "P2", "--out-dir", str(out), "--n-max", "2000",
            "--n-tdd", str(SCAN_GRID[0]), "--n-tr", str(SCAN_GRID[1])]
    assert main(argv) == 0
    scan_rows = checks.read_csv(out / "scan.csv")
    tol_rows = checks.read_csv(out / "tolerance.csv")
    params = PRESETS["P2"]
    return scan_rows, tol_rows, params.n_dd * params.larmor_period_dd * 1e9


def _scan_failures(scan_rows, tol_rows, resonant):
    return checks.check_scan(scan_rows, tol_rows, *SCAN_GRID, resonant)


def test_scan_check_passes_on_program_output(scan_output):
    assert _scan_failures(*scan_output) == []


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda s, t: s[5].__setitem__(6, "nan"), "nan cells"),
        (lambda s, t: s.pop(), "rows, expected"),
        (lambda s, t: t[1].__setitem__(2, str(2 * float(t[1][1]) + 1)), "worst case above measured"),
        (lambda s, t: t[1].__setitem__(1, "0"), "resonant tolerance"),
        (lambda s, t: [row.__setitem__(6, "1") for row in s], "no connected qualifying run"),
    ],
)
def test_scan_check_fails_on_corrupted_output(scan_output, corrupt, message):
    scan_rows, tol_rows, resonant = copy.deepcopy(scan_output)
    corrupt(scan_rows, tol_rows)
    failures = _scan_failures(scan_rows, tol_rows, resonant)
    assert any(message in f for f in failures), failures


@pytest.fixture(scope="module")
def ensemble_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("ensemble") / "traj"
    argv = ["trajectories", "--alpha", "0.1", "--phi", repr(workloads.ENSEMBLE_PHI),
            "--n", str(ENS_N), "--n-traj", str(ENS_TRAJ), "--seed", "7", "--initial", "plus",
            "--cycle-rot", "0,0,0.7", "--out", str(out)]
    assert main(argv) == 0
    rows = checks.read_csv(str(out) + ".csv")
    law = workloads.cascade.exact_distribution(workloads._ensemble_setting(), ENS_N).probs_plus
    return rows, law


def test_ensemble_check_passes_on_program_output(ensemble_output):
    rows, law = ensemble_output
    assert checks.check_ensemble(rows, ENS_N, ENS_TRAJ, law, reference_rows=rows) == []


def _flip_u_bar(rows, index=3):
    """Move one u_bar to the neighbouring grid value."""
    u = float(rows[index][1])
    rows[index][1] = repr(u - 2.0 / ENS_N if u > 0 else u + 2.0 / ENS_N)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda r: r[0].__setitem__(1, "0.1234567"), "off the 2/n grid"),
        (lambda r: r[9].__setitem__(4, "nan"), "nan cells"),
        (lambda r: r.pop(), "rows, expected"),
        (lambda r: r[2].__setitem__(4, "1.5"), "longer than 1"),
        (lambda r: [row.__setitem__(1, "0.2") for row in r[: ENS_TRAJ // 2]], "rejects the exact law"),
    ],
)
def test_ensemble_check_fails_on_corrupted_output(ensemble_output, corrupt, message):
    rows, law = copy.deepcopy(ensemble_output)
    corrupt(rows)
    failures = checks.check_ensemble(rows, ENS_N, ENS_TRAJ, law)
    assert any(message in f for f in failures), failures


def test_ensemble_check_fails_on_one_flipped_u_bar_against_reference(ensemble_output):
    reference, law = ensemble_output
    rows = copy.deepcopy(reference)
    _flip_u_bar(rows)
    failures = checks.check_ensemble(rows, ENS_N, ENS_TRAJ, law, reference_rows=reference)
    assert failures == ["trajectories.csv: u_bar differs from the reference in 1 rows"]


def test_chi_square_accepts_samples_of_the_exact_law():
    law = workloads.cascade.exact_distribution(workloads._ensemble_setting(), 1000).probs_plus
    counts = np.random.default_rng(3).multinomial(16384, law)
    statistic, dof = checks.pooled_chi_square(counts, law)
    assert checks.chdtrc(dof, statistic) > checks.FALSE_ALARM


@pytest.fixture(scope="module")
def sweep_output():
    """A sweep-shaped output built from the closed forms plus real records."""
    spec = {
        "systematic": [(math.pi - 0.1, 0.1, 50), (0.5, 0.01, 40)],
        "std": 0.05,
        "checkpoints": (10, 20),
        "cycles": 20,
    }
    n = np.arange(31)
    record_args = (
        workloads._ensemble_setting(),
        workloads.rotor_exp(np.array(workloads.ENSEMBLE_CYCLE_ROT)),
        workloads.trajectory.NuclearState.mixed(),
        spec["cycles"],
    )
    records = [
        workloads.trajectory.run(*record_args, np.random.SeedSequence(5, spawn_key=(i,)))
        for i in range(3)
    ]
    out = {
        "curve": [(0.8, 0.801), (0.9, 0.905)],
        "large_n": (1.0, 1.0),
        "qnd": [("P1", 2, 1e-12), ("P1", 1, 0.01), ("rand0", 2, None)],
        "systematic": [
            checks.systematic_survival_law(a, d, h) for a, d, h in spec["systematic"]
        ],
        "ensemble": (checks.random_survival_law(spec["std"], n), np.full(n.size, 0.01)),
        "records": records,
        "rerun": workloads.trajectory.run(*record_args, np.random.SeedSequence(5, spawn_key=(0,))),
    }
    return out, spec


def test_sweep_check_passes_on_consistent_output(sweep_output):
    out, spec = sweep_output
    assert checks.check_sweep(out, spec) == []


def _perturb_ensemble(out):
    mean, stderr = out["ensemble"]
    out["ensemble"] = (mean + 10 * stderr, stderr)


def _perturb_rerun(out):
    out["rerun"] = copy.deepcopy(out["rerun"])
    out["rerun"].outcomes[0] *= -1


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda o: o["curve"].append((0.9, 0.92)), "F_bar - F_erf"),
        (lambda o: o.__setitem__("large_n", (math.nan, 1.0)), "F_bar - F_erf"),
        (lambda o: o["qnd"].append(("P2", 2, 1e-6)), "even-order QND residual"),
        (lambda o: o["systematic"][1].__iadd__(0.06), "systematic curve"),
        (_perturb_ensemble, "ensemble mean"),
        (_perturb_rerun, "not deterministic"),
    ],
)
def test_sweep_check_fails_on_corrupted_output(sweep_output, corrupt, message):
    out, spec = copy.deepcopy(sweep_output)
    corrupt(out)
    failures = checks.check_sweep(out, spec)
    assert any(message in f for f in failures), failures
