"""Correctness checks on the outputs of each workload.

Every check returns a list of failure messages; an empty list means the
output passed.  The checks read the CSV text the program wrote (or, for
``sweep``, the values its library calls returned) and test it against
closed forms, the reference data recorded at the seed commit, or a
statistical test whose false-alarm rate is stated next to it.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.special import chdtrc, ndtri

# Every statistical check below rejects a correct program with probability
# at most this, so a fresh seed does not fail by chance.
FALSE_ALARM = 1e-4


def sha256_of(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def read_csv(path) -> list[list[str]]:
    """Data rows of a CSV the program wrote, as strings (header dropped)."""
    with open(path, encoding="utf-8") as handle:
        return [line.split(",") for line in handle.read().splitlines()[1:]]


def _nan_cells(rows) -> int:
    return sum(cell.strip().lower() == "nan" for row in rows for cell in row)


def _shape_failures(label, rows, n_rows, n_cols) -> list[str]:
    failures = []
    if len(rows) != n_rows:
        failures.append(f"{label}: {len(rows)} rows, expected {n_rows}")
    if any(len(row) != n_cols for row in rows):
        failures.append(f"{label}: rows without {n_cols} columns")
    nans = _nan_cells(rows)
    if nans:
        failures.append(f"{label}: {nans} nan cells")
    return failures


def check_scan(scan_rows, tol_rows, n_tdd: int, n_tr: int, resonant_t_dd_ns: float) -> list[str]:
    """Row counts, no ``nan``, and the structure of acceptance criterion 10.

    * some sequence duration has a connected run of at least two waiting
      times with ``N_L >= N_c``;
    * the measured tolerance at the duration nearest resonance lies in
      (0.1, 100) ns;
    * the worst-case estimate never exceeds the measured tolerance (up to
      the 12 significant digits the CSV keeps).
    """
    failures = _shape_failures("scan.csv", scan_rows, n_tdd * n_tr, 7)
    failures += _shape_failures("tolerance.csv", tol_rows, n_tdd, 4)
    if failures:
        return failures
    scan = np.array(scan_rows, dtype=float).reshape(n_tdd, n_tr, 7)
    qualifying = scan[:, :, 6] >= scan[:, :, 5]
    connected = False
    for row in qualifying:
        idx = np.nonzero(row)[0]
        if idx.size >= 2 and np.all(np.diff(idx) == 1):
            connected = True
            break
    if not connected:
        failures.append("scan.csv: no connected qualifying run (N_L >= N_c)")
    tol = np.array(tol_rows, dtype=float)
    measured, worst = tol[:, 1], tol[:, 2]
    i_res = int(np.argmin(np.abs(tol[:, 0] - resonant_t_dd_ns)))
    if not 0.1 < measured[i_res] < 100.0:
        failures.append(f"tolerance.csv: resonant tolerance {measured[i_res]} ns not in (0.1, 100)")
    over = worst > measured + 1e-6 + 1e-11 * np.abs(measured)
    if over.any():
        failures.append(f"tolerance.csv: worst case above measured on {int(over.sum())} rows")
    return failures


def pooled_chi_square(counts, probs, min_expected: float = 20.0) -> tuple[float, int]:
    """Chi-square statistic and degrees of freedom over pooled adjacent bins.

    Adjacent outcome values are merged until each pooled bin expects at
    least ``min_expected`` counts, so the chi-square law of the statistic
    (and with it the stated false-alarm rate) holds.
    """
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(probs, dtype=float) * counts.sum()
    bins_obs, bins_exp = [], []
    acc_obs = acc_exp = 0.0
    for obs, exp in zip(counts, expected):
        acc_obs += obs
        acc_exp += exp
        if acc_exp >= min_expected:
            bins_obs.append(acc_obs)
            bins_exp.append(acc_exp)
            acc_obs = acc_exp = 0.0
    if bins_exp:
        bins_obs[-1] += acc_obs
        bins_exp[-1] += acc_exp
    bins_obs, bins_exp = np.array(bins_obs), np.array(bins_exp)
    statistic = float(np.sum((bins_obs - bins_exp) ** 2 / bins_exp))
    return statistic, max(len(bins_exp) - 1, 1)


def check_ensemble(rows, n: int, n_traj: int, probs_plus, reference_rows=None) -> list[str]:
    """Trajectory CSV: shape, ``u_bar`` grid, the exact law, the reference.

    * every ``u_bar`` lies on the grid ``-1 + 2k/n``;
    * the ``u_bar`` histogram fits the exact binomial law (pooled
      chi-square, rejected below ``FALSE_ALARM``);
    * at the reference seed the ``u_bar`` column equals the recorded one
      character for character, and the final Bloch vectors agree to 1e-9.
    """
    failures = _shape_failures("trajectories.csv", rows, n_traj, 5)
    if failures:
        return failures
    table = np.array(rows, dtype=float)
    if not np.array_equal(table[:, 0], np.arange(n_traj)):
        failures.append("trajectories.csv: seed column is not 0 .. n_traj - 1")
    k = (table[:, 1] * n + n) / 2.0
    ks = np.rint(k)
    off = (np.abs(k - ks) > 1e-6) | (ks < 0) | (ks > n)
    if off.any():
        failures.append(f"trajectories.csv: {int(off.sum())} u_bar values off the 2/n grid")
        return failures
    norms = np.linalg.norm(table[:, 2:5], axis=1)
    if np.any(norms > 1.0 + 1e-9):
        failures.append("trajectories.csv: final Bloch vector longer than 1")
    counts = np.bincount(ks.astype(int), minlength=n + 1)
    statistic, dof = pooled_chi_square(counts, probs_plus)
    p_value = float(chdtrc(dof, statistic))
    if p_value < FALSE_ALARM:
        failures.append(
            f"trajectories.csv: u_bar histogram rejects the exact law "
            f"(chi2 = {statistic:.1f}, dof = {dof}, p = {p_value:.2e})"
        )
    if reference_rows is not None:
        if [r[1] for r in rows] != [r[1] for r in reference_rows]:
            changed = sum(a[1] != b[1] for a, b in zip(rows, reference_rows))
            failures.append(f"trajectories.csv: u_bar differs from the reference in {changed} rows")
        ref = np.array(reference_rows, dtype=float)
        if ref.shape != table.shape or np.max(np.abs(ref[:, 2:5] - table[:, 2:5])) > 1e-9:
            failures.append("trajectories.csv: final Bloch vectors differ from the reference")
    return failures


def systematic_survival_law(alpha_mag: float, dphi: float, horizon: int) -> np.ndarray:
    """``exp(-N dphi^2 / (2 tan^2(alpha/2)))`` for ``N = 0 .. horizon``."""
    n = np.arange(horizon + 1, dtype=float)
    return np.exp(-n * dphi**2 / (2.0 * math.tan(alpha_mag / 2.0) ** 2))


def random_survival_law(std: float, n) -> np.ndarray:
    """Ensemble-mean survival ``exp(-N std^2 / 2)`` for iid random errors."""
    return np.exp(-np.asarray(n, dtype=float) * std**2 / 2.0)


def check_sweep(out: dict, spec: dict) -> list[str]:
    """Point computations of the paper against their closed forms.

    * ``|F_bar - F_erf| < 0.01`` on the universal curve and at n = 1e6;
    * even-order QND residual below 1e-9 for every non-degenerate system;
    * systematic survival curves within 0.05 of the closed form;
    * random-ensemble mean within ``z_crit`` standard errors of the closed
      form at every checkpoint, with ``z_crit`` set by a Bonferroni bound so
      that the family rejects with probability at most ``FALSE_ALARM``;
    * the scalar trajectory records are on the ``2/n`` grid and a re-run of
      the first record repeats it exactly.
    """
    failures = []
    gaps = [abs(f_bar - f_erf) for f_bar, f_erf in out["curve"] + [out["large_n"]]]
    if not all(math.isfinite(g) and g < 0.01 for g in gaps):
        failures.append(f"cascade: max |F_bar - F_erf| = {max(gaps):.4g} (>= 0.01)")
    even = [r for _, order, r in out["qnd"] if order == 2 and r is not None]
    if not even or not max(even) < 1e-9:
        failures.append(f"control: even-order QND residual {max(even, default=math.nan):.3g} (>= 1e-9)")
    for (alpha_mag, dphi, horizon), values in zip(spec["systematic"], out["systematic"]):
        gap = float(np.max(np.abs(values - systematic_survival_law(alpha_mag, dphi, horizon))))
        if not gap < 0.05:
            failures.append(f"stability: systematic curve off the law by {gap:.3g}")
    mean, stderr = out["ensemble"]
    checkpoints = np.array(spec["checkpoints"])
    z = np.abs(mean[checkpoints] - random_survival_law(spec["std"], checkpoints)) / stderr[checkpoints]
    z_crit = -float(ndtri(FALSE_ALARM / (2 * checkpoints.size)))
    if not np.all(z < z_crit):
        failures.append(f"stability: ensemble mean |z| = {np.max(z):.2f} (>= {z_crit:.2f})")
    records = out["records"]
    n_cycles = spec["cycles"]
    for rec in records:
        k = (rec.u_bar * n_cycles + n_cycles) / 2.0
        if not abs(k - round(k)) < 1e-9 or not np.all(np.isfinite(rec.final_state.bloch)):
            failures.append("trajectory: scalar record off the 2/n grid or not finite")
            break
    again = out["rerun"]
    first = records[0]
    if not (
        np.array_equal(again.outcomes, first.outcomes)
        and np.array_equal(again.final_state.bloch, first.final_state.bloch)
    ):
        failures.append("trajectory: scalar run is not deterministic")
    return failures
