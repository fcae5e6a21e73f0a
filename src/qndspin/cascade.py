"""Cascading binary measurements into one multi-outcome readout.

``n`` repeated binary measurements under the QND condition are equivalent to
a single measurement of the averaged outcome ``u_bar = (N_plus - N_minus) /
n``, which lives on the grid ``-1, -1 + 2/n, ..., +1``.  Conditioned on the
nuclear eigenstate ``|+-alpha>`` the counts are binomial, so

    P(u_bar | a) = C(n, N_plus) P(+|a)^N_plus P(-|a)^N_minus,

evaluated through log-gamma so that ``n`` up to 1e6 stays finite.  One
log-gamma array ``g_k = log k!`` per ``n`` gives ``log C(n, k) = log n! -
g_k - g_(n-k)``, and both conditional laws share it.  For large ``n`` the
law is Gaussian with the single-shot mean and a fluctuation shrunk by
``sqrt(n)``, hence the combined strength grows as ``sqrt(n) D``.

State discrimination thresholds ``u_bar`` at the crossing of the two
conditional laws; the average fidelity then follows the universal error
function of the combined strength,  F_bar ~ 1/2 + erf(sqrt(n) D / sqrt(2))/2.
Reaching the 92% threshold fidelity takes ``n >= 2 / D**2`` measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .measurement import MeasurementSetting, binary_stats, outcome_prob
from .rotations import _checked_int, _divisor

__all__ = [
    "DN_THRESHOLD",
    "FBAR_THRESHOLD",
    "OutcomeDistribution",
    "FidelityReport",
    "exact_distribution",
    "gaussian_distribution",
    "optimal_threshold",
    "readout_fidelity",
    "critical_n",
]

# combined strength and average fidelity defining a "projective" readout
DN_THRESHOLD = math.sqrt(2.0)
FBAR_THRESHOLD = 0.92


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass
class OutcomeDistribution:
    """Conditional laws of ``u_bar`` for the two nuclear eigenstates.

    The laws are stored read-only, so the cached grid and moments stay
    valid; a writable input array is copied first.
    """

    n: int
    probs_plus: np.ndarray
    probs_minus: np.ndarray

    def __post_init__(self):
        self.n = _checked_int(self.n, "n", 1)
        for name in ("probs_plus", "probs_minus"):
            probs = np.asarray(getattr(self, name), dtype=float)
            if probs.shape != (self.n + 1,):
                raise ValueError(f"{name} must have length n + 1")
            if not np.isfinite(probs).all():
                raise ValueError(f"{name} has non-finite entries")
            if np.any(probs < 0.0):
                raise ValueError(f"{name} has negative entries")
            if abs(float(probs.sum()) - 1.0) > 1e-10:
                raise ValueError(f"{name} does not sum to 1")
            if probs.flags.writeable or not probs.flags.owndata:
                probs = _read_only(probs.copy())
            setattr(self, name, probs)

    @cached_property
    def u_grid(self) -> np.ndarray:
        """Outcome values ``(2k - n) / n`` for ``k = 0 .. n``."""
        return _read_only((2.0 * np.arange(self.n + 1) - self.n) / self.n)

    @cached_property
    def _moments(self) -> dict[int, tuple[float, float]]:
        grid, moments = self.u_grid, {}
        for branch, probs in ((1, self.probs_plus), (-1, self.probs_minus)):
            mean = float(probs @ grid)
            var = float(probs @ (grid - mean) ** 2)
            moments[branch] = mean, math.sqrt(max(var, 0.0))
        return moments

    def moments(self, branch: int) -> tuple[float, float]:
        """Mean and standard deviation of ``u_bar`` for branch ``+-1``."""
        return self._moments[1 if branch == 1 else -1]


@dataclass(frozen=True)
class FidelityReport:
    n: int
    u_threshold: float
    f_plus: float
    f_minus: float
    f_bar: float
    f_erf: float
    strength_dn: float
    n_critical: int | float


def exact_distribution(setting: MeasurementSetting, n: int) -> OutcomeDistribution:
    """Binomial conditional laws of ``u_bar`` after ``n`` binary measurements.

    Each law is ``exp(log C(n, k) + k log p + (n - k) log(1 - p))``,
    normalized, with ``p = P(+|a)``; ``gammaln(n - k + 1)`` is the reversed
    ``gammaln(k + 1)`` array, so one log-gamma array serves both branches.
    """
    from scipy.special import gammaln

    n = _checked_int(n, "n", 1)
    k = np.arange(n + 1)
    g = gammaln(k + 1.0)
    log_c = gammaln(n + 1.0) - g - g[::-1]
    del g
    laws = []
    for p in (outcome_prob(setting, 1, 1), outcome_prob(setting, -1, 1)):
        law = log_c if laws else log_c.copy()  # the last law is built in log_c
        law += _k_log(k, p)
        law += _k_log(k, 1.0 - p)[::-1]
        np.exp(law, out=law)
        law /= law.sum()
        laws.append(_read_only(law))
    return OutcomeDistribution(n, *laws)


def _k_log(k: np.ndarray, q: float) -> np.ndarray:
    """``xlogy(k, q)``, with ``log q`` taken once: ``k log q``, and +0.0 at
    ``k = 0`` (``k`` starts at 0).  ``xlogy`` itself only where ``q <= 0``."""
    if not q > 0.0:
        from scipy.special import xlogy

        return xlogy(k, q)
    terms = k * math.log(q)
    terms[0] = 0.0
    return terms


def _gaussian_law(n: int, mean: float, sigma: float) -> np.ndarray:
    grid = (2.0 * np.arange(n + 1) - n) / n
    if sigma == 0.0:
        probs = np.zeros(n + 1)
        probs[int(np.argmin(np.abs(grid - mean)))] = 1.0
        return _read_only(probs)
    scaled = sigma / math.sqrt(n)
    probs = np.exp(-((grid - mean) ** 2) / (2.0 * scaled**2))
    return _read_only(probs / probs.sum())


def gaussian_distribution(setting: MeasurementSetting, n: int) -> OutcomeDistribution:
    """Gaussian (large-``n``) approximation of the conditional laws.

    Density times grid spacing, renormalized on the discrete grid so the law
    stays a probability distribution at any ``n``.
    """
    n = _checked_int(n, "n", 1)
    stats = binary_stats(setting)
    return OutcomeDistribution(
        n,
        _gaussian_law(n, stats.mean_plus, stats.sigma_plus),
        _gaussian_law(n, stats.mean_minus, stats.sigma_minus),
    )


def optimal_threshold(dist: OutcomeDistribution, mode: str = "exact") -> float:
    """Threshold between the conditional means maximizing average fidelity.

    ``exact`` picks the grid point between the two means where the law
    difference changes sign (the crossing); when the two bracketing points
    tie, their midpoint is used.  ``gaussian`` uses the closed form
    ``(m_+/s_+ + m_-/s_-) / (1/s_+ + 1/s_-)`` built from the law moments,
    falling back to the midpoint of the means if a sigma vanishes.
    """
    mean_plus, sigma_plus = dist.moments(1)
    mean_minus, sigma_minus = dist.moments(-1)
    if abs(mean_plus - mean_minus) < 1e-15 and np.max(
        np.abs(dist.probs_plus - dist.probs_minus)
    ) < 1e-15:
        raise ValueError("states indistinguishable: identical conditional laws")

    if mode == "gaussian":
        if sigma_plus == 0.0 or sigma_minus == 0.0:
            return 0.5 * (mean_plus + mean_minus)
        return (mean_plus / sigma_plus + mean_minus / sigma_minus) / (
            1.0 / sigma_plus + 1.0 / sigma_minus
        )
    if mode != "exact":
        raise ValueError("mode must be 'exact' or 'gaussian'")

    grid = dist.u_grid

    def snap(value: float) -> float:
        nearest = float(grid[int(np.argmin(np.abs(grid - value)))])
        return nearest if abs(nearest - value) < 1e-12 else value

    lo, hi = sorted((mean_plus, mean_minus))
    inside = np.nonzero((grid >= lo) & (grid <= hi))[0]
    midpoint = 0.5 * (mean_plus + mean_minus)
    if inside.size == 1:
        return float(grid[inside[0]])
    if inside.size == 0:
        return snap(midpoint)
    # per adjacent pair (a, b): a's point if a = 0, else the nearer point, the midpoint on a tie
    diff, points = dist.probs_plus[inside] - dist.probs_minus[inside], grid[inside]
    a, b, left, right = diff[:-1], diff[1:], points[:-1], points[1:]
    nearer = np.where((a == 0.0) | (np.abs(a) < np.abs(b)), left, right)
    tie = (a != 0.0) & (np.abs(np.abs(a) - np.abs(b)) < 1e-15)
    nearer = np.where(tie, 0.5 * (left + right), nearer)
    candidates = np.append(nearer[(a == 0.0) | (a * b < 0.0)], points[-1:][diff[-1:] == 0.0])
    if candidates.size == 0:
        return snap(midpoint)
    return float(candidates[np.argmin(np.abs(candidates - midpoint))])


def readout_fidelity(
    dist: OutcomeDistribution, threshold: float, strength_d: float
) -> FidelityReport:
    """Tail-sum fidelities at a threshold, with the erf prediction alongside.

    Grid points exactly at the threshold contribute half their mass to each
    side, which removes even/odd-``n`` parity artifacts.  ``f_erf`` is the
    universal curve ``1/2 + erf(sqrt(n) D / sqrt(2)) / 2`` reported for
    comparison, never substituted for the tail sums.
    """
    from scipy.special import erf

    if math.isnan(threshold):
        raise ValueError("threshold must not be nan")
    grid = dist.u_grid
    # tail weights 0, 1/2 or 1: above the threshold, then below it in place
    weights = np.subtract(grid, threshold, out=np.empty(grid.size))
    at = np.abs(weights, out=weights) <= 1e-12
    np.greater(grid, threshold, out=weights)
    weights[at] = 0.5

    mean_plus, _ = dist.moments(1)
    mean_minus, _ = dist.moments(-1)
    if mean_plus >= mean_minus:
        f_plus = float(dist.probs_plus @ weights)
        np.subtract(1.0, weights, out=weights)
        f_minus = float(dist.probs_minus @ weights)
    else:
        f_minus = float(dist.probs_minus @ weights)
        np.subtract(1.0, weights, out=weights)
        f_plus = float(dist.probs_plus @ weights)

    strength_dn = math.sqrt(dist.n) * strength_d
    f_erf = 0.5 + 0.5 * float(erf(strength_dn / math.sqrt(2.0)))
    return FidelityReport(
        n=dist.n,
        u_threshold=threshold,
        f_plus=f_plus,
        f_minus=f_minus,
        f_bar=0.5 * (f_plus + f_minus),
        f_erf=f_erf,
        strength_dn=strength_dn,
        n_critical=critical_n(strength_d),
    )


def critical_n(strength_d: float) -> int:
    """Measurements needed to reach the threshold strength, ``ceil(2 / D**2)``.

    A projective single shot (``D = inf``) needs one measurement.
    """
    if strength_d == 0.0:
        raise ValueError("strength_d must be positive: D = 0 carries no information per shot")
    if strength_d != math.inf:
        _divisor(strength_d, "strength_d", "be positive: inf, or")
    return max(1, math.ceil(2.0 / strength_d**2))
