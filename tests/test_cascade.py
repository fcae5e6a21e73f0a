import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, xlogy

import qndspin.cascade as cascade
from qndspin.cascade import (
    DN_THRESHOLD,
    FBAR_THRESHOLD,
    OutcomeDistribution,
    critical_n,
    exact_distribution,
    gaussian_distribution,
    optimal_threshold,
    readout_fidelity,
)
from qndspin.measurement import MeasurementSetting, binary_stats, outcome_prob
from qndspin.nv import room_temp_readout

EZ = np.array([0.0, 0.0, 1.0])


def setting(alpha, phi):
    return MeasurementSetting(alpha * EZ, phi)


def total_variation(p, q):
    return 0.5 * float(np.sum(np.abs(p - q)))


# ------------------------------------------------------------ distributions


def test_single_measurement_reduces_to_binary_probabilities():
    s = setting(0.3, 1.1)
    dist = exact_distribution(s, 1)
    np.testing.assert_allclose(
        dist.probs_plus, [outcome_prob(s, 1, -1), outcome_prob(s, 1, 1)], atol=1e-14
    )
    np.testing.assert_allclose(
        dist.probs_minus, [outcome_prob(s, -1, -1), outcome_prob(s, -1, 1)], atol=1e-14
    )


def test_deterministic_branch_concentrates():
    dist = exact_distribution(setting(math.pi / 2, math.pi / 2), 40)
    assert dist.probs_plus[-1] == pytest.approx(1.0)
    assert np.all(dist.probs_plus[:-1] == 0.0)
    assert dist.probs_minus[0] == pytest.approx(1.0)


def test_distribution_moments_match_binary_stats():
    s = setting(0.1, 4 * math.pi / 9)
    stats = binary_stats(s)
    for n in (10, 100, 1000):
        dist = exact_distribution(s, n)
        for branch, mean, sigma in (
            (1, stats.mean_plus, stats.sigma_plus),
            (-1, stats.mean_minus, stats.sigma_minus),
        ):
            m, sd = dist.moments(branch)
            assert m == pytest.approx(mean, abs=1e-10)
            assert sd**2 == pytest.approx(sigma**2 / n, abs=1e-10)


def test_distribution_normalized_at_large_n():
    dist = exact_distribution(setting(0.1, math.pi / 2), 1_000_000)
    assert float(dist.probs_plus.sum()) == pytest.approx(1.0, abs=1e-12)
    assert float(dist.probs_minus.sum()) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_matches_exact_at_large_n():
    s = setting(0.1, 4 * math.pi / 9)
    exact = exact_distribution(s, 1000)
    gauss = gaussian_distribution(s, 1000)
    assert total_variation(exact.probs_plus, gauss.probs_plus) < 0.02
    assert total_variation(exact.probs_minus, gauss.probs_minus) < 0.02


def test_gaussian_laws_mirror_for_symmetric_phi():
    dist = gaussian_distribution(setting(0.1, math.pi / 2), 64)
    np.testing.assert_allclose(dist.probs_plus, dist.probs_minus[::-1], atol=1e-12)


def test_gaussian_variance_converges():
    s = setting(0.1, 4 * math.pi / 9)
    stats = binary_stats(s)
    dist = gaussian_distribution(s, 4000)
    for branch, sigma in ((1, stats.sigma_plus), (-1, stats.sigma_minus)):
        _, sd = dist.moments(branch)
        assert sd**2 == pytest.approx(sigma**2 / 4000, rel=0.01)


def test_gaussian_degenerate_sigma_is_delta():
    dist = gaussian_distribution(setting(math.pi / 2, math.pi / 2), 30)
    assert dist.probs_plus[-1] == 1.0
    assert dist.probs_minus[0] == 1.0


def test_distribution_validation():
    with pytest.raises(ValueError):
        OutcomeDistribution(2, np.array([0.5, 0.5, 0.5]), np.array([0.5, 0.25, 0.25]))
    with pytest.raises(ValueError):
        OutcomeDistribution(1, np.array([0.5, 0.5, 0.0]), np.array([0.5, 0.5, 0.0]))
    with pytest.raises(ValueError, match="probs_minus has negative entries"):
        OutcomeDistribution(1, np.array([0.5, 0.5]), np.array([1.5, -0.5]))


def test_distribution_refuses_non_finite_entries():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            OutcomeDistribution(1, [bad, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="non-finite"):
            OutcomeDistribution(1, [0.5, 0.5], [1.0, bad])


def test_distribution_arrays_are_read_only_copies():
    given = np.array([0.25, 0.75])
    dist = OutcomeDistribution(1, given, np.array([0.75, 0.25]))
    assert given.flags.writeable  # the caller's array is neither frozen nor shared
    mean = dist.moments(1)[0]
    for stored in (dist.probs_plus, dist.probs_minus, dist.u_grid):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 0.5
    given[:] = [0.75, 0.25]
    assert dist.moments(1)[0] == mean == 0.5
    law = exact_distribution(setting(0.1, 1.4), 30)
    assert not law.probs_plus.flags.writeable and not law.probs_minus.flags.writeable


def direct_binomial_law(n, p):
    """The law as four log-gamma arrays and two xlogy terms, summed left to right."""
    k = np.arange(n + 1)
    log_probs = (
        gammaln(n + 1.0)
        - gammaln(k + 1.0)
        - gammaln(n - k + 1.0)
        + xlogy(k, p)
        + xlogy(n - k, 1.0 - p)
    )
    probs = np.exp(log_probs)
    return probs / probs.sum()


@pytest.mark.parametrize("n", [1, 2, 999, 1000, 1_000_000])
@pytest.mark.parametrize(
    "s",
    [
        setting(0.1, math.pi / 2),
        MeasurementSetting(0.1 * EZ, 1.1, room_temp_readout(0.1, 0.07)),
        setting(math.pi / 2, math.pi / 2),  # projective: P(+|a) is 1 and 0
    ],
    ids=["weak", "room-temperature", "projective"],
)
def test_exact_distribution_equals_the_direct_formula_bit_for_bit(s, n):
    dist = exact_distribution(s, n)
    for probs, branch in ((dist.probs_plus, 1), (dist.probs_minus, -1)):
        np.testing.assert_array_equal(probs, direct_binomial_law(n, outcome_prob(s, branch, 1)))


@pytest.mark.parametrize("n", [1, 2, 1_000_000])
@pytest.mark.parametrize("p", [0.0, 1.0, 5e-324, 0.5])
def test_laws_take_each_log_once_and_equal_the_xlogy_form(monkeypatch, p, n):
    """``k log p`` from one ``math.log`` per law is ``xlogy(k, p)`` bit for bit,
    including ``k = 0`` and ``p`` or ``1 - p`` equal to 0 or subnormal."""
    monkeypatch.setattr(cascade, "outcome_prob", lambda s, branch, u: p if branch == 1 else 1.0 - p)
    dist = exact_distribution(setting(0.1, 1.1), n)
    np.testing.assert_array_equal(dist.probs_plus, direct_binomial_law(n, p))
    np.testing.assert_array_equal(dist.probs_minus, direct_binomial_law(n, 1.0 - p))


def test_readout_at_large_n_holds_few_law_sized_arrays():
    # four log-gamma arrays per call held ~7.4 law-sized (8 (n + 1) byte) arrays at once
    s = MeasurementSetting(0.1 * EZ, math.pi / 2, room_temp_readout(0.1, 0.07))
    strength, n = binary_stats(s).strength_d, 1_000_000
    readout_fidelity(exact_distribution(s, 2), 0.0, strength)  # imports outside the trace
    tracemalloc.start()
    try:
        dist = exact_distribution(s, n)
        readout_fidelity(dist, optimal_threshold(dist), strength)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 8 * (n + 1)


# ------------------------------------------------------------ threshold


def test_threshold_symmetric_setting():
    for n in (50, 51):
        dist = exact_distribution(setting(0.1, math.pi / 2), n)
        assert optimal_threshold(dist) == pytest.approx(0.0, abs=1e-12)


def test_threshold_landing_between_peaks():
    dist = exact_distribution(setting(0.1, 4 * math.pi / 9), 100)
    th = optimal_threshold(dist)
    mean_plus, _ = dist.moments(1)
    mean_minus, _ = dist.moments(-1)
    assert mean_minus < th < mean_plus


def test_gaussian_threshold_equal_sigmas():
    dist = exact_distribution(setting(0.1, math.pi / 2), 100)
    th = optimal_threshold(dist, mode="gaussian")
    mean_plus, _ = dist.moments(1)
    mean_minus, _ = dist.moments(-1)
    assert th == pytest.approx(0.5 * (mean_plus + mean_minus), abs=1e-9)


def test_gaussian_threshold_of_deterministic_laws_is_the_midpoint():
    dist = exact_distribution(setting(math.pi / 2, math.pi / 2), 30)  # projective
    (mean_plus, sigma_plus), (mean_minus, sigma_minus) = dist.moments(1), dist.moments(-1)
    assert sigma_plus == sigma_minus == 0.0
    assert optimal_threshold(dist, mode="gaussian") == 0.5 * (mean_plus + mean_minus)


def test_threshold_refuses_an_unknown_mode():
    dist = exact_distribution(setting(0.1, math.pi / 2), 10)
    with pytest.raises(ValueError, match="mode must be 'exact' or 'gaussian'"):
        optimal_threshold(dist, mode="median")


def loop_threshold(dist: OutcomeDistribution) -> float:
    """The exact-mode threshold as a loop over adjacent pairs: the oracle."""
    mean_plus, _ = dist.moments(1)
    mean_minus, _ = dist.moments(-1)
    if abs(mean_plus - mean_minus) < 1e-15 and np.max(
        np.abs(dist.probs_plus - dist.probs_minus)
    ) < 1e-15:
        raise ValueError("states indistinguishable: identical conditional laws")
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
    diff = dist.probs_plus[inside] - dist.probs_minus[inside]
    candidates = []
    for j in range(inside.size - 1):
        a, b = diff[j], diff[j + 1]
        if a == 0.0:
            candidates.append(float(grid[inside[j]]))
        elif a * b < 0.0:
            if abs(abs(a) - abs(b)) < 1e-15:
                candidates.append(0.5 * float(grid[inside[j]] + grid[inside[j + 1]]))
            elif abs(a) < abs(b):
                candidates.append(float(grid[inside[j]]))
            else:
                candidates.append(float(grid[inside[j + 1]]))
    if diff[-1] == 0.0:
        candidates.append(float(grid[inside[-1]]))
    if not candidates:
        return snap(midpoint)
    return min(candidates, key=lambda t: abs(t - midpoint))


def _outcome(threshold, dist):
    try:
        return threshold(dist)
    except ValueError as exc:
        return str(exc)


def _weights(size):
    """Two lists of ``size`` weights in 0..3, each with a nonzero entry.

    Equal neighbours give the law difference exact zeros and ``|a| = |b|`` ties.
    """
    weights = st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any)
    return st.tuples(weights, weights)


@settings(max_examples=300, deadline=None)
@given(laws=st.integers(2, 12).flatmap(_weights), mirror=st.booleans())
@example(laws=([1, 0, 0, 1], [0, 1, 1, 0]), mirror=False)  # a = 0 beside b = 0
@example(laws=([2, 1, 1, 0], [0, 1, 1, 2]), mirror=False)  # zeros between the means
@example(laws=([1, 2], [2, 1]), mirror=False)  # a tie at the one sign change
def test_threshold_equals_the_loop_oracle(laws, mirror):
    plus, minus = laws
    if mirror:
        minus = plus[::-1]
    probs = [np.array(w, dtype=float) / sum(w) for w in (plus, minus)]
    dist = OutcomeDistribution(len(plus) - 1, *probs)
    assert _outcome(optimal_threshold, dist) == _outcome(loop_threshold, dist)


@pytest.mark.parametrize("n", [1, 2, 50, 51, 200])
@pytest.mark.parametrize("alpha, phi", [(0.1, math.pi / 2), (0.1, 4 * math.pi / 9), (0.3, 1.0)])
def test_threshold_equals_the_loop_oracle_on_binomial_laws(alpha, phi, n):
    dist = exact_distribution(setting(alpha, phi), n)
    assert optimal_threshold(dist) == loop_threshold(dist)


def test_threshold_identical_laws_rejected():
    dist = exact_distribution(setting(0.4, 0.0), 20)  # phi = 0 is uninformative
    with pytest.raises(ValueError):
        optimal_threshold(dist)


# ------------------------------------------------------------ fidelity


def test_fidelity_anchor_points():
    s = setting(0.1, math.pi / 2)
    strength = binary_stats(s).strength_d
    for n, target in ((200, 0.92), (400, 0.98)):
        dist = exact_distribution(s, n)
        report = readout_fidelity(dist, optimal_threshold(dist), strength)
        assert abs(report.f_bar - target) < 0.01
        assert abs(report.f_bar - report.f_erf) < 0.01


def test_fidelity_perfectly_distinguishable():
    s = setting(math.pi / 2, math.pi / 2)
    dist = exact_distribution(s, 1)
    report = readout_fidelity(dist, optimal_threshold(dist), math.inf)
    assert report.f_bar == pytest.approx(1.0)
    assert report.n_critical == 1


def test_fidelity_refuses_a_nan_threshold():
    s = setting(0.1, math.pi / 2)
    dist = exact_distribution(s, 20)
    with pytest.raises(ValueError, match="threshold"):
        readout_fidelity(dist, math.nan, binary_stats(s).strength_d)


def test_universal_curve_agreement():
    s = setting(0.1, math.pi / 2)
    strength = binary_stats(s).strength_d
    n_c = critical_n(strength)
    for ratio in np.linspace(0.1, 4.0, 40):
        n = max(1, round(ratio * n_c))
        dist = exact_distribution(s, n)
        report = readout_fidelity(dist, optimal_threshold(dist), strength)
        assert abs(report.f_bar - report.f_erf) < 0.01


def test_fidelity_monotone_in_n():
    s = setting(0.1, math.pi / 2)
    strength = binary_stats(s).strength_d
    prev_exact, prev_erf = None, None
    for n in range(20, 820, 20):
        dist = exact_distribution(s, n)
        report = readout_fidelity(dist, optimal_threshold(dist), strength)
        if prev_exact is not None:
            assert report.f_erf > prev_erf
            assert report.f_bar > prev_exact - 0.005  # discrete-grid ripple allowance
        prev_exact, prev_erf = report.f_bar, report.f_erf


def test_report_mean_consistency():
    s = setting(0.2, 1.2)
    dist = exact_distribution(s, 60)
    report = readout_fidelity(dist, optimal_threshold(dist), binary_stats(s).strength_d)
    assert report.f_bar == pytest.approx(0.5 * (report.f_plus + report.f_minus))
    assert report.strength_dn == pytest.approx(math.sqrt(60) * binary_stats(s).strength_d)


@pytest.mark.parametrize("alpha, phi, n", [(0.3, 1.2, 50), (0.3, 1.2, 51), (0.1, 1.4, 1000)])
def test_negating_phi_swaps_the_two_laws(alpha, phi, n):
    # at -phi the + law sits below the - law, so the fidelities read the
    # opposite tails and trade places
    reports = []
    for sign in (1, -1):
        s = setting(alpha, sign * phi)
        dist = exact_distribution(s, n)
        reports.append(readout_fidelity(dist, optimal_threshold(dist), binary_stats(s).strength_d))
    pos, neg = reports
    assert neg.f_plus == pos.f_minus and neg.f_minus == pos.f_plus
    assert neg.f_bar == pos.f_bar and neg.u_threshold == pos.u_threshold


# ------------------------------------------------------------ critical n


def test_critical_n_values():
    assert critical_n(0.1) == 200
    assert critical_n(1.0) == 2
    assert critical_n(math.sqrt(2.0)) == 1
    assert critical_n(math.inf) == 1


def test_critical_n_zero_strength_rejected():
    with pytest.raises(ValueError, match="D = 0"):
        critical_n(0.0)


@pytest.mark.parametrize("strength", [-0.1, -math.inf, math.nan])
def test_critical_n_refuses_negative_and_nan_strengths(strength):
    with pytest.raises(ValueError, match="strength_d must be positive"):
        critical_n(strength)


def test_threshold_constants():
    assert DN_THRESHOLD == pytest.approx(math.sqrt(2.0))
    assert FBAR_THRESHOLD == 0.92
