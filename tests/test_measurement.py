import math

import numpy as np
import pytest

from qndspin.measurement import (
    MeasurementSetting,
    ReadoutModel,
    binary_stats,
    kraus_pair,
    outcome_prob,
)
from qndspin.rotations import rotor_exp, su2_matrix


def setting(alpha, phi, axis=(0.0, 0.0, 1.0), readout=None):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    kwargs = {} if readout is None else {"readout": readout}
    return MeasurementSetting(alpha * axis, phi, **kwargs)


def alpha_eigenstates(alpha_hat):
    """Eigenvectors of alpha_hat . I with eigenvalues +-1/2 (oracle)."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    op = 0.5 * (alpha_hat[0] * sx + alpha_hat[1] * sy + alpha_hat[2] * sz)
    vals, vecs = np.linalg.eigh(op)
    return vecs[:, 1], vecs[:, 0]  # +1/2 first


# ------------------------------------------------------------------- Kraus


def test_kraus_projective_case():
    m_plus, m_minus = kraus_pair(setting(math.pi / 2, math.pi / 2, axis=(1, 0, 0)))
    plus, minus = alpha_eigenstates(np.array([1.0, 0.0, 0.0]))
    proj_plus = np.outer(plus, plus.conj())
    proj_minus = np.outer(minus, minus.conj())
    # POVM elements are the eigenstate projectors (Kraus defined up to phase)
    np.testing.assert_allclose(m_plus.conj().T @ m_plus, proj_plus, atol=1e-12)
    np.testing.assert_allclose(m_minus.conj().T @ m_minus, proj_minus, atol=1e-12)


def test_kraus_no_information_case():
    m_plus, m_minus = kraus_pair(setting(0.0, 0.0))
    np.testing.assert_allclose(m_plus, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(m_minus, np.zeros((2, 2)), atol=1e-14)


def test_kraus_eigenvalues_match_probabilities():
    rng = np.random.default_rng(21)
    for _ in range(50):
        axis = rng.normal(size=3)
        s = setting(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi), axis)
        for u, m in zip((1, -1), kraus_pair(s)):
            eigvals = np.sort(np.linalg.eigvalsh(m.conj().T @ m))
            expected = np.sort([outcome_prob(s, 1, u), outcome_prob(s, -1, u)])
            np.testing.assert_allclose(eigvals, expected, atol=1e-12)


def test_kraus_completeness_property():
    rng = np.random.default_rng(33)
    for _ in range(1000):
        axis = rng.normal(size=3)
        s = setting(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi), axis)
        m_plus, m_minus = kraus_pair(s)
        total = m_plus.conj().T @ m_plus + m_minus.conj().T @ m_minus
        assert np.max(np.abs(total - np.eye(2))) < 1e-12


def test_kraus_rejects_imperfect_readout():
    s = setting(0.3, 1.0, readout=ReadoutModel(0.9, 0.95))
    with pytest.raises(ValueError):
        kraus_pair(s)


# ------------------------------------------------------------- probabilities


def test_projective_probabilities():
    s = setting(math.pi / 2, math.pi / 2)
    assert outcome_prob(s, 1, 1) == pytest.approx(1.0)
    assert outcome_prob(s, -1, 1) == pytest.approx(0.0, abs=1e-12)


def test_phi_zero_is_uninformative():
    s = setting(0.7, 0.0)
    for u in (1, -1):
        assert outcome_prob(s, 1, u) == pytest.approx(outcome_prob(s, -1, u))


def test_probabilities_normalized():
    rng = np.random.default_rng(41)
    for _ in range(100):
        readout = ReadoutModel(rng.uniform(0, 1), rng.uniform(0, 1))
        s = setting(
            rng.uniform(0, math.pi),
            rng.uniform(-math.pi, math.pi),
            rng.normal(size=3),
            readout=readout,
        )
        for branch in (1, -1):
            assert outcome_prob(s, branch, 1) + outcome_prob(s, branch, -1) == pytest.approx(1.0)


def test_readout_model_validation():
    with pytest.raises(ValueError):
        ReadoutModel(1.2, 0.5)
    with pytest.raises(ValueError):
        ReadoutModel(0.5, -0.1)


@pytest.mark.parametrize("branch, u", [(0, 1), (1, 0), (2, -1), (-1, 0.5)])
def test_outcome_prob_takes_only_signs(branch, u):
    with pytest.raises(ValueError, match="branch and u must be \\+1 or -1"):
        outcome_prob(setting(0.3, 1.0), branch, u)


def test_outcome_prob_refuses_a_nan_phase_set_past_the_constructor():
    """Through the constructors |delta_p + p_bar cos| <= 1; a nan set afterwards
    fails the range check, which the clamp alone would pass through."""
    s = setting(0.3, 1.0)
    s.phi = math.nan
    with pytest.raises(ValueError, match="invalid readout model produced probability nan"):
        outcome_prob(s, 1, 1)


# ------------------------------------------------------------------- stats


def test_strength_weak_case():
    stats = binary_stats(setting(0.1, math.pi / 2))
    assert stats.strength_d == pytest.approx(math.tan(0.1), abs=1e-12)
    assert stats.strength_d == pytest.approx(0.1003, abs=5e-4)


def test_strength_projective_sentinel():
    stats = binary_stats(setting(math.pi / 2, math.pi / 2))
    assert math.isinf(stats.strength_d)
    assert stats.projective


def test_strength_no_information_is_zero():
    assert binary_stats(setting(0.0, 0.0)).strength_d == 0.0


def test_room_temperature_strength_scale():
    # photon-statistics mapping: p+ = n+, p- = 1 - n- for n+ = 0.1, n- = 0.07
    readout = ReadoutModel(p_plus=0.1, p_minus=0.93)
    n_bar, contrast = 0.085, 0.03 / 0.17
    for alpha in (0.05, 0.2, 0.8):
        stats = binary_stats(setting(alpha, math.pi / 2, readout=readout))
        predicted = math.sqrt(n_bar) * contrast * abs(math.sin(alpha))
        assert stats.strength_d / abs(math.sin(alpha)) == pytest.approx(0.05, rel=0.1)
        assert stats.strength_d == pytest.approx(predicted, rel=0.1)


def test_moments_match_probability_moments():
    rng = np.random.default_rng(55)
    for _ in range(100):
        readout = ReadoutModel(rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0))
        s = setting(
            rng.uniform(0, math.pi),
            rng.uniform(-math.pi, math.pi),
            rng.normal(size=3),
            readout=readout,
        )
        stats = binary_stats(s)
        for branch, mean, sigma in (
            (1, stats.mean_plus, stats.sigma_plus),
            (-1, stats.mean_minus, stats.sigma_minus),
        ):
            m = outcome_prob(s, branch, 1) - outcome_prob(s, branch, -1)
            assert m == pytest.approx(mean, abs=1e-12)
            assert sigma**2 == pytest.approx(1.0 - m**2, abs=1e-12)


def test_ideal_strength_reduces_to_min_tangent():
    rng = np.random.default_rng(60)
    for _ in range(200):
        alpha = rng.uniform(1e-3, math.pi / 2 - 1e-3)
        phi = rng.uniform(1e-3, math.pi / 2 - 1e-3)
        stats = binary_stats(setting(alpha, phi, rng.normal(size=3)))
        assert stats.strength_d == pytest.approx(
            min(abs(math.tan(alpha)), abs(math.tan(phi))), abs=1e-10
        )


def test_strength_depends_only_on_magnitudes():
    rng = np.random.default_rng(61)
    base = binary_stats(setting(0.4, 1.1))
    for _ in range(20):
        stats = binary_stats(setting(0.4, 1.1, rng.normal(size=3)))
        assert stats.strength_d == pytest.approx(base.strength_d, abs=1e-14)


def test_stats_are_valid_moments():
    rng = np.random.default_rng(62)
    for _ in range(200):
        readout = ReadoutModel(rng.uniform(0, 1), rng.uniform(0, 1))
        s = setting(
            rng.uniform(0, math.pi),
            rng.uniform(-math.pi, math.pi),
            rng.normal(size=3),
            readout=readout,
        )
        stats = binary_stats(s)
        for mean, sigma in (
            (stats.mean_plus, stats.sigma_plus),
            (stats.mean_minus, stats.sigma_minus),
        ):
            assert -1.0 <= mean <= 1.0
            assert 0.0 <= sigma <= 1.0
            assert mean**2 + sigma**2 <= 1.0 + 1e-12


def test_phi_normalization():
    s = MeasurementSetting(np.array([0.1, 0, 0]), 3 * math.pi)
    assert s.phi == pytest.approx(math.pi)
    s2 = MeasurementSetting(np.array([0.1, 0, 0]), -math.pi)
    assert s2.phi == pytest.approx(math.pi)


def test_kraus_matches_su2_construction():
    # M_u = (e^{-i phi/2} E + u e^{i phi/2} E^dag)/2 with E = exp(i alpha . I)
    s = setting(0.8, 0.6, (0.3, -0.5, 0.2))
    e = np.exp(-0.5j * s.phi) * su2_matrix(rotor_exp(-s.alpha_vec))
    m_plus, m_minus = kraus_pair(s)
    np.testing.assert_allclose(m_plus, 0.5 * (e + e.conj().T), atol=1e-14)
    np.testing.assert_allclose(m_minus, 0.5 * (e - e.conj().T), atol=1e-14)
