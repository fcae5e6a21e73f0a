import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_rotors as ref
from qndspin.rotations import (
    Rotor,
    rotor_compose,
    rotor_conj,
    rotor_exp,
    rotor_log,
    rotor_log_full,
    so3_from_rotor,
    su2_matrix,
)
from qndspin.stability import dephasing_map

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def series_exponential(theta, terms=30):
    """Brute-force Taylor series of exp(-i theta.sigma/2)."""
    h = -0.5j * (theta[0] * SX + theta[1] * SY + theta[2] * SZ)
    u = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, terms):
        term = term @ h / k
        u = u + term
    return u


def pauli_dot(v):
    return v[0] * SX + v[1] * SY + v[2] * SZ


def test_exp_identity():
    r = rotor_exp([0.0, 0.0, 0.0])
    assert r.scalar == 1.0
    assert np.all(r.vector == 0.0)


def test_exp_half_turn_about_z():
    r = rotor_exp([0.0, 0.0, math.pi])
    assert abs(r.scalar) < 1e-12
    np.testing.assert_allclose(r.vector, [0.0, 0.0, -1.0], atol=1e-12)


def test_exp_matches_taylor_series():
    theta = np.array([0.3, 0.4, 0.0])
    r = rotor_exp(theta)
    # frozen values from the 30-term series oracle
    assert r.scalar == pytest.approx(0.9689124217106447, abs=1e-15)
    np.testing.assert_allclose(
        r.vector, [-0.148442375552714, -0.197923167403618, 0.0], atol=1e-14
    )
    assert np.max(np.abs(su2_matrix(r) - series_exponential(theta))) < 1e-14


def test_log_identity():
    np.testing.assert_allclose(rotor_log(Rotor(1.0, np.zeros(3))), np.zeros(3))


def test_log_round_trip():
    theta = np.array([0.1, 0.2, -0.3])
    np.testing.assert_allclose(rotor_log(rotor_exp(theta)), theta, atol=1e-12)


def test_log_canonical_branch():
    theta = np.array([0.0, 0.0, 2.0 * math.pi - 0.2])
    out = rotor_log(rotor_exp(theta))
    np.testing.assert_allclose(out, [0.0, 0.0, -0.2], atol=1e-12)
    # both vectors map to the same SO(3) matrix
    np.testing.assert_allclose(
        so3_from_rotor(rotor_exp(theta)),
        so3_from_rotor(rotor_exp(out)),
        atol=1e-12,
    )


def test_log_degenerate_axis_convention():
    minus_one = Rotor(-1.0, np.zeros(3))
    with pytest.warns(RuntimeWarning):
        out = rotor_log(minus_one)
    np.testing.assert_allclose(out, [math.pi, 0.0, 0.0])


def test_log_full_branch_is_sign_exact():
    rng = np.random.default_rng(7)
    for _ in range(200):
        theta = rng.uniform(-1, 1, 3) * rng.uniform(0, 2 * math.pi)
        r = rotor_exp(theta)
        back = rotor_exp(rotor_log_full(r))
        assert abs(back.scalar - r.scalar) < 1e-12
        np.testing.assert_allclose(back.vector, r.vector, atol=1e-12)


def test_compose_identity():
    r = rotor_exp([0.4, -0.2, 0.9])
    out = rotor_compose(Rotor(1.0, np.zeros(3)), r)
    assert out.scalar == pytest.approx(r.scalar)
    np.testing.assert_allclose(out.vector, r.vector, atol=1e-15)


def test_compose_collinear_axes_add():
    a, b = 0.7, -0.4
    out = rotor_compose(rotor_exp([0, 0, a]), rotor_exp([0, 0, b]))
    expect = rotor_exp([0, 0, a + b])
    assert out.scalar == pytest.approx(expect.scalar, abs=1e-14)
    np.testing.assert_allclose(out.vector, expect.vector, atol=1e-14)


def test_compose_matches_matrix_product():
    rx = rotor_exp([0.5, 0.0, 0.0])
    rz = rotor_exp([0.0, 0.0, 1.1])
    lhs = su2_matrix(rotor_compose(rz, rx))
    rhs = su2_matrix(rz) @ su2_matrix(rx)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_conj_is_inverse():
    r = rotor_exp([0.3, -1.2, 0.4])
    out = rotor_compose(rotor_conj(r), r)
    assert out.scalar == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(out.vector, np.zeros(3), atol=1e-14)


def test_so3_identity():
    np.testing.assert_allclose(so3_from_rotor(Rotor(1.0, np.zeros(3))), np.eye(3))


def test_so3_quarter_turn():
    m = so3_from_rotor(rotor_exp([0.0, 0.0, math.pi / 2]))
    np.testing.assert_allclose(m @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)


def test_so3_conjugation_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        theta = rng.normal(size=3)
        v = rng.normal(size=3)
        r = rotor_exp(theta)
        u = su2_matrix(r)
        lhs = pauli_dot(so3_from_rotor(r) @ v)
        rhs = u @ pauli_dot(v) @ u.conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_so3_isometry():
    rng = np.random.default_rng(13)
    for _ in range(100):
        m = so3_from_rotor(rotor_exp(rng.normal(size=3)))
        v = rng.normal(size=3)
        assert np.linalg.norm(m @ v) == pytest.approx(np.linalg.norm(v), rel=1e-12)


def test_so3_orthogonality_and_determinant():
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = so3_from_rotor(rotor_exp(rng.normal(size=3) * 2.0))
        assert np.max(np.abs(m.T @ m - np.eye(3))) < 1e-10
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)


def test_round_trip_property_below_pi():
    rng = np.random.default_rng(19)
    for _ in range(500):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        theta = direction * rng.uniform(0.0, math.pi - 1e-6)
        np.testing.assert_allclose(rotor_log(rotor_exp(theta)), theta, atol=1e-10)


def test_homomorphism_property():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        a = rotor_exp(rng.normal(size=3) * 2.0)
        b = rotor_exp(rng.normal(size=3) * 2.0)
        lhs = so3_from_rotor(rotor_compose(a, b))
        rhs = so3_from_rotor(a) @ so3_from_rotor(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_double_cover():
    r = rotor_exp([1.0, -0.4, 0.2])
    neg = Rotor(-r.scalar, -r.vector)
    np.testing.assert_allclose(so3_from_rotor(r), so3_from_rotor(neg), atol=1e-14)


def test_unit_norm_preserved_over_many_compositions():
    rng = np.random.default_rng(29)
    r = Rotor(1.0, np.zeros(3))
    for _ in range(5000):
        r = rotor_compose(rotor_exp(rng.normal(size=3) * 0.5), r)
    assert r.scalar**2 + float(r.vector @ r.vector) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------- batched = per row


def assert_bits(a, b):
    """Equal values and equal signs of zero."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def assert_rotor_bits(r, s, v):
    assert_bits(r.scalar, s)
    assert_bits(r.vector, v)


angle = st.floats(-40.0, 40.0, allow_nan=False)
vector = st.tuples(angle, angle, angle).map(np.array)
tiny = st.floats(-1e-12, 1e-12, allow_nan=False)
# generic rotors, plus |v| < 1e-12 with either sign of the scalar (the
# special branches of both logarithms), in one batch
rotor_row = st.one_of(
    vector.map(ref.exp),
    st.tuples(st.sampled_from([1.0, -1.0, 0.5, -0.5]), st.tuples(tiny, tiny, tiny)).map(
        lambda pair: (pair[0], np.array(pair[1]))
    ),
)


def batch_of(rows) -> Rotor:
    return Rotor(np.array([s for s, _ in rows]), np.array([v for _, v in rows]))


@settings(max_examples=150, deadline=None)
@given(st.lists(vector, min_size=1, max_size=12))
def test_batched_exp_so3_and_dephasing_map_equal_rows(thetas):
    batch = rotor_exp(np.array(thetas))
    mats, dephs = so3_from_rotor(batch), dephasing_map(np.array(thetas))
    for i, theta in enumerate(thetas):
        one = rotor_exp(theta)
        assert isinstance(one.scalar, float) and not isinstance(one.scalar, np.ndarray)
        s, v = ref.exp(theta)
        assert_rotor_bits(one, s, v)
        assert_rotor_bits(Rotor(batch.scalar[i], batch.vector[i]), s, v)
        assert_bits(so3_from_rotor(one), ref.so3((s, v)))
        assert_bits(mats[i], ref.so3((s, v)))
        expected = 0.5 * (ref.so3(ref.exp(theta)) + ref.so3(ref.exp(-theta)))
        assert_bits(dephasing_map(theta), expected)
        assert_bits(dephs[i], expected)


@settings(max_examples=150, deadline=None)
@given(st.lists(rotor_row, min_size=1, max_size=12))
def test_batched_logs_equal_rows(rows):
    batch = batch_of(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        logs, fulls = rotor_log(batch), rotor_log_full(batch)
        for i, (s, v) in enumerate(rows):
            assert_bits(logs[i], ref.log((s, v)))
            assert_bits(rotor_log(Rotor(s, v)), ref.log((s, v)))
            assert_bits(fulls[i], ref.log_full((s, v)))
            assert_bits(rotor_log_full(Rotor(s, v)), ref.log_full((s, v)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(rotor_row, rotor_row), min_size=1, max_size=12))
def test_batched_compose_and_conj_equal_rows(pairs):
    left, right = batch_of([a for a, _ in pairs]), batch_of([b for _, b in pairs])
    composed = rotor_compose(left, right)
    # a single rotor broadcasts against a batch
    first = rotor_compose(Rotor(*pairs[0][0]), right)
    for i, (a, b) in enumerate(pairs):
        s, v = ref.compose(a, b)
        assert_rotor_bits(Rotor(composed.scalar[i], composed.vector[i]), s, v)
        assert_rotor_bits(rotor_compose(Rotor(*a), Rotor(*b)), s, v)
        assert_rotor_bits(Rotor(first.scalar[i], first.vector[i]), *ref.compose(pairs[0][0], b))
        assert_bits(rotor_conj(left).vector[i], ref.conj(a)[1])


def test_log_warns_once_for_a_batch_with_an_undefined_axis():
    batch = Rotor(np.array([-1.0, 1.0]), np.zeros((2, 3)))
    with pytest.warns(RuntimeWarning):
        out = rotor_log(batch)
    np.testing.assert_array_equal(out, [[math.pi, 0.0, 0.0], [0.0, 0.0, 0.0]])
