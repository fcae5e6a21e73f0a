import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from qndspin.control import (
    concatenated_dd,
    decompose_joint,
    qnd_residual,
    solve_waiting_time,
    split_conditional,
)
from qndspin.hyperfine import (
    MHZ,
    DDSequence,
    SpinSystem,
    cpmg,
    exact_dd_evolution,
    extract_alpha_phi,
)
from qndspin.rotations import (
    M,
    Rotor,
    rotor_compose,
    rotor_exp,
    rotor_log,
    so3_from_rotor,
)


def p2_system() -> SpinSystem:
    a_mhz = np.array([0.316 / math.sqrt(2), 0.316 / math.sqrt(2), 0.330])
    return SpinSystem(
        omega_n=-10.71 * 0.0305 * MHZ, a_plus=np.zeros(3), a_minus=-a_mhz * MHZ
    )


def rotor_diff(a, b) -> float:
    return max(abs(a.scalar - b.scalar), float(np.max(np.abs(a.vector - b.vector))))


def direction_angle(u, v) -> float:
    """Angle between directions, accurate for near-parallel vectors."""
    u = np.asarray(u) / np.linalg.norm(u)
    v = np.asarray(v) / np.linalg.norm(v)
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(u @ v))


vec3 = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: sum(x * x for x in v) > 1e-2)


# -------------------------------------------------------------- waiting time


def flips(t_r, flip_times=()) -> DDSequence:
    """A wait of ``t_r`` with electron flips at ``flip_times``.

    The electron starts in ``|+z>``, so the waiting rotation is the ``u_plus``
    branch of ``exact_dd_evolution`` on this sequence.
    """
    return DDSequence(np.asarray(flip_times, dtype=float), t_r)


def test_waiting_rotation_free_precession():
    sys = SpinSystem.from_vectors([0.1, 0.0, 0.9], [0.2, -0.1, 0.05])
    t_r = 1.3
    out = rotor_log(exact_dd_evolution(sys, flips(t_r))[0])
    np.testing.assert_allclose(out, sys.wait_field * t_r, atol=1e-12)


def test_waiting_rotation_single_flip():
    sys = SpinSystem.from_vectors([0.1, 0.0, 0.9], [0.2, -0.1, 0.05])
    t_r, t_1 = 1.1, 0.4
    out = rotor_log(exact_dd_evolution(sys, flips(t_r, [t_1]))[0])
    expected = rotor_compose(
        rotor_exp((sys.omega - sys.hyperfine / 2) * (t_r - t_1)),
        rotor_exp((sys.omega + sys.hyperfine / 2) * t_1),
    )
    assert rotor_diff(rotor_exp(out), expected) < 1e-12


def test_waiting_rotation_no_hyperfine_ignores_flips():
    sys = SpinSystem.from_vectors([0.0, 0.2, 1.1], [0.0, 0.0, 0.0])
    t_r = 0.9
    free = rotor_log(exact_dd_evolution(sys, flips(t_r))[0])
    flipped = rotor_log(exact_dd_evolution(sys, flips(t_r, [0.2, 0.5, 0.7]))[0])
    np.testing.assert_allclose(free, sys.omega * t_r, atol=1e-12)
    np.testing.assert_allclose(flipped, free, atol=1e-12)


def test_flip_schedule_validation():
    with pytest.raises(ValueError):
        flips(1.0, [0.8, 0.2])
    with pytest.raises(ValueError):
        flips(1.0, [1.2])
    for t_r in (0.0, -1.0, math.nan):  # a wait must have a positive duration
        with pytest.raises(ValueError):
            flips(t_r)


def interval_loop_waiting_rotation(sys, t_r, flip_times):
    """Reference: the waiting rotation composed interval by interval."""
    bounds = np.concatenate(([0.0], flip_times, [t_r]))
    half_a = 0.5 * sys.hyperfine
    total = Rotor(1.0, np.zeros(3))
    for k in range(bounds.size - 1):
        dt = bounds[k + 1] - bounds[k]
        if dt == 0.0:
            continue
        sign = 1.0 if k % 2 == 0 else -1.0
        total = rotor_compose(rotor_exp((sys.omega + sign * half_a) * dt), total)
    return rotor_log(total)


@settings(max_examples=200, deadline=None)
@given(
    omega=vec3,
    hyperfine=vec3,
    t_r=st.floats(0.01, 20.0),
    fractions=st.lists(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)), max_size=8
    ),
    repeat=st.booleans(),
)
def test_waiting_rotation_equals_interval_loop_bit_for_bit(
    omega, hyperfine, t_r, fractions, repeat
):
    """Flips at 0, at t_r and repeated flip times give zero-width intervals."""
    sys = SpinSystem.from_vectors(omega, hyperfine)
    flip_times = np.sort(np.array(fractions + fractions[:1] * repeat) * t_r)
    out = rotor_log(exact_dd_evolution(sys, flips(t_r, flip_times))[0])
    ref = interval_loop_waiting_rotation(sys, t_r, flip_times)
    assert out.tobytes() == ref.tobytes()


# -------------------------------------------------------------- residual


def test_residual_identity_rotation():
    assert qnd_residual(Rotor(1.0, np.zeros(3)), [1.0, 0.0, 0.0]) == 0.0


def test_residual_parallel_rotation():
    axis = np.array([0.3, -0.5, 0.8])
    axis /= np.linalg.norm(axis)
    for mag in (0.1, 1.0, 2.9):
        assert qnd_residual(rotor_exp(mag * axis), axis) < 1e-12


def test_residual_quarter_turn():
    total = rotor_exp([0.0, 0.0, math.pi / 2])
    assert qnd_residual(total, [1.0, 0.0, 0.0]) == pytest.approx(math.pi / 2)


@pytest.mark.parametrize("scale", [2.0, 0.5, 1.0 / M, M])
def test_residual_normalizes_the_axis(scale):
    total = rotor_exp([0.0, 0.0, math.pi / 2])
    assert qnd_residual(total, [scale, 0.0, 0.0]) == pytest.approx(math.pi / 2)


# a zero or underflowing norm, or a non-finite entry
_BAD_AXIS = r"^alpha_hat must be (an axis with a norm in \[1e-75, |finite and at most 1e\+75)"


@pytest.mark.parametrize(
    "alpha_hat", [[0.0, 0.0, 0.0], [1e-170, 0.0, 0.0], [math.nan, 0.0, 1.0], [math.inf, 0.0, 0.0]]
)
def test_residual_and_solve_reject_unusable_axes(alpha_hat):
    with pytest.raises(ValueError, match=_BAD_AXIS):
        qnd_residual(rotor_exp([0.0, 0.0, 0.3]), alpha_hat)
    with pytest.raises(ValueError, match=_BAD_AXIS):
        solve_waiting_time(p2_system(), np.zeros(3), alpha_hat, (0.0, 1e-6))


def test_residual_frame_invariant():
    rng = np.random.default_rng(3)
    phi = rng.normal(size=3)
    alpha_hat = rng.normal(size=3)
    alpha_hat /= np.linalg.norm(alpha_hat)
    base = qnd_residual(rotor_exp(phi), alpha_hat)
    for _ in range(10):
        frame = so3_from_rotor(rotor_exp(rng.normal(size=3)))
        rotated = qnd_residual(rotor_exp(frame @ phi), frame @ alpha_hat)
        assert rotated == pytest.approx(base, abs=1e-10)


# -------------------------------------------------------------- root search


def test_solve_trivial_dd_rotation():
    sys = SpinSystem.from_vectors([0.0, 0.1, 1.0], [0.05, 0.0, 0.02])
    alpha_hat = np.array([1.0, 0.0, 0.0])
    period = sys.wait_period
    roots = solve_waiting_time(sys, np.zeros(3), alpha_hat, (0.0, period))
    ts = [t for t, _ in roots]
    rs = [r for _, r in roots]
    assert min(rs) < 1e-9
    assert any(abs(t) < 1e-3 * period and r < 1e-9 for t, r in roots)
    assert any(abs(t - period) < 1e-3 * period and r < 1e-9 for t, r in roots)
    assert ts == sorted(ts)


def test_solve_cpmg_reaches_qnd_condition():
    sys = p2_system()
    seq = cpmg(6, sys.dd_period)
    alpha_vec, phi_dd = extract_alpha_phi(*exact_dd_evolution(sys, seq))
    roots = solve_waiting_time(
        sys, phi_dd, alpha_vec / np.linalg.norm(alpha_vec), (0.0, sys.wait_period)
    )
    assert min(r for _, r in roots) < 1e-9


def test_solve_periodic_dd_is_obstructed():
    sys = p2_system()
    seq = concatenated_dd(1, sys.dd_period, 6)
    alpha_vec, phi_dd = extract_alpha_phi(*exact_dd_evolution(sys, seq))
    roots = solve_waiting_time(
        sys, phi_dd, alpha_vec / np.linalg.norm(alpha_vec), (0.0, sys.wait_period)
    )
    best = min(r for _, r in roots)
    assert best > 1e-3  # measured 3.2e-2


def test_solve_rejects_empty_window():
    sys = p2_system()
    with pytest.raises(ValueError):
        solve_waiting_time(sys, np.zeros(3), [1.0, 0.0, 0.0], (1.0, 1.0))


@pytest.mark.parametrize(
    "window",
    [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf), (0.0, math.nan), (-1e308, 1e308)],
)
def test_solve_rejects_non_finite_window(window):
    with pytest.raises(ValueError, match="^window must be finite and at most 1e"):
        solve_waiting_time(p2_system(), np.zeros(3), [1.0, 0.0, 0.0], window)


def oracle_residuals(sys, phi_dd, alpha_hat, times):
    """QND residual at each waiting time, built with scipy rotations."""
    alpha_hat = np.asarray(alpha_hat, dtype=float)
    alpha_hat = alpha_hat / np.linalg.norm(alpha_hat)
    m = Rotation.from_rotvec(np.asarray(phi_dd, dtype=float)).apply(alpha_hat)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    moved = Rotation.from_rotvec(np.outer(times, sys.wait_field)).apply(m)
    chord = 0.5 * np.linalg.norm(moved - alpha_hat, axis=1)
    return 2.0 * np.arcsin(np.minimum(chord, 1.0))


def assert_roots_contract(sys, phi_dd, alpha_hat, window, roots):
    """In the window, increasing, one period apart, local minima, and no
    worse than a dense brute-force scan of the window."""
    lo, hi = window
    period = sys.wait_period
    ts = np.array([t for t, _ in roots])
    assert roots and np.all((lo <= ts) & (ts <= hi))
    assert np.all(np.diff(ts) > 0.0)
    inner = ts[(ts > lo) & (ts < hi)]
    np.testing.assert_allclose(np.diff(inner), period, rtol=1e-12, atol=0.0)
    step = 1e-6 * period
    for t, _ in roots:
        here, left, right = oracle_residuals(sys, phi_dd, alpha_hat, [t, t - step, t + step])
        if len(roots) > 1 or lo < t < hi:
            assert here <= left and here <= right
        elif t == lo:
            assert here <= right
        else:
            assert here <= left
    grid = np.linspace(lo, hi, 20_001)
    brute = float(np.min(oracle_residuals(sys, phi_dd, alpha_hat, grid)))
    assert min(r for _, r in roots) <= brute + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    omega=vec3,
    hyperfine=vec3,
    coupling=st.floats(0.0, 0.8),
    phi_dd=vec3,
    phi_scale=st.floats(0.0, 3.0),
    alpha=vec3,
    start=st.floats(-3.0, 1.0),
    span=st.floats(0.3, 3.0),
)
def test_solve_matches_dense_oracle(
    omega, hyperfine, coupling, phi_dd, phi_scale, alpha, start, span
):
    sys = SpinSystem.from_vectors(omega, coupling * np.array(hyperfine))
    assume(np.linalg.norm(sys.wait_field) > 0.1)
    phi_dd = phi_scale * np.array(phi_dd)
    alpha_hat = np.array(alpha) / np.linalg.norm(alpha)
    # away from the flat case, which has its own test
    w_hat = sys.wait_field / np.linalg.norm(sys.wait_field)
    m = Rotation.from_rotvec(phi_dd).apply(alpha_hat)
    assume(np.linalg.norm(np.cross(alpha_hat, w_hat)) * np.linalg.norm(np.cross(m, w_hat)) > 1e-3)
    period = sys.wait_period
    window = (start * period, (start + span) * period)
    roots = solve_waiting_time(sys, phi_dd, alpha_hat, window)
    assert_roots_contract(sys, phi_dd, alpha_hat, window, roots)


def test_solve_flat_case_returns_one_point():
    sys = SpinSystem.from_vectors([0.1, -0.2, 0.9], [0.2, 0.1, 0.05])
    w_hat = sys.wait_field / np.linalg.norm(sys.wait_field)
    window = (-0.7 * sys.wait_period, 1.8 * sys.wait_period)
    # alpha_hat parallel to w
    phi_dd = np.array([0.3, -0.4, 0.2])
    roots = solve_waiting_time(sys, phi_dd, w_hat, window)
    assert len(roots) == 1
    assert roots[0][0] in window
    values = oracle_residuals(sys, phi_dd, w_hat, np.linspace(*window, 2001))
    assert np.ptp(values) < 1e-12
    assert roots[0][1] == pytest.approx(values[0], abs=1e-12)
    # m = R(phi_dd) alpha_hat parallel to w
    alpha_hat = np.array([1.0, 0.0, 0.0])
    turn = np.cross(alpha_hat, w_hat)
    phi_dd = turn / np.linalg.norm(turn) * math.acos(float(alpha_hat @ w_hat))
    roots = solve_waiting_time(sys, phi_dd, alpha_hat, window)
    assert len(roots) == 1
    assert roots[0][0] in window


def test_solve_narrow_window_returns_better_endpoint():
    sys = p2_system()
    period = sys.wait_period
    alpha_hat = np.array([0.6, 0.0, 0.8])
    phi_dd = np.array([0.2, 0.5, -0.1])
    (t_root, _), = solve_waiting_time(sys, phi_dd, alpha_hat, (0.0, period * (1 - 1e-6)))
    for lo_frac, hi_frac in ((0.1, 0.4), (0.2, 0.8), (0.55, 0.9)):
        window = (t_root + lo_frac * period, t_root + hi_frac * period)
        roots = solve_waiting_time(sys, phi_dd, alpha_hat, window)
        ends = oracle_residuals(sys, phi_dd, alpha_hat, window)
        assert len(roots) == 1
        assert roots[0][0] == window[int(np.argmin(ends))]
        assert roots[0][1] == pytest.approx(ends.min(), abs=1e-13)
        assert_roots_contract(sys, phi_dd, alpha_hat, window, roots)


def test_solve_keeps_roots_on_both_window_ends():
    sys = p2_system()
    period = sys.wait_period
    alpha_hat = np.array([0.6, 0.0, 0.8])
    phi_dd = np.array([0.2, 0.5, -0.1])
    (t_root, _), = solve_waiting_time(sys, phi_dd, alpha_hat, (0.0, period * (1 - 1e-6)))
    for shift in (-2.0, 0.0):
        window = (t_root + shift * period, t_root + (shift + 2.0) * period)
        roots = solve_waiting_time(sys, phi_dd, alpha_hat, window)
        ts = [t for t, _ in roots]
        assert len(ts) == 3
        assert ts[0] == window[0] and ts[-1] == window[1]
        assert ts[1] == pytest.approx(t_root + (shift + 1.0) * period, rel=1e-12)
        assert_roots_contract(sys, phi_dd, alpha_hat, window, roots)


def row_bits(rows) -> list[bytes]:
    """The bits of each row's ``(t, residual)`` pairs."""
    return [np.array(row).tobytes() for row in rows]


@settings(max_examples=80, deadline=None)
@given(
    omega=vec3,
    hyperfine=vec3,
    rows=st.lists(
        st.tuples(vec3, st.floats(0.0, 3.0), vec3, st.sampled_from(["free", "a || w", "m || w"])),
        min_size=1,
        max_size=6,
    ),
    start=st.floats(-3.0, 1.0),
    span=st.one_of(st.floats(0.02, 0.9), st.floats(0.3, 3.0)),
)
def test_batched_solve_rows_equal_one_row_calls(omega, hyperfine, rows, start, span):
    """Row ``i`` of one call is the one-row call, bit for bit: flat rows
    (``alpha_hat`` or ``m`` along ``w``) and windows without a ``t_k`` too."""
    sys = SpinSystem.from_vectors(omega, 0.5 * np.array(hyperfine))
    rate = np.linalg.norm(sys.wait_field)
    assume(rate > 0.1)
    w_hat = sys.wait_field / rate
    phi_dds, alpha_hats = [], []
    for phi_dd, scale, alpha, case in rows:
        phi_dd = scale * np.array(phi_dd)
        if case == "a || w":
            alpha = 2.0 * w_hat
        elif case == "m || w":  # R(phi_dd) alpha_hat = w_hat up to rounding
            alpha = so3_from_rotor(rotor_exp(-phi_dd)) @ w_hat
        phi_dds.append(phi_dd)
        alpha_hats.append(alpha)
    phi_dds, alpha_hats = np.array(phi_dds), np.array(alpha_hats)
    window = (start * sys.wait_period, (start + span) * sys.wait_period)
    batched = solve_waiting_time(sys, phi_dds, alpha_hats, window)
    one_by_one = [solve_waiting_time(sys, p, a, window) for p, a in zip(phi_dds, alpha_hats)]
    assert row_bits(batched) == row_bits(one_by_one)
    nested = solve_waiting_time(sys, phi_dds[None], alpha_hats[None], window)
    assert len(nested) == 1 and row_bits(nested[0]) == row_bits(batched)


_PHI3, _ALPHA3 = np.tile([0.2, 0.5, -0.1], (3, 1)), np.tile([0.6, 0.0, 0.8], (3, 1))
_ZERO_AXIS = "alpha_hat must be an axis with a norm in [1e-75, 1e+75], got 0.0"
_NON_FINITE = "{} must be finite and at most 1e+75 in magnitude"


def _with_row(array, row, value):
    array = array.copy()
    array[row] = value
    return array


@pytest.mark.parametrize(
    "phi_dd, alpha_hat, message",
    [
        (_PHI3, _with_row(_ALPHA3, 1, 0.0), _ZERO_AXIS),
        (_PHI3, _with_row(_ALPHA3, 2, [1e-170, 0.0, 0.0]), _ZERO_AXIS),
        (_PHI3, _with_row(_ALPHA3, 1, [0.6, math.nan, 0.8]), _NON_FINITE.format("alpha_hat")),
        (_PHI3, _with_row(_ALPHA3, 0, [math.inf, 0.0, 0.8]), _NON_FINITE.format("alpha_hat")),
        (_with_row(_PHI3, 1, [0.2, math.nan, 0.1]), _ALPHA3, _NON_FINITE.format("phi_dd")),
        (_with_row(_PHI3, 2, [0.2, 0.0, -math.inf]), _ALPHA3, _NON_FINITE.format("phi_dd")),
        (
            _PHI3[:2],
            _ALPHA3,
            "phi_dd and alpha_hat must share one shape (..., 3), got (2, 3) and (3, 3)",
        ),
        (
            _PHI3[:, :2],
            _ALPHA3[:, :2],
            "phi_dd and alpha_hat must share one shape (..., 3), got (3, 2) and (3, 2)",
        ),
        (
            _PHI3[0],
            _ALPHA3,
            "phi_dd and alpha_hat must share one shape (..., 3), got (3,) and (3, 3)",
        ),
    ],
    ids=[
        "zero row",
        "underflowing row",
        "nan axis row",
        "inf axis row",
        "nan phi_dd row",
        "inf phi_dd row",
        "fewer phi_dd rows",
        "rows of two",
        "one phi_dd for three axes",
    ],
)
def test_batched_solve_refuses_the_whole_call(phi_dd, alpha_hat, message):
    """One bad row refuses every row, with the message of its one-row call."""
    window = (0.0, p2_system().wait_period)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve_waiting_time(p2_system(), phi_dd, alpha_hat, window)
    if phi_dd.shape == alpha_hat.shape == (3, 3):
        bad = [i for i in range(3) if not (phi_dd[i] == _PHI3[i]).all()]
        bad += [i for i in range(3) if not (alpha_hat[i] == _ALPHA3[i]).all()]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_waiting_time(p2_system(), phi_dd[bad[0]], alpha_hat[bad[0]], window)


# -------------------------------------------------------------- concatenation


def test_concatenated_order_one_is_periodic_dd():
    seq = concatenated_dd(1, 1.0, 2)
    np.testing.assert_allclose(seq.pulse_times, [0.25, 0.5, 0.75, 1.0])
    assert seq.duration == pytest.approx(1.0)
    assert np.diff(seq.interval_bounds()) @ seq.interval_signs() == pytest.approx(0.0, abs=1e-12)


def test_concatenated_order_two_is_cpmg():
    for n in (1, 2, 5):
        seq = concatenated_dd(2, 1.3, n)
        ref = cpmg(n, 1.3)
        np.testing.assert_allclose(seq.pulse_times, ref.pulse_times)
        assert seq.duration == pytest.approx(ref.duration)


def test_concatenation_recursion_oracle():
    sys = SpinSystem.from_vectors([0.2, -0.1, 1.0], [0.3, 0.2, -0.25])
    for order in (2, 3, 4):
        u_plus, u_minus = exact_dd_evolution(sys, concatenated_dd(order, 1.3, 1))
        prev_plus, prev_minus = exact_dd_evolution(
            sys, concatenated_dd(order - 1, 1.3, 1)
        )
        # flipping the electron swaps the conditional branches of the half
        assert rotor_diff(u_plus, rotor_compose(prev_minus, prev_plus)) < 1e-13
        assert rotor_diff(u_minus, rotor_compose(prev_plus, prev_minus)) < 1e-13


def test_concatenated_duration_scaling():
    for order in (1, 2, 3, 4):
        seq = concatenated_dd(order, 2.0, 3)
        assert seq.duration == pytest.approx(3 * 2 ** (order - 1) * 1.0)


# -------------------------------------------------------------- decompositions


def test_decompose_trivial():
    c0 = np.array([0.3, -0.2, 0.5])
    c, d = decompose_joint(c0, np.zeros(3))
    np.testing.assert_allclose(c, 2 * c0, atol=1e-12)
    np.testing.assert_allclose(d, np.zeros(3), atol=1e-12)


def test_decompose_orthogonal_keeps_direction():
    c0 = np.array([0.4, 0.0, 0.0])
    d0 = np.array([0.0, 0.3, 0.0])
    c, d = decompose_joint(c0, d0)
    assert direction_angle(c, c0) < 1e-9
    assert direction_angle(d, np.cross(c0, d0)) < 1e-9


def test_decompose_closed_form_oracle():
    def sin_vec(v):
        mag = np.linalg.norm(v)
        return v / mag * math.sin(mag) if mag > 0 else v

    rng = np.random.default_rng(123)
    for _ in range(50):
        c0 = rng.normal(size=3) * 0.4
        d0 = rng.normal(size=3) * 0.4
        c, d = decompose_joint(c0, d0)
        a_plus = (c0 + d0 / 2) / 2
        a_minus = (c0 - d0 / 2) / 2
        c_pred = sin_vec(a_minus) * math.cos(np.linalg.norm(a_plus)) + sin_vec(
            a_plus
        ) * math.cos(np.linalg.norm(a_minus))
        d_pred = np.cross(sin_vec(a_minus), sin_vec(a_plus))
        assert direction_angle(c, c_pred) < 1e-9
        if np.linalg.norm(d_pred) > 1e-12:
            assert direction_angle(d, d_pred) < 1e-9
        # defining operator identity, conditional on both electron states
        for s in (1.0, -1.0):
            lhs = rotor_exp(c + s * d / 2)
            rhs = rotor_compose(rotor_exp(c0 - s * d0 / 2), rotor_exp(c0 + s * d0 / 2))
            assert rotor_diff(lhs, rhs) < 1e-12


def test_split_trivial_cases():
    c = np.array([0.5, -0.1, 0.2])
    c_tilde, d_tilde = split_conditional(c, np.zeros(3))
    np.testing.assert_allclose(c_tilde, c, atol=1e-12)
    np.testing.assert_allclose(d_tilde, np.zeros(3), atol=1e-12)

    d = np.array([0.0, 0.6, 0.0])
    c_tilde, d_tilde = split_conditional(np.zeros(3), d)
    np.testing.assert_allclose(c_tilde, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(d_tilde, d / 2, atol=1e-12)


def test_split_reconstruction_and_geometry():
    rng = np.random.default_rng(321)
    for _ in range(50):
        c = rng.normal(size=3)
        d = np.cross(c, rng.normal(size=3))
        d *= rng.uniform(0.1, 1.0) / np.linalg.norm(d)
        c_tilde, d_tilde = split_conditional(c, d)
        for s in (1.0, -1.0):
            lhs = rotor_compose(rotor_exp(c_tilde), rotor_exp(s * d_tilde))
            rhs = rotor_exp(c + s * d / 2)
            assert rotor_diff(lhs, rhs) < 1e-10
        assert direction_angle(c_tilde, c) < 1e-9
        rotated = so3_from_rotor(rotor_exp(-c_tilde / 2)) @ d
        assert direction_angle(d_tilde, rotated) < 1e-9


def test_split_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        split_conditional([0.3, 0.0, 0.0], [0.3, 0.1, 0.0])


def test_decompose_then_split_matches_extraction():
    # a balanced two-interval sequence is one joint product; re-splitting it
    # must agree with the conditional-pair extraction
    sys = SpinSystem.from_vectors([0.1, -0.3, 0.9], [0.2, 0.1, -0.15])
    duration = 1.4
    seq = DDSequence(np.array([duration / 2]), duration)
    u_plus, u_minus = exact_dd_evolution(sys, seq)
    alpha_vec, phi_dd = extract_alpha_phi(u_plus, u_minus)

    c0 = sys.omega * duration / 2
    d0 = sys.hyperfine * duration / 2
    c, d = decompose_joint(c0, d0)
    c_tilde, d_tilde = split_conditional(c, d)
    np.testing.assert_allclose(c_tilde, phi_dd, atol=1e-10)
    np.testing.assert_allclose(d_tilde, alpha_vec, atol=1e-10)
