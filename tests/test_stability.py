import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qndspin.hyperfine import SpinSystem
from qndspin.rotations import M, rotor_compose, rotor_exp, rotor_log, so3_from_rotor
import qndspin.trajectory as trajectory
from qndspin.stability import (
    RotationErrorModel,
    _fixed_axis_survivals,
    analytic_survival,
    dephasing_map,
    lifetime,
    survival_curve,
    survival_ensemble,
    tolerance,
    tolerance_time,
)

EX = np.array([1.0, 0.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])
E45 = np.array([math.cos(math.pi / 4), math.sin(math.pi / 4), 0.0])


# ---------------------------------------------------------------- dephasing


def test_dephasing_zero_alpha_is_identity():
    np.testing.assert_allclose(dephasing_map(np.zeros(3)), np.eye(3))


def test_dephasing_right_angle_kills_perpendicular():
    m = dephasing_map(0.5 * math.pi * EZ)
    np.testing.assert_allclose(m, np.diag([0.0, 0.0, 1.0]), atol=1e-12)


def test_dephasing_axis_preserved_and_cos_contraction():
    rng = np.random.default_rng(8)
    for _ in range(50):
        alpha_vec = rng.normal(size=3)
        mag = np.linalg.norm(alpha_vec)
        alpha_hat = alpha_vec / mag
        m = dephasing_map(alpha_vec)
        np.testing.assert_allclose(m @ alpha_hat, alpha_hat, atol=1e-12)
        eigvals = np.sort(np.linalg.eigvals(m).real)
        expected = np.sort([1.0, math.cos(mag), math.cos(mag)])
        np.testing.assert_allclose(eigvals, expected, atol=1e-10)


def test_echo_identity():
    m = dephasing_map(math.pi * EX)
    for dphi in (0.1, 0.3, 1.2):
        lhs = m @ so3_from_rotor(rotor_exp(dphi * EZ)) @ m
        rhs = so3_from_rotor(rotor_exp(-dphi * EZ))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------- survival


def test_survival_exact_qnd_is_flat():
    err = RotationErrorModel("systematic", delta_phi=np.zeros(3))
    curve = survival_curve(0.3 * EX, err, 200)
    np.testing.assert_allclose(curve.values, 1.0, atol=1e-12)
    assert curve.lifetime == math.inf


def test_survival_cos_zero_special_case():
    # alpha = pi/2: each cycle shrinks the polarization by cos(dphi)
    dphi = 0.3
    err = RotationErrorModel("systematic", delta_phi=dphi * EZ)
    curve = survival_curve(0.5 * math.pi * EX, err, 50)
    expected = analytic_survival("dephasing_exact", 0.5 * math.pi, dphi, np.arange(51))
    np.testing.assert_allclose(curve.values, expected, atol=1e-10)


def test_survival_echo_special_case():
    # alpha = pi: S alternates between cos(dphi) and 1
    dphi = 0.4
    err = RotationErrorModel("systematic", delta_phi=dphi * EZ)
    curve = survival_curve(math.pi * EX, err, 21)
    expected = analytic_survival("echo_exact", math.pi, dphi, np.arange(22))
    np.testing.assert_allclose(curve.values, expected, atol=1e-10)
    assert curve.lifetime == math.inf


def test_survival_systematic_matches_exponential():
    alpha_mag = math.pi - 0.1
    dphi = 0.1
    err = RotationErrorModel("systematic", delta_phi=dphi * EZ)
    horizon = 150_000
    curve = survival_curve(alpha_mag * E45, err, horizon)
    expected = analytic_survival("systematic", alpha_mag, dphi, np.arange(horizon + 1))
    assert np.max(np.abs(curve.values - expected)) < 0.05
    predicted = 2.0 * math.tan(alpha_mag / 2.0) ** 2 / dphi**2
    assert curve.lifetime == pytest.approx(predicted, rel=0.2)


@pytest.mark.parametrize(
    "kind, alpha_mag, dphi",
    [("systematic", 1.4e-160, 0.05), ("systematic", 1.0, M), ("random", 1.0, M)],
    ids=["tan underflowing", "systematic angle", "random std"],
)
def test_an_exponent_beyond_the_float_range_decays_to_zero(kind, alpha_mag, dphi):
    """``S(0) = 1`` and ``S(N) = 0`` after, without an overflow warning (an error here).

    Only a vanishing ``tan(alpha_mag / 2)`` takes the exponent beyond the float
    range; at the domain's largest ``delta_phi`` it stays finite."""
    expected = [1.0, 0.0, 0.0, 0.0]
    np.testing.assert_array_equal(analytic_survival(kind, alpha_mag, dphi, np.arange(4)), expected)


def test_survival_random_single_seed_deterministic():
    err = RotationErrorModel("random", std=0.1, axis=EZ, seed=5)
    a = survival_curve(0.4 * EX, err, 100)
    b = survival_curve(0.4 * EX, err, 100)
    np.testing.assert_array_equal(a.values, b.values)


def test_random_requires_seed():
    with pytest.raises(ValueError):
        RotationErrorModel("random", std=0.1, axis=EZ)


def test_survival_ensemble_matches_alpha_independent_law():
    std = 0.05
    mean, stderr = survival_ensemble(
        (math.pi - 0.1) * E45, std, EZ, n_max=1500, n_seeds=2000, master_seed=42
    )
    expected = analytic_survival("random", math.pi - 0.1, std, np.arange(1501))
    for checkpoint in (100, 400, 900, 1500):
        z = abs(mean[checkpoint] - expected[checkpoint]) / stderr[checkpoint]
        assert z < 3.0


def test_survival_ensemble_row_matches_survival_curve():
    seeds = np.random.SeedSequence(42).spawn(3)
    mean, _ = survival_ensemble(0.7 * EX, 0.1, EZ, n_max=50, n_seeds=3, master_seed=42)
    curves = [
        survival_curve(
            0.7 * EX, RotationErrorModel("random", std=0.1, axis=EZ, seed=s), 50
        ).values
        for s in seeds
    ]
    np.testing.assert_allclose(mean, np.mean(curves, axis=0), atol=1e-12)


def rodrigues_oracle(alpha_vec, axis, angles):
    """Per-step ``S(N)``: the dephasing map, then Rodrigues' rotation about
    ``axis`` by each angle, on one Bloch vector."""
    alpha_hat = alpha_vec / np.linalg.norm(alpha_vec)
    deph = dephasing_map(alpha_vec)
    state = alpha_hat.copy()
    values = [1.0]
    for angle in angles:
        state = deph @ state
        cos_a, sin_a = math.cos(angle), math.sin(angle)
        along = (state @ axis) * axis
        state = state * cos_a + np.cross(axis, state) * sin_a + along * (1.0 - cos_a)
        values.append(float(alpha_hat @ state))
    return np.array(values)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


@settings(max_examples=60, deadline=None)
@given(
    direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
    alpha_mag=st.one_of(st.floats(0.01, math.pi), st.floats(math.pi - 1e-6, math.pi)),
    axis=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, -0.05)),
    std=st.floats(0.0, 0.5),
    n_max=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
# at |alpha| = pi/2 across e_z the dephasing map has an all-zero row, which
# the kernel refused with "not enough values to unpack"
@example(
    direction=(0.0, 0.9935731235057439, 0.25), alpha_mag=math.pi / 2, axis=(0.0, 0.0, -1.0),
    std=0.1, n_max=70, seed=1,
)
def test_fixed_axis_kernel_matches_rodrigues_oracle(direction, alpha_mag, axis, std, n_max, seed):
    # tilted error axes below the equator, |alpha| up to pi
    alpha_vec = alpha_mag * unit(direction)
    axis = unit(axis)
    err = RotationErrorModel("random", std=std, axis=axis, seed=seed)
    curve = survival_curve(alpha_vec, err, n_max)
    angles = np.random.default_rng(seed).normal(0.0, std, size=n_max)
    expected = rodrigues_oracle(alpha_vec, axis, angles)
    np.testing.assert_allclose(curve.values, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_ensemble_rows_are_random_curves_bit_for_bit(rows):
    # non-planar alpha near pi, a tilted axis below the equator, and 150
    # cycles, which cross two 64-cycle slices of the kernel
    alpha_vec = (math.pi - 0.05) * unit([0.3, -0.5, 0.8])
    axis = [0.6, 0.2, -0.7]
    std, n_max = 0.2, 150
    seeds = np.random.SeedSequence(2024).spawn(rows)
    angles = np.array([np.random.default_rng(seq).normal(0.0, std, size=n_max) for seq in seeds])
    survivals = np.concatenate(list(_fixed_axis_survivals(alpha_vec, unit(axis), [angles], rows)))
    curves = [
        survival_curve(alpha_vec, RotationErrorModel("random", std=std, axis=axis, seed=seq), n_max)
        for seq in seeds
    ]
    for i, curve in enumerate(curves):
        np.testing.assert_array_equal(curve.values, survivals[:, i])
    if rows > 1:
        mean, _ = survival_ensemble(alpha_vec, std, axis, n_max, rows, 2024)
        np.testing.assert_array_equal(mean, np.stack([c.values for c in curves], axis=1).mean(axis=1))


@settings(max_examples=60, deadline=None)
@given(
    axis=st.one_of(
        st.sampled_from([EZ, -EZ]),
        st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1).map(unit),
    ),
    direction=st.one_of(
        st.sampled_from(["along the axis", "across the axis"]),
        st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
    ),
    alpha_mag=st.one_of(st.sampled_from([math.pi / 2, math.pi]), st.floats(0.01, math.pi)),
    std=st.sampled_from([0.0, 0.05, 1.0]),
    n_max=st.sampled_from([1, 63, 64, 65, 130]),
    rows=st.sampled_from([2, 5, 257]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_row_on_floats_is_its_row_on_arrays(axis, direction, alpha_mag, std, n_max, rows, seed):
    """One row of the fixed-axis kernel (Python floats) equals that row of a
    many-row call (arrays); measurement along or across the error axis gives
    dephasing maps with exact zeros in the frame, and ``std = 0`` zero angles."""
    if direction == "along the axis":
        direction = axis
    elif direction == "across the axis":
        direction = np.cross(axis, [1.0, 0.0, 0.0] if abs(axis[0]) < 0.9 else [0.0, 1.0, 0.0])
    alpha_vec = alpha_mag * unit(direction)
    angles = np.random.default_rng(seed).normal(0.0, std, size=(rows, n_max))
    survivals = np.concatenate(list(_fixed_axis_survivals(alpha_vec, axis, [angles], rows)))
    for i in (0, rows - 1):
        row = np.concatenate(list(_fixed_axis_survivals(alpha_vec, axis, [angles[i : i + 1]], 1)))
        assert row.tobytes() == survivals[:, i : i + 1].tobytes()  # signed zeros too


@pytest.mark.parametrize("n_max", [1, 63, 64, 65])
def test_ensemble_reduced_per_slice_equals_the_whole_matrix_reduction(n_max):
    # one cycle, and the lengths around the kernel's 64-cycle slice
    alpha_vec = 2.2 * unit([0.3, -0.5, 0.8])
    axis, std, n_seeds, master = [0.6, 0.2, -0.7], 0.2, 9, 11
    models = [
        RotationErrorModel("random", std=std, axis=axis, seed=seq)
        for seq in np.random.SeedSequence(master).spawn(n_seeds)
    ]
    curves = np.stack([survival_curve(alpha_vec, m, n_max).values for m in models], axis=1)
    mean, stderr = survival_ensemble(alpha_vec, std, axis, n_max, n_seeds, master)
    assert mean.shape == stderr.shape == (n_max + 1,)
    np.testing.assert_array_equal(mean, curves.mean(axis=1))
    np.testing.assert_array_equal(stderr, curves.std(axis=1, ddof=1) / math.sqrt(n_seeds))


def test_ensemble_holds_one_tile_of_angles():
    # one (n_seeds, _WIDTH) tile of angles takes 4.1 MB here, and the 64-cycle
    # slices and the n_seeds generators about 45 % more; the whole angle matrix
    # (8 MB, 9.4 MB for the call) or the (n_max + 1, n_seeds) survivals beside
    # the tile would break the bound
    n_max, n_seeds = 2000, 500
    survival_ensemble(0.7 * EZ, 0.05, EX, 2, 2, 0)  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        survival_ensemble((math.pi - 0.1) * E45, 0.05, EZ, n_max, n_seeds, 12345)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 8 * n_seeds * trajectory._WIDTH < 8 * n_seeds * n_max


@pytest.mark.parametrize(
    "change, message",
    [
        ({"n_max": 0}, "n_max"),
        ({"n_seeds": 1}, "n_seeds"),
        ({"std": -0.1}, "std"),
        ({"std": math.nan}, "std"),
        ({"std": math.inf}, "std"),
        ({"axis": np.zeros(3)}, "axis"),
        ({"axis": np.array([math.nan, 0.0, 1.0])}, "axis"),
        ({"axis": np.array([math.inf, 0.0, 1.0])}, "axis"),
    ],
    ids=["n_max 0", "n_seeds 1", "std negative", "std nan", "std inf", "axis zero", "axis nan", "axis inf"],
)
def test_survival_ensemble_rejects_bad_arguments(change, message):
    args = {"alpha_vec": 0.7 * EX, "std": 0.1, "axis": EZ, "n_max": 10, "n_seeds": 4, "master_seed": 1}
    with pytest.raises(ValueError, match=message):
        survival_ensemble(**{**args, **change})


@pytest.mark.parametrize(
    "change",
    [{"std": math.nan}, {"std": -0.1}, {"axis": np.zeros(3)}, {"axis": np.array([0.0, math.nan, 1.0])}],
    ids=["std nan", "std negative", "axis zero", "axis nan"],
)
def test_random_error_model_rejects_bad_arguments(change):
    with pytest.raises(ValueError):
        RotationErrorModel("random", **{"std": 0.1, "axis": EZ, "seed": 1, **change})


@pytest.mark.parametrize(
    "kind, values, name",
    [
        ("systematic", {"delta_phi": [math.nan, 0.0, 0.0]}, "delta_phi"),
        ("systematic", {"delta_phi": [0.0, math.inf, 0.0]}, "delta_phi"),
    ],
    ids=["systematic nan", "systematic inf"],
)
def test_error_models_refuse_non_finite_angles(kind, values, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        RotationErrorModel(kind, **values)


@pytest.mark.parametrize(
    "kind, values, message",
    [
        ("explicit", {"delta_phi": 0.1 * EX}, "unknown error kind 'explicit'"),
        ("bogus", {}, "unknown error kind 'bogus'"),
        ("systematic", {}, "systematic errors need delta_phi"),
    ],
    ids=["explicit", "bogus", "systematic without delta_phi"],
)
def test_error_model_takes_only_the_two_kinds_it_runs(kind, values, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RotationErrorModel(kind, **values)


_FOREIGN = "systematic errors take no std or seed"


@pytest.mark.parametrize(
    "kind, values, message",
    [
        ("systematic", {"delta_phi": [0.1, 0.2]}, "delta_phi must be one 3-vector, got shape (2,)"),
        ("systematic", {"delta_phi": 0.1}, "delta_phi must be one 3-vector, got shape ()"),
        (
            "systematic",
            {"delta_phi": np.zeros((2, 3))},
            "delta_phi must be one 3-vector, got shape (2, 3)",
        ),
        ("systematic", {"delta_phi": 0.1 * EX, "std": 0.1}, _FOREIGN),
        ("systematic", {"delta_phi": 0.1 * EX, "seed": 1}, _FOREIGN),
        (
            "random",
            {"delta_phi": 0.1 * EX, "std": 0.1, "seed": 1},
            "random errors take no delta_phi",
        ),
    ],
    ids=["two entries", "scalar", "rows", "std", "seed", "random with delta_phi"],
)
def test_error_model_refuses_a_malformed_or_foreign_field(kind, values, message):
    """A wrong shape failed deep in survival_curve; the other kind's field was ignored."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RotationErrorModel(kind, **values)


@pytest.mark.parametrize(
    "alpha_vec", [[math.nan, 0.0, 0.5], [0.0, 0.0, math.inf]], ids=["nan", "inf"]
)
def test_survival_functions_refuse_a_non_finite_alpha_vec(alpha_vec):
    """A NaN measurement vector gave lifetime inf (curve) or a nan mean (ensemble)."""
    with pytest.raises(ValueError, match="alpha_vec must be finite"):
        survival_curve(alpha_vec, RotationErrorModel("systematic", delta_phi=0.01 * EX), 50)
    with pytest.raises(ValueError, match="alpha_vec must be finite"):
        survival_curve(alpha_vec, RotationErrorModel("random", std=0.01, seed=1), 50)
    with pytest.raises(ValueError, match="alpha_vec must be finite"):
        survival_ensemble(alpha_vec, 0.01, EX, 50, 4, 1)


def test_explicit_full_rotation_mode():
    # under the exact QND condition the full-rotation map keeps S(N) = 1
    alpha_vec = 0.4 * EX
    qnd_rotation = 1.3 * EX  # parallel to the measurement axis
    err = RotationErrorModel("systematic", delta_phi=qnd_rotation)
    curve = survival_curve(alpha_vec, err, 100)
    np.testing.assert_allclose(curve.values, 1.0, atol=1e-12)


def per_step_survival(alpha_vec, rotations) -> np.ndarray:
    """``S(0..n)`` one 3x3 step at a time: dephasing, then error ``rotations[i]`` in cycle ``i``."""
    alpha_hat = alpha_vec / np.linalg.norm(alpha_vec)
    deph = dephasing_map(alpha_vec)
    values, state = [1.0], alpha_hat.copy()
    for rotation in rotations:
        state = so3_from_rotor(rotor_exp(rotation)) @ (deph @ state)
        values.append(float(alpha_hat @ state))
    return np.array(values)


def test_explicit_full_rotation_conjugation_equivalence():
    # R(phi_full) = R(dphi) R(ideal) with ideal || alpha_hat equals the plain
    # dphi iteration once each dphi_k is conjugated by R(ideal)^{-k}
    rng = np.random.default_rng(17)
    alpha_vec = 0.8 * EX
    ideal = 0.9 * EX
    n_max = 40
    dphis = rng.normal(scale=0.05, size=(n_max, 3))
    r_ideal = so3_from_rotor(rotor_exp(ideal))
    fulls = [rotor_log(rotor_compose(rotor_exp(dphi), rotor_exp(ideal))) for dphi in dphis]
    inv = np.linalg.inv(r_ideal)
    conjugated = []
    acc = np.eye(3)
    for k in range(n_max):
        acc = inv @ acc  # R(ideal)^{-(k+1)}
        conjugated.append(acc @ dphis[k])
    a = per_step_survival(alpha_vec, fulls)
    b = per_step_survival(alpha_vec, conjugated)
    np.testing.assert_allclose(a, b, atol=1e-10)


# ---------------------------------------------------------------- lifetime


def test_lifetime_sentinel():
    assert lifetime(np.ones(100)) == math.inf


def test_lifetime_first_crossing():
    values = np.array([1.0, 0.9, 0.2, 0.5, 0.1])
    assert lifetime(values) == 2


def test_lifetime_systematic_formula():
    for alpha_mag, dphi in ((1.0, 0.01), (2.0, 0.05)):
        err = RotationErrorModel("systematic", delta_phi=dphi * EZ)
        predicted = 2.0 * math.tan(alpha_mag / 2.0) ** 2 / dphi**2
        curve = survival_curve(alpha_mag * EX, err, int(3 * predicted))
        assert curve.lifetime == pytest.approx(predicted, rel=0.2)


def test_worst_case_inequality():
    # aligned perpendicular systematic errors destroy the state at least as
    # fast as random errors of the same size; holds below alpha = pi/2, where
    # the echo effect has not yet started protecting against aligned errors
    rng = np.random.default_rng(23)
    for _ in range(5):
        alpha_mag = rng.uniform(0.3, 1.2)
        dphi = rng.uniform(0.01, 0.05)
        horizon = int(min(6.0 / dphi**2, 3e5))
        sys_err = RotationErrorModel("systematic", delta_phi=dphi * EZ)
        systematic_life = survival_curve(alpha_mag * EX, sys_err, horizon).lifetime
        rand_err = RotationErrorModel("random", std=dphi, axis=EZ, seed=rng.integers(1 << 30))
        random_life = survival_curve(alpha_mag * EX, rand_err, horizon).lifetime
        assert systematic_life <= random_life


# ---------------------------------------------------------------- tolerances


def test_tolerance_formulas():
    assert tolerance(0.1, 0.1, "systematic") == pytest.approx(
        0.1 * math.tan(0.05), abs=1e-12
    )
    assert tolerance(0.1, 0.1, "systematic") == pytest.approx(5.0e-3, rel=0.01)
    assert tolerance(0.37, 1.0, "random") == 0.37


@pytest.mark.parametrize("strength", [0.0, -0.1, math.nan])
@pytest.mark.parametrize("kind", ["systematic", "random"])
def test_tolerance_refuses_a_strength_that_is_not_positive(strength, kind):
    with pytest.raises(ValueError, match="strength_d must be positive"):
        tolerance(strength, 1.0, kind)


def test_unknown_kinds_are_refused():
    with pytest.raises(ValueError, match="unknown analytic survival kind 'bogus'"):
        analytic_survival("bogus", 0.5, 0.1, np.arange(3))
    with pytest.raises(ValueError, match="unknown tolerance kind 'bogus'"):
        tolerance(0.1, 0.5, "bogus")


def test_tolerance_echo_limit():
    # alpha -> pi with weak readout: D ~ p_bar sin(alpha), so the systematic
    # tolerance approaches 2 p_bar
    p_bar = 0.03
    for alpha_mag in (math.pi - 0.05, math.pi - 0.01):
        strength = p_bar * abs(math.sin(alpha_mag))
        assert tolerance(strength, alpha_mag, "systematic") == pytest.approx(
            2.0 * p_bar, rel=0.01
        )


def test_tolerance_growth_orders():
    # quadratic (systematic) versus linear (random) growth at small alpha
    small, large = 0.05, 0.1
    sys_small = tolerance(small, small, "systematic")
    sys_large = tolerance(large, large, "systematic")
    assert sys_large / sys_small == pytest.approx(4.0, rel=0.01)
    rand_small = tolerance(small, small, "random")
    rand_large = tolerance(large, large, "random")
    assert rand_large / rand_small == pytest.approx(2.0, rel=1e-12)


def test_tolerance_time_conversion():
    sys = SpinSystem.from_vectors([0.0, 0.0, 2.0e6], [0.0, 0.0, 0.0])
    assert tolerance_time(0.01, sys) == pytest.approx(0.01 / 2.0e6)
