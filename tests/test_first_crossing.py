"""The chunked first-crossing kernel against a one-step reference loop and
against one call per point."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndspin.rotations import rotor_exp, so3_from_rotor
from qndspin.stability import (
    DELTA,
    MAX_CHUNK,
    RotationErrorModel,
    _survival_values,
    dephasing_map,
    first_crossing,
    lifetime,
    survival_curve,
)

EZ = np.array([0.0, 0.0, 1.0])
THRESHOLD = 1.0 / math.e


def naive_first_crossing(maps, axes, horizons):
    """One map application per step, one point at a time."""
    out = []
    for g, a, h in zip(maps, axes, horizons):
        state, found = a.copy(), math.inf
        for n in range(1, int(h) + 1):
            state = g @ state
            if a @ state <= THRESHOLD:
                found = n
                break
        out.append(found)
    return np.array(out)


def contractive_map(rotation, alpha_vec):
    return so3_from_rotor(rotor_exp(np.asarray(rotation))) @ dephasing_map(np.asarray(alpha_vec))


def crossing_at(n):
    """A rotation about e_x whose survival ``cos(N theta)`` of e_z first
    reaches ``1/e`` at step ``n``, half a step away from the threshold."""
    theta = math.acos(THRESHOLD) / (n - 0.5)
    return contractive_map([theta, 0.0, 0.0], np.zeros(3))


def razor_at(n):
    """As ``crossing_at``, but ``S(n)`` equals ``1/e`` up to rounding, so the
    order of the floating-point operations decides whether step ``n`` crosses."""
    theta = math.acos(THRESHOLD) / n
    return contractive_map([theta, 0.0, 0.0], np.zeros(3))


def per_point_calls(maps, axes, horizons):
    points = zip(maps, axes, horizons)
    return np.array([first_crossing(g[None], a[None], h)[0] for g, a, h in points])


unit = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: sum(x * x for x in v) > 1e-2)
point = st.tuples(
    unit,  # rotation axis
    st.floats(-3.5, 0.0),  # log10 rotation angle
    unit,  # dephasing axis
    st.floats(0.0, 3.0),  # dephasing angle
    unit,  # measured axis
    st.integers(0, 2500),  # horizon
)


def random_points(points):
    """Maps, measured axes and horizons drawn by the ``point`` strategy."""
    maps, axes, horizons = [], [], []
    for rot_axis, log_angle, deph_axis, deph_angle, axis, horizon in points:
        rot_axis, deph_axis, axis = (np.array(v) / np.linalg.norm(v) for v in (rot_axis, deph_axis, axis))
        maps.append(contractive_map(10.0**log_angle * rot_axis, deph_angle * deph_axis))
        axes.append(axis)
        horizons.append(horizon)
    return maps, axes, horizons


@settings(max_examples=60, deadline=None)
@given(st.lists(point, min_size=1, max_size=6))
def test_kernel_equals_naive_loop_on_random_contractive_maps(points):
    maps, axes, horizons = (np.array(c) for c in random_points(points))
    expected = naive_first_crossing(maps, axes, horizons)
    np.testing.assert_array_equal(first_crossing(maps, axes, horizons), expected)
    if len(set(horizons.tolist())) == 1:
        np.testing.assert_array_equal(first_crossing(maps, axes, int(horizons[0])), expected)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(point, max_size=6),
    # late crossings, some within rounding of 1/e, with their own horizons
    st.lists(
        st.tuples(st.integers(2 * MAX_CHUNK + 1, 3000), st.booleans(), st.integers(0, 4000)),
        min_size=1,
        max_size=12,
    ),
)
def test_batch_equals_per_point_calls(points, late):
    maps, axes, horizons = random_points(points)
    for n, razor, horizon in late:
        maps.append(razor_at(n) if razor else crossing_at(n))
        axes.append(EZ)
        horizons.append(horizon)
    maps, axes, horizons = np.array(maps), np.array(axes), np.array(horizons)
    expected = per_point_calls(maps, axes, horizons)
    np.testing.assert_array_equal(first_crossing(maps, axes, horizons), expected)


def test_razor_crossings_do_not_depend_on_the_batch():
    # 356 points whose S(n) sits on 1/e: with a chunk length that depended on
    # the batch size, several of them moved by one step
    targets = np.arange(2 * MAX_CHUNK + 1, 3000, 7)
    maps = np.array([razor_at(n) for n in targets])
    axes = np.tile(EZ, (targets.size, 1))
    horizons = np.full(targets.size, 4000)
    batch = first_crossing(maps, axes, horizons)
    np.testing.assert_array_equal(batch, per_point_calls(maps, axes, horizons))
    assert np.all(np.abs(batch - targets) <= 1)


def test_crossings_on_the_phase_and_chunk_boundaries():
    # the first and last step of chunks 1 | 2-3 | 4-7 | ... | 256-511 while
    # the chunk length doubles, then of the fixed chunks of length k
    k = MAX_CHUNK
    targets = [1, 2, 3, 4, 7, 8, k - 1, k, 2 * k - 1, 2 * k, 3 * k - 1, 3 * k, 5 * k + 7]
    maps = np.array([crossing_at(n) for n in targets])
    axes = np.tile(EZ, (len(targets), 1))
    horizon = 10 * k
    np.testing.assert_array_equal(first_crossing(maps, axes, horizon), targets)
    np.testing.assert_array_equal(naive_first_crossing(maps, axes, [horizon] * len(targets)), targets)
    # a horizon ending on the crossing keeps it, one step shorter loses it
    np.testing.assert_array_equal(first_crossing(maps, axes, targets), targets)
    short = first_crossing(maps, axes, np.array(targets) - 1)
    assert np.all(np.isinf(short))


def test_horizons_zero_one_and_mixed():
    maps = np.array([crossing_at(1), crossing_at(1), crossing_at(300), crossing_at(300)])
    axes = np.tile(EZ, (4, 1))
    assert np.all(np.isinf(first_crossing(maps, axes, 0)))
    np.testing.assert_array_equal(first_crossing(maps, axes, 1), [1, 1, math.inf, math.inf])
    np.testing.assert_array_equal(
        first_crossing(maps, axes, [0, 1, 299, 300]), [math.inf, 1, math.inf, 300]
    )


def test_points_that_never_cross():
    # the measured axis is fixed by a rotation about itself and by the
    # dephasing map along it, so S(N) = 1; full dephasing of a slow rotation
    # gives S(N) = cos(0.01)^N, which reaches 1/e only after ~2e4 steps
    axis = np.array([0.6, 0.0, 0.8])
    fixed = contractive_map(0.3 * axis, 0.7 * axis)
    slow = contractive_map([0.01, 0.0, 0.0], 0.5 * math.pi * EZ)
    maps = np.array([fixed, crossing_at(500), slow])
    axes = np.array([axis, EZ, EZ])
    horizons = [5000, 5000, 5000]
    result = first_crossing(maps, axes, horizons)
    np.testing.assert_array_equal(result, naive_first_crossing(maps, axes, horizons))
    assert math.isinf(result[0]) and result[1] == 500 and math.isinf(result[2])


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(float).eps,
    reason="the platform's long double is float64",
)
def test_extended_precision_squaring_keeps_a_late_razor_crossing():
    # S(N) = sin^2(t) 0.9999985^N + cos^2(t) 0.9999987^N.  A 50-digit oracle
    # gives S(717948) - 1/e = +5.1e-7 and S(717949) - 1/e = -3.9e-13, so the
    # crossing is 717949.  Squaring the chunk powers in float64 instead lets
    # their rounding drift over ~2800 chunks and reports 717950.
    # S(717949) lies inside DELTA of 1/e (and the two leading eigenvalues
    # nearly coincide), so the spectral certificate leaves it to the walk.
    theta = 0.7675524999680687
    maps = np.diag([0.9999985, 0.5, 0.9999987])[None]
    axes = np.array([[math.sin(theta), 0.0, math.cos(theta)]])
    counts = Counter()
    assert first_crossing(maps, axes, 2_000_000, counts)[0] == 717_949
    assert (counts["certified_points"], counts["fallback_points"]) == (0, 1)


def test_many_points_agree_with_the_naive_loop():
    rng = np.random.default_rng(3)
    n = 400
    maps = np.array(
        [
            contractive_map(rng.normal(size=3) * 10.0 ** rng.uniform(-3, -1), rng.normal(size=3))
            for _ in range(n)
        ]
    )
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    horizons = rng.integers(0, 3000, size=n)
    np.testing.assert_array_equal(
        first_crossing(maps, axes, horizons), naive_first_crossing(maps, axes, horizons)
    )


@settings(max_examples=15, deadline=None)
@given(
    alpha_mag=st.floats(0.05, math.pi - 0.05),
    dphi=st.floats(1e-3, 0.2),
    axis=unit,
)
def test_systematic_curve_matches_naive_loop(alpha_mag, dphi, axis):
    n_max = 12_000
    alpha_vec = alpha_mag * np.array([1.0, 0.0, 0.0])
    delta_phi = dphi * np.array(axis) / np.linalg.norm(axis)
    curve = survival_curve(alpha_vec, RotationErrorModel("systematic", delta_phi=delta_phi), n_max)
    step = so3_from_rotor(rotor_exp(delta_phi)) @ dephasing_map(alpha_vec)
    alpha_hat = np.array([1.0, 0.0, 0.0])
    expected = np.empty(n_max + 1)
    expected[0] = 1.0
    state = alpha_hat.copy()
    for i in range(1, n_max + 1):
        state = step @ state
        expected[i] = alpha_hat @ state
    assert curve.values.shape == (n_max + 1,)
    np.testing.assert_allclose(curve.values, expected, rtol=0.0, atol=1e-12)
    assert curve.lifetime == lifetime(curve.values)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"maps": math.nan}, "maps must be finite"),
        ({"maps": math.inf}, "maps must be finite"),
        ({"axes": [0.0, 0.0, 0.0]}, "axes must be nonzero"),
        ({"axes": [math.nan, 0.0, 1.0]}, "axes must be finite"),
    ],
    ids=["nan map", "inf map", "zero axis", "nan axis"],
)
def test_non_finite_maps_and_zero_axes_are_refused(bad, message):
    """They gave lifetime inf (the QND ridge) or 1; the second point is well formed."""
    maps = np.stack([dephasing_map(0.5 * EZ)] * 2)
    axes = np.tile(EZ, (2, 1))
    if "maps" in bad:
        maps[0, 1, 1] = bad["maps"]
    else:
        axes[0] = bad["axes"]
    with pytest.raises(ValueError, match=message):
        first_crossing(maps, axes, 100)


def step_loop(maps, axes, horizons):
    """One float64 map application per step, every point at once."""
    states, found = axes.copy(), np.full(len(axes), math.inf)
    for n in range(1, int(max(horizons, default=0)) + 1):
        states = np.einsum("pij,pj->pi", maps, states)
        hit = np.einsum("pi,pi->p", axes, states) <= THRESHOLD
        found[hit & np.isinf(found) & (n <= horizons)] = n
    return found


def long_lived(kind, decay, ratio, spread, basis, mix):
    """A map whose ``S(N)`` from the returned axis decays slowly, and that axis.

    ``G = B J B^-1`` with ``B = I + basis``; ``J`` holds the dominant part:
    a real eigenvalue ``1 - decay`` (``real``), the same with a second one
    ``spread`` below it and a coupling that makes the pair nearly defective
    (``defective``), a slowly turning pair ``(1 - decay) e^(+-i spread)``
    (``complex``), or ``-(1 - decay)`` beside a positive ``(1 - decay)(1 -
    spread)`` that carries most of the axis (``negative``).  The axis is
    ``B (1, mix, ...)`` in the eigenbasis, normalized.
    """
    top = 1.0 - decay
    b = np.eye(3) + np.asarray(basis)
    if kind == "real":
        j = np.diag([top, ratio * top, -0.5 * ratio * top])
        weights = [1.0, mix, mix]
    elif kind == "defective":
        j = np.array([[top, 0.05, 0.0], [0.0, top - spread, 0.0], [0.0, 0.0, ratio * top]])
        weights = [1.0, mix, mix]
    elif kind == "complex":
        c, s = top * math.cos(spread), top * math.sin(spread)
        j = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, ratio * top]])
        weights = [1.0, 0.0, mix]
    else:
        j = np.diag([-top, top * (1.0 - spread), ratio * top])
        weights = [0.02 + mix / 10, 1.0, mix]
    g = b @ np.linalg.solve(b.T, j.T).T  # B J B^-1
    axis = b @ np.array(weights)
    return g, axis / np.linalg.norm(axis)


LONG_LIVED = st.tuples(
    st.sampled_from(["real", "defective", "complex", "negative"]),
    st.floats(3e-4, 2e-2),  # decay of the dominant modulus per step
    st.floats(-0.9, 0.9),  # the third eigenvalue relative to the first
    st.sampled_from([1e-12, 1e-9, 1e-6, 1e-4, 3e-3]),  # gap, or turn per step
    # basis - I; rows summing to at most 0.9 in size keep I + basis invertible
    st.lists(st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3), min_size=3, max_size=3),
    st.floats(0.0, 0.5),  # weight of the axis off the dominant eigenvector
)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(LONG_LIVED, st.integers(128, 4000)), min_size=1, max_size=6))
def test_certified_lifetimes_equal_the_step_loop_on_long_lived_maps(points):
    """The certificate decides only what the walk would; it never decides a complex
    or negative dominant eigenvalue."""
    maps, axes = (np.array(c) for c in zip(*(long_lived(*spec) for spec, _ in points)))
    horizons = np.array([horizon for _, horizon in points])
    counts = Counter()
    lifetimes = first_crossing(maps, axes, horizons, counts)
    np.testing.assert_array_equal(lifetimes, step_loop(maps, axes, horizons))
    assert counts["certified_points"] + counts["fallback_points"] <= len(points)
    oscillating = np.array([spec[0] in ("complex", "negative") for spec, _ in points])
    if oscillating.any():
        counts = Counter()
        first_crossing(maps[oscillating], axes[oscillating], horizons[oscillating], counts)
        assert counts["certified_points"] == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(point, max_size=4),
    st.lists(st.tuples(LONG_LIVED, st.integers(128, 4000)), max_size=3),
)
def test_a_counter_changes_no_lifetime(points, long):
    """Each call counts itself once, and at most every point once as certified or fallen back."""
    maps, axes, horizons = random_points(points)
    for spec, horizon in long:
        g, a = long_lived(*spec)
        maps, axes, horizons = maps + [g], axes + [a], horizons + [horizon]
    if not maps:
        return
    maps, axes, horizons = np.array(maps), np.array(axes), np.array(horizons)
    counts = Counter()
    for calls in (1, 2):
        lifetimes = first_crossing(maps, axes, horizons, counts)
        np.testing.assert_array_equal(lifetimes, first_crossing(maps, axes, horizons))
        assert counts["kernel_calls"] == calls
        assert counts["certified_points"] + counts["fallback_points"] <= calls * len(maps)


def test_the_certificate_decides_slowly_decaying_maps():
    rng = np.random.default_rng(7)
    specs = [
        ("real", 10 ** rng.uniform(-3.4, -2), rng.uniform(-0.9, 0.9), 0.0,
         rng.uniform(-0.3, 0.3, (3, 3)), rng.uniform(0, 0.5))
        for _ in range(60)
    ]
    maps, axes = (np.array(c) for c in zip(*(long_lived(*spec) for spec in specs)))
    horizons = rng.integers(128, 4000, size=len(specs))
    counts = Counter()
    lifetimes = first_crossing(maps, axes, horizons, counts)
    np.testing.assert_array_equal(lifetimes, step_loop(maps, axes, horizons))
    certified, fallback = counts["certified_points"], counts["fallback_points"]
    assert certified >= 50 and certified + fallback <= len(specs)


def test_razors_and_a_slow_rest_are_left_to_the_walk():
    """On an orthonormal eigenbasis ``S(N) = a1^2 l^N + a2^2 m^N``.  Razors put
    ``S(N*)`` on ``1/e`` (inside ``DELTA``); the slow rest ``m = 0.8`` lifts
    ``S(70)`` back above ``1/e`` although ``a1^2 l^70`` lies ``1e-8`` below it."""
    basis = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0]

    def point(n_star, m, offset):
        a1, a2 = math.sqrt(0.8), math.sqrt(0.2)
        lam = ((THRESHOLD + offset) / a1**2) ** (1.0 / n_star)
        return basis @ np.diag([lam, m, 0.1]) @ basis.T, basis @ np.array([a1, a2, 0.0])

    razors = [point(n, 0.3, 0.0) for n in (64, 100, 1000, 30_000, 400_000)]
    maps, axes = (np.array(c) for c in zip(*razors))
    counts = Counter()
    lifetimes = first_crossing(maps, axes, 1_000_000, counts)
    assert (counts["certified_points"], counts["fallback_points"]) == (0, len(razors))
    assert np.all(np.abs(lifetimes - [64, 100, 1000, 30_000, 400_000]) <= 1)

    g, a = point(70, 0.8, -1e-8)
    counts = Counter()
    lifetimes = first_crossing(g[None], a[None], 1000, counts)
    assert (counts["certified_points"], counts["fallback_points"]) == (0, 1)
    assert lifetimes[0] == step_loop(g[None], a[None], np.array([1000]))[0] > 70


def long_double_survival(step_map, axis, steps):
    """``a . G^N a`` for each ``N`` in ``steps``, by squaring in extended precision."""
    g, a = step_map.astype(np.longdouble), axis.astype(np.longdouble)
    out = []
    for n in steps:
        power, result = g.copy(), np.eye(3, dtype=np.longdouble)
        while n:
            if n & 1:
                result = result @ power
            power, n = power @ power, n >> 1
        out.append(a @ (result @ a))
    return np.array(out)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(float).eps,
    reason="the platform's long double is float64",
)
@pytest.mark.parametrize(
    "step_map, axis",
    [
        (np.diag([0.9999985, 0.5, 0.9999987]), np.array([0.69, 0.0, 0.72])),
        (contractive_map([1e-3, 0.0, 0.0], [0.0, 0.0, 1.2]), EZ),
        long_lived("real", 1e-6, 0.6, 0.0, np.full((3, 3), 0.2) - 0.4 * np.eye(3), 0.3),
    ],
    ids=["diagonal", "contractive", "non-normal"],
)
def test_the_walk_stays_within_half_delta_at_a_million_steps(step_map, axis):
    """The certificate's margin holds the walk's own rounding: chunk rows and a
    float64 chunk power, as ``first_crossing`` steps them."""
    n_max = 1_000_000
    axis = axis / np.linalg.norm(axis)
    walk = _survival_values(step_map, axis, n_max)
    steps = [1, 63, 64, 1000, 65_537, 500_000, n_max]
    error = np.abs(walk[steps] - long_double_survival(step_map, axis, steps)).max()
    assert error < DELTA / 2
