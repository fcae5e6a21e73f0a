import functools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalar_trajectory import step
from qndspin.cascade import exact_distribution
from qndspin.measurement import MeasurementSetting, ReadoutModel, outcome_prob
from qndspin.rotations import Rotor, rotor_exp, so3_from_rotor
import qndspin.trajectory as trajectory
from qndspin.control import qnd_residual
from qndspin.stability import (
    RotationErrorModel,
    _fixed_axis_survivals,
    dephasing_map,
    survival_ensemble,
)
import qndspin.stability as stability
from qndspin.trajectory import (
    NuclearState,
    _child_seed_words,
    kraus_eigenvalues,
    run,
    run_ensemble,
)

EZ = np.array([0.0, 0.0, 1.0])


def setting(alpha=0.1, phi=4 * math.pi / 9):
    return MeasurementSetting(alpha * EZ, phi)


def empirical_law(u_bars, n):
    counts = np.zeros(n + 1)
    np.add.at(counts, np.rint((u_bars * n + n) / 2).astype(int), 1.0)
    return counts / u_bars.size


def total_variation(p, q):
    return 0.5 * float(np.sum(np.abs(p - q)))


def test_state_validation():
    with pytest.raises(ValueError):
        NuclearState(np.array([1.0, 1.0, 1.0]))


@pytest.mark.parametrize("bloch", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0]])
def test_state_refuses_non_finite_polarizations(bloch):
    with pytest.raises(ValueError, match="^bloch must be finite"):
        NuclearState(np.array(bloch))


def _nan_state():
    state = NuclearState.mixed()
    state.bloch = np.array([math.nan, 0.0, 0.0])  # past the constructor's check
    return state


@pytest.mark.parametrize(
    "rotation, initial, name",
    [
        (lambda: Rotor(1.0, np.array([math.nan, 0.0, 0.0])), NuclearState.mixed, "cycle_rotation"),
        (lambda: Rotor(1.0, np.zeros(3)), _nan_state, "initial"),
    ],
    ids=["nan rotation", "nan initial state"],
)
def test_run_and_run_ensemble_refuse_non_finite_inputs_alike(rotation, initial, name):
    """run_ensemble returned finite u-bars for a NaN rotation, where run raised."""
    message = f"^{name} must be finite and at most 1e\\+75 in magnitude$"
    with pytest.raises(ValueError, match=message):
        run(setting(), rotation(), initial(), 10, 1)
    with pytest.raises(ValueError, match=message):
        run_ensemble(setting(), rotation(), initial(), 10, 4, 1)


def test_eigenstate_invariant_under_qnd_cycle():
    s = setting()
    cycle = rotor_exp(0.7 * EZ)  # parallel to the measurement axis
    for branch in (1, -1):
        state = NuclearState.eigenstate(EZ, branch)
        rng = np.random.default_rng(11)
        for _ in range(200):
            _, state = step(state, s, cycle, rng)
        np.testing.assert_allclose(state.bloch, branch * EZ, atol=1e-12)


def test_projective_setting_deterministic_outcome():
    s = setting(math.pi / 2, math.pi / 2)
    state = NuclearState.eigenstate(EZ, 1)
    rng = np.random.default_rng(3)
    for _ in range(50):
        u, state = step(state, s, Rotor(1.0, np.zeros(3)), rng)
        assert u == 1


def test_mixed_state_outcome_frequencies():
    s = setting(0.4, 1.0)
    rng = np.random.default_rng(7)
    trials = 40000
    hits = sum(
        step(NuclearState.mixed(), s, Rotor(1.0, np.zeros(3)), rng)[0] == 1
        for _ in range(trials)
    )
    expected = 0.5 * (outcome_prob(s, 1, 1) + outcome_prob(s, -1, 1))
    assert hits / trials == pytest.approx(expected, abs=3.5 * math.sqrt(0.25 / trials))


def test_purity_preserved():
    s = setting(0.3, 1.2)
    cycle = rotor_exp(np.array([0.3, 0.2, 0.5]))
    state = NuclearState(np.array([0.6, 0.0, 0.8]))
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        _, state = step(state, s, cycle, rng)
        assert abs(float(np.linalg.norm(state.bloch)) - 1.0) < 1e-9


def test_unconditional_average_is_dephasing_map():
    s = setting()
    cycle = rotor_exp(np.array([0.3, 0.2, 0.5]))
    initial = np.array([0.2, -0.3, 0.5])
    rng = np.random.default_rng(9)
    trials = 100_000
    acc = np.zeros(3)
    for _ in range(trials):
        _, out = step(NuclearState(initial), s, cycle, rng)
        acc += out.bloch
    acc /= trials
    expected = so3_from_rotor(cycle) @ (dephasing_map(s.alpha_vec) @ initial)
    np.testing.assert_allclose(acc, expected, atol=4.0 / math.sqrt(trials))


def test_seed_determinism():
    s = setting()
    a = run(s, Rotor(1.0, np.zeros(3)), NuclearState.eigenstate(EZ), 100, 321)
    b = run(s, Rotor(1.0, np.zeros(3)), NuclearState.eigenstate(EZ), 100, 321)
    np.testing.assert_array_equal(a.outcomes, b.outcomes)
    np.testing.assert_array_equal(a.final_state.bloch, b.final_state.bloch)
    assert a.u_bar == b.u_bar == float(a.outcomes.mean())


def test_single_shot_frequencies_match_law():
    s = setting(0.3, 1.0)
    p_plus = outcome_prob(s, 1, 1)
    trials = 100_000
    u_bars, _ = run_ensemble(
        s, Rotor(1.0, np.zeros(3)), NuclearState.eigenstate(EZ, 1), 1, trials, 13
    )
    freq = float(np.mean(u_bars == 1.0))
    sigma = math.sqrt(p_plus * (1 - p_plus) / trials)
    assert abs(freq - p_plus) < 3.0 * sigma


def test_ensemble_rows_match_single_runs(monkeypatch):
    monkeypatch.setattr(trajectory, "_BLOCK", 4)
    monkeypatch.setattr(trajectory, "_CELLS", 3 * 40)  # 3-row tiles across the 4-child hashes
    s = setting()
    cycle = rotor_exp(0.7 * EZ)
    u_bars, finals = run_ensemble(s, cycle, NuclearState.eigenstate(EZ), 40, 6, 999)
    for i in range(6):
        rec = run(
            s,
            cycle,
            NuclearState.eigenstate(EZ),
            40,
            np.random.SeedSequence(999, spawn_key=(i,)),
        )
        assert rec.u_bar == u_bars[i]
        np.testing.assert_array_equal(rec.final_state.bloch, finals[i])


unit = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: sum(x * x for x in v) > 1e-2)


def _unit(v):
    v = np.array(v)
    return v / np.linalg.norm(v)


@settings(max_examples=80, deadline=None)
@given(
    axis=unit,
    alpha=st.floats(0.05, math.pi - 0.05),
    phi=st.floats(0.0, math.pi),
    cycle=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    start=unit,
    length=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),  # pure or mixed
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_matches_step_oracle(axis, alpha, phi, cycle, start, length, n, seed):
    s = MeasurementSetting(alpha * _unit(axis), phi)
    rotation = rotor_exp(np.array(cycle))
    initial = NuclearState(length * _unit(start))
    rec = run(s, rotation, initial, n, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    state, outcomes = initial, []
    for _ in range(n):
        u, state = step(state, s, rotation, rng)
        outcomes.append(u)
    np.testing.assert_array_equal(rec.outcomes, outcomes)
    np.testing.assert_allclose(rec.final_state.bloch, state.bloch, rtol=0, atol=1e-12)


# axes: exactly +-e_z (the frame is the identity) or generic
AXES = st.one_of(st.sampled_from([EZ, -EZ]), unit.map(_unit))
# Bloch starts with signed zeros, the axis eigenstates, or generic
STARTS = st.one_of(
    st.sampled_from([[0.0, -0.0, 1.0], [-0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]]),
    st.tuples(*[st.floats(-0.5, 0.5)] * 3),
)


# phi = +-alpha, or generic
PHIS = st.one_of(st.sampled_from(["+alpha", "-alpha"]), st.floats(-math.pi, math.pi))
# cycle rotations: the identity, 0.7 rad about the measurement axis, or generic
CYCLES = st.one_of(
    st.sampled_from(["identity", "about the axis"]), st.tuples(*[st.floats(-2.0, 2.0)] * 3)
)


def _setting_and_rotation(axis, alpha, phi, cycle):
    """The setting and cycle rotation that the ``PHIS`` and ``CYCLES`` draws name."""
    if isinstance(phi, str):
        phi = (1.0 if phi == "+alpha" else -1.0) * MeasurementSetting(alpha * axis, 0.0).alpha_mag
    if cycle == "identity":
        rotation = Rotor(1.0, np.zeros(3))
    else:
        rotation = rotor_exp(0.7 * axis if cycle == "about the axis" else np.array(cycle))
    return MeasurementSetting(alpha * axis, phi), rotation


@settings(max_examples=60, deadline=None)
@given(
    axis=AXES,
    alpha=st.floats(0.05, math.pi),
    phi=PHIS,
    cycle=CYCLES,
    start=STARTS,
    n=st.sampled_from([1, 63, 64, 65, 130]),
    rows=st.sampled_from([2, 5, 257]),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # the ensemble's block size; the -1 outcome's |l_+|^2 and l_+ l_-^* are zero
    axis=EZ, alpha=0.5, phi="+alpha", cycle=(0.3, -0.2, 0.1), start=(0.2, -0.3, 0.4),
    n=130, rows=2048, seed=7,
)
def test_one_row_on_floats_is_its_row_on_arrays(axis, alpha, phi, cycle, start, n, rows, seed):
    """``_evolve`` on one row (Python floats) equals that row of a many-row call (arrays).

    ``phi = +-alpha`` makes one outcome's probability vanish on an axis
    eigenstate; the identity and turns about the measurement axis give
    rotations with exact zeros and a unit z-row in the frame.
    """
    s, rotation = _setting_and_rotation(axis, alpha, phi, cycle)
    initial = NuclearState(np.array(start, dtype=float))
    uniforms = np.random.default_rng(seed).random((rows, n))
    plan, outcomes = trajectory._plan(s, rotation, initial), []
    u_bars, finals = trajectory._evolve(plan, uniforms, outcomes)
    outcomes = np.concatenate(outcomes)
    for i in (0, rows - 1):
        row_outcomes = []
        u_bar, final = trajectory._evolve(plan, uniforms[i : i + 1], row_outcomes)
        np.testing.assert_array_equal(np.concatenate(row_outcomes)[:, 0], outcomes[:, i])
        assert u_bar.tobytes() == u_bars[i : i + 1].tobytes()
        assert final.tobytes() == finals[i : i + 1].tobytes()  # signed zeros too


def _evolved(s, rotation, initial, uniforms):
    """``_evolve``'s u_bars and finals as bytes, its outcomes, and the rows its
    plan decides without the slice kernel."""
    outcomes, plan = [], trajectory._plan(s, rotation, initial)
    u_bars, finals = trajectory._evolve(plan, uniforms, outcomes)
    fixed_rows = 0 if plan.fixed is None else len(uniforms)
    return u_bars.tobytes(), finals.tobytes(), np.concatenate(outcomes), fixed_rows


@settings(max_examples=80, deadline=None)
@given(
    axis=AXES,
    alpha=st.floats(0.05, math.pi),
    phi=PHIS,
    cycle=CYCLES,
    start=STARTS,
    n=st.sampled_from([1, 63, 64, 65, 130]),
    rows=st.sampled_from([1, 2, 257]),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # the perfbench ensemble's setting on one block
    axis=EZ, alpha=0.1, phi=4 * math.pi / 9, cycle="about the axis", start=(0.0, -0.0, 1.0),
    n=130, rows=2048, seed=7,
)
@example(  # the -e_z axis; one outcome never occurs
    axis=-EZ, alpha=0.5, phi="-alpha", cycle="identity", start=(-0.0, 0.0, -1.0),
    n=65, rows=2, seed=11,
)
def test_fixed_point_shortcut_is_the_kernel_bit_for_bit(
    axis, alpha, phi, cycle, start, n, rows, seed
):
    """``_evolve`` gives the same bits whether or not it may skip the slice kernel."""
    s, rotation = _setting_and_rotation(axis, alpha, phi, cycle)
    initial = NuclearState(np.array(start, dtype=float))
    uniforms = np.random.default_rng(seed).random((rows, n))
    shortcut = _evolved(s, rotation, initial, uniforms)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trajectory, "_fixed_point", lambda *args: None)
        kernel = _evolved(s, rotation, initial, uniforms)
    assert shortcut[3] in (0, rows) and kernel[3] == 0
    assert shortcut[:2] == kernel[:2]  # u_bars and finals, signed zeros too
    np.testing.assert_array_equal(shortcut[2], kernel[2])


TILT = _unit([0.6, 0.0, 0.8])
# name: axis, alpha, phi, cycle, start, whether the start is a fixed point of the cycle
FIXED_POINT_CASES = {
    "plus, identity": (EZ, 0.1, 1.4, "identity", [0.0, 0.0, 1.0], True),
    "minus, turn about e_z": (EZ, 0.1, 1.4, "about the axis", [0.0, 0.0, -1.0], True),
    "signed zeros, turn about e_z": (EZ, 0.1, 1.4, "about the axis", [-0.0, 0.0, 1.0], True),
    "axis -e_z, its plus eigenstate": (-EZ, 0.3, 1.0, "about the axis", [0.0, 0.0, -1.0], True),
    "phi = +alpha, plus": (EZ, 0.5, "+alpha", "identity", [0.0, 0.0, 1.0], True),
    "phi = -alpha, minus": (EZ, 0.5, "-alpha", "about the axis", [0.0, 0.0, -1.0], True),
    "phi = -alpha, plus": (EZ, 0.5, "-alpha", "identity", [0.0, 0.0, 1.0], True),
    "mixed, identity": (EZ, 0.1, 1.4, "identity", [0.0, 0.0, 0.0], False),
    "partly polarized, identity": (EZ, 0.1, 1.4, "identity", [0.0, 0.0, 0.5], False),
    "minus, phi < alpha (the -1 outcome flips the zeros' signs)": (
        EZ, 0.5, 0.2, "identity", [0.0, 0.0, -1.0], False,
    ),
    "plus, generic cycle": (EZ, 0.1, 1.4, (0.1, 0.2, 0.3), [0.0, 0.0, 1.0], False),
    "plus, 0.3 rad about e_z (R_zz rounds below 1)": (
        EZ, 0.1, 1.4, (0.0, 0.0, 0.3), [0.0, 0.0, 1.0], False,
    ),
    "tilted axis, its plus eigenstate": (TILT, 0.1, 1.4, "identity", list(TILT), False),
    "tilted axis, minus, turn about it": (TILT, 0.1, 1.4, "about the axis", list(-TILT), False),
}


@pytest.mark.parametrize(
    "axis, alpha, phi, cycle, start, fixed",
    FIXED_POINT_CASES.values(),
    ids=list(FIXED_POINT_CASES),
)
def test_which_starts_skip_the_kernel(axis, alpha, phi, cycle, start, fixed):
    s, rotation = _setting_and_rotation(axis, alpha, phi, cycle)
    uniforms = np.random.default_rng(3).random((5, 70))
    *_, fixed_rows = _evolved(s, rotation, NuclearState(np.array(start)), uniforms)
    assert fixed_rows == (5 if fixed else 0)


@pytest.mark.parametrize(
    "axis, alpha, phi, cycle, start",
    [case[:5] for case in FIXED_POINT_CASES.values() if case[5]],
    ids=[name for name, case in FIXED_POINT_CASES.items() if case[5]],
)
def test_draws_at_the_threshold_are_the_kernels(monkeypatch, axis, alpha, phi, cycle, start):
    """A draw equal to the threshold, its neighbours and the extreme draws."""
    s, rotation = _setting_and_rotation(axis, alpha, phi, cycle)
    initial = NuclearState(np.array(start))
    threshold = trajectory._plan(s, rotation, initial).fixed[0]
    draws = [np.nextafter(threshold, 0.0), threshold, np.nextafter(threshold, 1.0), 0.0]
    uniforms = np.array([[d for d in draws if d < 1.0] + [1.0 - 2.0**-53]] * 2)
    shortcut = _evolved(s, rotation, initial, uniforms)
    monkeypatch.setattr(trajectory, "_fixed_point", lambda *args: None)
    kernel = _evolved(s, rotation, initial, uniforms)
    assert shortcut[3] == 2 and shortcut[:2] == kernel[:2]
    np.testing.assert_array_equal(shortcut[2], kernel[2])


@pytest.mark.parametrize("block", [1, 3, 7, 50])
def test_ensemble_rows_are_runs_bit_for_bit(monkeypatch, block):
    monkeypatch.setattr(trajectory, "_BLOCK", block)
    axis = _unit([0.3, -0.5, -0.8])  # tilted, below the equator
    s = MeasurementSetting(0.6 * axis, 1.1)
    cycle = rotor_exp(np.array([0.2, 0.1, -0.3]))  # not about the axis
    initial = NuclearState(np.array([0.5, 0.3, -0.2]))
    n, n_traj = 150, 7
    u_bars, finals = run_ensemble(s, cycle, initial, n, n_traj, 31)
    for i in range(n_traj):
        rec = run(s, cycle, initial, n, np.random.SeedSequence(31, spawn_key=(i,)))
        np.testing.assert_array_equal(u_bars[i], rec.u_bar)
        np.testing.assert_array_equal(finals[i], rec.final_state.bloch)


def _tiled_ensemble(monkeypatch, n, n_traj, master):
    """Check a fixed-point ``run_ensemble`` (plus eigenstate, 0.7 rad about
    e_z) against its single runs bit for bit; return the rows of each tile."""
    s, cycle, initial = setting(), rotor_exp(0.7 * EZ), NuclearState.eigenstate(EZ)
    tiles, evolve = [], trajectory._evolve

    def recorded(plan, uniforms, *args):
        tiles.append(len(uniforms))
        return evolve(plan, uniforms, *args)

    tally = Counter()
    with monkeypatch.context() as patch:
        patch.setattr(trajectory, "_evolve", recorded)
        u_bars, finals = run_ensemble(s, cycle, initial, n, n_traj, master, tally)
    assert tally["fixed_point_rows"] == n_traj
    records = [
        run(s, cycle, initial, n, np.random.SeedSequence(master, spawn_key=(i,)))
        for i in range(n_traj)
    ]
    expected_u_bars = np.array([r.u_bar for r in records])
    expected_finals = np.array([r.final_state.bloch for r in records])
    assert u_bars.tobytes() == expected_u_bars.tobytes()
    assert finals.tobytes() == expected_finals.tobytes()
    return tiles


@pytest.mark.parametrize("rows, block", [(1, 2048), (3, 8), (7, 8)])
def test_fixed_point_tiles_are_runs_bit_for_bit(monkeypatch, rows, block):
    """Fixed-point rows drawn ``rows`` at a time, the last tile partial, while
    the seed words are hashed ``block`` children at a time across the tiles."""
    n, n_traj = 40, 17
    monkeypatch.setattr(trajectory, "_BLOCK", block)
    monkeypatch.setattr(trajectory, "_CELLS", rows * n + n - 1)  # rows = _CELLS // n
    tiles = _tiled_ensemble(monkeypatch, n, n_traj, 999)
    assert tiles == [rows] * (n_traj // rows) + [n_traj % rows] * (n_traj % rows > 0)


def test_fixed_point_rows_longer_than_a_tile_draw_one_at_a_time(monkeypatch):
    n, n_traj = trajectory._CELLS + 3, 3
    assert _tiled_ensemble(monkeypatch, n, n_traj, 2**64 + 1) == [1, 1, 1]


def test_fixed_point_ensemble_holds_one_tile_of_draws():
    """The draws of a fixed-point ensemble take about ``8 _CELLS`` bytes
    whatever ``n_traj`` is, not the kernel's ``8 min(_BLOCK, n_traj) n``."""
    s, cycle, initial = setting(), rotor_exp(0.7 * EZ), NuclearState.eigenstate(EZ)
    run_ensemble(s, cycle, initial, 10, 3, 5)  # first-call allocations out of the way
    n, held = 1000, []
    for n_traj in (2048, 8192):
        tracemalloc.start()
        try:
            run_ensemble(s, cycle, initial, n, n_traj, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held.append(peak - 32 * n_traj)  # less the u_bars and final vectors returned
    tile = 8 * trajectory._CELLS
    assert max(held) < 2 * tile < 8 * trajectory._BLOCK * n
    assert abs(held[1] - held[0]) < tile / 8


EDGE_MASTERS = [0, 1, 2**32 - 1, 2**32, 2**64, 2**128 + 1]


@settings(max_examples=200, deadline=None)
@given(
    master=st.one_of(st.sampled_from(EDGE_MASTERS), st.integers(0, 2**160)),
    first=st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)),
    count=st.integers(1, 5),
)
@example(master=2**128 + 1, first=2**32 - 1, count=1)
@example(master=0, first=0, count=1)
def test_child_seed_words_are_seed_sequence_states(master, first, count):
    first = min(first, 2**32 - count)
    words = _child_seed_words(master, first, count)
    expected = [
        np.random.SeedSequence(master, spawn_key=(i,)).generate_state(4, np.uint64)
        for i in range(first, first + count)
    ]
    assert words.dtype == np.uint64
    np.testing.assert_array_equal(words, expected)


def test_child_seed_words_reject_indices_past_one_word():
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _child_seed_words(0, 2**32 - 1, 2)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _child_seed_words(0, 0, 2**32 + 1)  # refused before anything is allocated


def test_fixed_point_declines_past_the_reachable_states():
    """A step that keeps making new states under one signature is declined, not followed."""
    draws = []

    def step(state, draw):
        draws.append(draw)
        return [state[0] + 1.0]

    assert trajectory._fixed_point([0.0], step, lambda state: (0.5,)) is None
    assert len(draws) < 2 * trajectory._REACHABLE


@pytest.mark.parametrize("block", [2, 2048])
@pytest.mark.parametrize("master", [7, 2**128 + 1], ids=["one-word master", "five-word master"])
def test_child_generators_are_distinct_seed_sequence_children(monkeypatch, block, master):
    monkeypatch.setattr(trajectory, "_BLOCK", block)
    generators = list(trajectory._child_generators(master, 5))  # kept past the next child
    assert len({id(gen.bit_generator) for gen in generators}) == 5
    for i, gen in enumerate(generators):
        expected = np.random.default_rng(np.random.SeedSequence(master, spawn_key=(i,)))
        np.testing.assert_array_equal(gen.random(9), expected.random(9))
        assert gen.integers(2**63, size=3).tolist() == expected.integers(2**63, size=3).tolist()


STREAM_CASE = (
    MeasurementSetting(0.4 * _unit([0.3, -0.5, 0.8]), 1.2),
    rotor_exp(np.array([0.2, 0.1, -0.3])),
    NuclearState.mixed(),
    3,  # cycles
    2051,  # trajectories: not a multiple of any block, so the last block is partial
)


@functools.lru_cache(maxsize=None)
def _single_runs(master):
    """``run`` on ``default_rng(SeedSequence(master, spawn_key=(i,)))`` for each row ``i``."""
    s, cycle, initial, n, n_traj = STREAM_CASE
    records = [run(s, cycle, initial, n, np.random.SeedSequence(master, spawn_key=(i,))) for i in range(n_traj)]
    return np.array([r.u_bar for r in records]), np.array([r.final_state.bloch for r in records])


@pytest.mark.parametrize("block", [1, 3, 2048])
@pytest.mark.parametrize("master", [12345, 2**128 + 1], ids=["one-word master", "five-word master"])
def test_ensemble_streams_are_seed_sequence_children(monkeypatch, block, master):
    monkeypatch.setattr(trajectory, "_BLOCK", block)
    u_bars, finals = run_ensemble(*STREAM_CASE, master)
    expected_u_bars, expected_finals = _single_runs(master)
    np.testing.assert_array_equal(u_bars, expected_u_bars)
    np.testing.assert_array_equal(finals, expected_finals)


def test_survival_ensemble_equals_spawned_rows():
    alpha_vec = 2.2 * _unit([0.3, -0.5, 0.8])
    axis, std, n_max, n_seeds, master = _unit([0.6, 0.2, -0.7]), 0.05, 100, 40, 2**64 + 9
    children = np.random.SeedSequence(master).spawn(n_seeds)
    angles = np.array([np.random.default_rng(seq).normal(0.0, std, n_max) for seq in children])
    rows = np.concatenate(list(_fixed_axis_survivals(alpha_vec, axis, angles)))
    mean, stderr = survival_ensemble(alpha_vec, std, axis, n_max, n_seeds, master)
    np.testing.assert_array_equal(mean, rows.mean(axis=1))
    np.testing.assert_array_equal(stderr, rows.std(axis=1, ddof=1) / math.sqrt(n_seeds))


@pytest.mark.parametrize("seed", [-1, 2.5, 3.0, True, "7", None], ids=repr)
def test_master_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="master seed"):
        run_ensemble(setting(), Rotor(1.0, np.zeros(3)), NuclearState.mixed(), 5, 4, seed)
    with pytest.raises(ValueError, match="master seed"):
        survival_ensemble(0.7 * EZ, 0.1, [1.0, 0.0, 0.0], 5, 4, seed)


def _random_errors(axis):
    return RotationErrorModel("random", std=0.1, axis=axis, seed=1)


def _run(n):
    return run(setting(), Rotor(1.0, np.zeros(3)), NuclearState.mixed(), n, 0)


def _ensemble(n=5, n_traj=4):
    return run_ensemble(setting(), Rotor(1.0, np.zeros(3)), NuclearState.mixed(), n, n_traj, 0)


_ROW = [1.0, 0.0]
_TWO_AXES = np.eye(3)[:2]
_REFUSED = [
    ("model axis scalar", lambda: _random_errors(1.0), "axis"),
    ("model axis of two", lambda: _random_errors(_ROW), "axis"),
    ("model two axes", lambda: _random_errors(_TWO_AXES), "axis"),
    ("ensemble axis scalar", lambda: survival_ensemble(0.7 * EZ, 0.1, 1.0, 5, 4, 0), "axis"),
    ("ensemble axis of two", lambda: survival_ensemble(0.7 * EZ, 0.1, _ROW, 5, 4, 0), "axis"),
    ("ensemble two axes", lambda: survival_ensemble(0.7 * EZ, 0.1, _TWO_AXES, 5, 4, 0), "axis"),
    ("residual axis scalar", lambda: qnd_residual(rotor_exp(0.3 * EZ), 1.0), "alpha_hat"),
    ("residual axis of two", lambda: qnd_residual(rotor_exp(0.3 * EZ), _ROW), "alpha_hat"),
    ("residual two axes", lambda: qnd_residual(rotor_exp(0.3 * EZ), _TWO_AXES), "alpha_hat"),
    ("bloch of two", lambda: NuclearState(np.array([0.1, 0.2])), "bloch"),
    ("bloch scalar", lambda: NuclearState(0.1), "bloch"),
    ("two blochs", lambda: NuclearState(np.zeros((2, 3))), "bloch"),
    ("eigenstate zero axis", lambda: NuclearState.eigenstate(np.zeros(3)), "alpha_hat"),
    ("eigenstate nan axis", lambda: NuclearState.eigenstate([math.nan, 0.0, 1.0]), "alpha_hat"),
    ("eigenstate inf axis", lambda: NuclearState.eigenstate([math.inf, 0.0, 0.0]), "alpha_hat"),
    ("eigenstate axis of two", lambda: NuclearState.eigenstate(_ROW), "alpha_hat"),
    ("run n 2.5", lambda: _run(2.5), "n"),
    ("run n True", lambda: _run(True), "n"),
    ("ensemble n 2.5", lambda: _ensemble(n=2.5), "n"),
    ("ensemble n True", lambda: _ensemble(n=True), "n"),
    ("n_traj 0", lambda: _ensemble(n_traj=0), "n_traj"),
    ("n_traj -2", lambda: _ensemble(n_traj=-2), "n_traj"),
    ("n_traj 2.5", lambda: _ensemble(n_traj=2.5), "n_traj"),
    ("n_traj 4.0", lambda: _ensemble(n_traj=4.0), "n_traj"),
    ("n_traj True", lambda: _ensemble(n_traj=True), "n_traj"),
]


@pytest.mark.parametrize("call, name", [c[1:] for c in _REFUSED], ids=[c[0] for c in _REFUSED])
def test_bad_shapes_and_counts_are_refused_before_any_draw(monkeypatch, call, name):
    """An axis or polarization that is not one 3-vector, an unusable eigenstate
    axis and a count that is not an integer >= 1 raise a ``ValueError`` that
    starts with the argument's name, before any stream is built."""

    def draw(*args, **kwargs):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(np.random, "default_rng", draw)
    monkeypatch.setattr(trajectory, "_child_generators", draw)
    monkeypatch.setattr(stability, "_child_generators", draw)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()


@pytest.mark.parametrize("n", [0, -3])
def test_ensemble_refuses_fewer_than_one_cycle(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        run_ensemble(setting(), Rotor(1.0, np.zeros(3)), NuclearState.mixed(), n, 4, 0)


def test_qnd_ensemble_reproduces_exact_distribution():
    # statistical floor of the total variation for 1e5 samples at n = 100
    # is about 0.004, comfortably inside the 0.01 bound
    s = setting()
    n, n_traj = 100, 100_000
    dist = exact_distribution(s, n)
    for branch, probs in ((1, dist.probs_plus), (-1, dist.probs_minus)):
        u_bars, _ = run_ensemble(
            s, rotor_exp(0.7 * EZ), NuclearState.eigenstate(EZ, branch), n, n_traj, 4242
        )
        assert total_variation(empirical_law(u_bars, n), probs) < 0.01


def test_rejects_imperfect_readout():
    s = MeasurementSetting(0.1 * EZ, 1.0, readout=ReadoutModel(0.9, 0.9))
    with pytest.raises(ValueError):
        kraus_eigenvalues(s, 1)
    with pytest.raises(ValueError):
        run_ensemble(s, Rotor(1.0, np.zeros(3)), NuclearState.mixed(), 1, 1, 0)


def test_kraus_eigenvalue_moduli_are_probabilities():
    s = setting(0.8, 0.9)
    for u in (1, -1):
        lam_plus, lam_minus = kraus_eigenvalues(s, u)
        assert abs(lam_plus) ** 2 == pytest.approx(outcome_prob(s, 1, u), abs=1e-12)
        assert abs(lam_minus) ** 2 == pytest.approx(outcome_prob(s, -1, u), abs=1e-12)
