import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalar_trajectory import step
from qndspin.cascade import exact_distribution
from qndspin.measurement import MeasurementSetting, ReadoutModel, outcome_prob
from qndspin.rotations import Rotor, rotor_exp, so3_from_rotor
import qndspin.trajectory as trajectory
from qndspin.stability import _fixed_axis_survivals, dephasing_map, survival_ensemble
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
    with pytest.raises(ValueError, match="polarization"):
        NuclearState(np.array(bloch))


def _nan_state():
    state = NuclearState.mixed()
    state.bloch = np.array([math.nan, 0.0, 0.0])  # past the constructor's check
    return state


@pytest.mark.parametrize(
    "rotation, initial, name",
    [
        (lambda: rotor_exp([math.nan, 0.0, 0.0]), NuclearState.mixed, "cycle_rotation"),
        (lambda: Rotor(1.0, np.zeros(3)), _nan_state, "initial"),
    ],
    ids=["nan rotation", "nan initial state"],
)
def test_run_and_run_ensemble_refuse_non_finite_inputs_alike(rotation, initial, name):
    """run_ensemble returned finite u-bars for a NaN rotation, where run raised."""
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        run(setting(), rotation(), initial(), 10, 1)
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
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


@settings(max_examples=60, deadline=None)
@given(
    axis=AXES,
    alpha=st.floats(0.05, math.pi),
    phi=st.one_of(st.sampled_from(["+alpha", "-alpha"]), st.floats(-math.pi, math.pi)),
    cycle=st.one_of(
        st.sampled_from(["identity", "about the axis"]), st.tuples(*[st.floats(-2.0, 2.0)] * 3)
    ),
    start=STARTS,
    n=st.sampled_from([1, 63, 64, 65, 130]),
    rows=st.sampled_from([2, 5, 257]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_row_on_floats_is_its_row_on_arrays(axis, alpha, phi, cycle, start, n, rows, seed):
    """``_evolve`` on one row (Python floats) equals that row of a many-row call (arrays).

    ``phi = +-alpha`` makes one outcome's probability vanish on an axis
    eigenstate; the identity and turns about the measurement axis give
    rotations with exact zeros and a unit z-row in the frame.
    """
    if isinstance(phi, str):
        phi = (1.0 if phi == "+alpha" else -1.0) * MeasurementSetting(alpha * axis, 0.0).alpha_mag
    s = MeasurementSetting(alpha * axis, phi)
    if cycle == "identity":
        rotation = Rotor(1.0, np.zeros(3))
    else:
        rotation = rotor_exp(0.7 * axis if cycle == "about the axis" else np.array(cycle))
    initial = NuclearState(np.array(start, dtype=float))
    uniforms = np.random.default_rng(seed).random((rows, n))
    outcomes = []
    u_bars, finals = trajectory._evolve(s, rotation, initial, uniforms, outcomes)
    outcomes = np.concatenate(outcomes)
    for i in (0, rows - 1):
        row_outcomes = []
        u_bar, final = trajectory._evolve(s, rotation, initial, uniforms[i : i + 1], row_outcomes)
        np.testing.assert_array_equal(np.concatenate(row_outcomes)[:, 0], outcomes[:, i])
        assert u_bar.tobytes() == u_bars[i : i + 1].tobytes()
        assert final.tobytes() == finals[i : i + 1].tobytes()  # signed zeros too


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
