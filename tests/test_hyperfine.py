import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_rotors as ref
from qndspin.control import concatenated_dd
from qndspin.hyperfine import (
    MHZ,
    DDSequence,
    SpinSystem,
    cpmg,
    cpmg_filter_closed_form,
    exact_dd_evolution,
    extract_alpha_phi,
    filter_function,
    match_alpha_branch,
    weak_coupling_alpha,
)
from qndspin.nv import PRESETS, default_tau_grid, nv_system
from qndspin.rotations import (
    Rotor,
    rotor_compose,
    rotor_exp,
    rotor_log,
    so3_from_rotor,
)

C13_A_MHZ = np.array([0.316 / math.sqrt(2), 0.316 / math.sqrt(2), 0.330])


def p2_system() -> SpinSystem:
    omega_n = -10.71 * 0.0305 * MHZ
    return SpinSystem(omega_n=omega_n, a_plus=np.zeros(3), a_minus=-C13_A_MHZ * MHZ)


def generic_system(rng) -> SpinSystem:
    omega = rng.normal(size=3)
    omega /= np.linalg.norm(omega)
    omega *= rng.uniform(0.5, 2.0)
    hyperfine = rng.normal(size=3) * rng.uniform(0.05, 0.4)
    return SpinSystem.from_vectors(omega, hyperfine)


def rotor_diff(a, b) -> float:
    return max(abs(a.scalar - b.scalar), float(np.max(np.abs(a.vector - b.vector))))


# ---------------------------------------------------------------- sequences


def test_cpmg_single_period():
    seq = cpmg(1, 1.0)
    np.testing.assert_allclose(seq.pulse_times, [0.25, 0.75])
    assert seq.duration == 1.0


def test_cpmg_two_periods():
    seq = cpmg(2, 1.0)
    np.testing.assert_allclose(seq.pulse_times, [0.25, 0.75, 1.25, 1.75])
    assert seq.duration == 2.0


def test_cpmg_is_balanced():
    for tau in (0.3, 1.0, 7.7):
        seq = cpmg(6, tau)
        integral = np.diff(seq.interval_bounds()) @ seq.interval_signs()  # of s(t) dt
        assert integral == pytest.approx(0.0, abs=1e-12)


def test_sequence_validation():
    with pytest.raises(ValueError):
        DDSequence(np.array([0.5, 0.2]), 1.0)
    with pytest.raises(ValueError):
        DDSequence(np.array([1.5]), 1.0)


# ---------------------------------------------------------------- evolution


def test_free_evolution():
    sys = SpinSystem.from_vectors([0.1, -0.2, 0.9], [0.3, 0.0, -0.1])
    seq = DDSequence(np.array([]), 2.0)
    u_plus, u_minus = exact_dd_evolution(sys, seq)
    assert rotor_diff(u_plus, rotor_exp((sys.omega + sys.hyperfine / 2) * 2.0)) < 1e-14
    assert rotor_diff(u_minus, rotor_exp((sys.omega - sys.hyperfine / 2) * 2.0)) < 1e-14


def test_zero_hyperfine():
    sys = SpinSystem.from_vectors([0.0, 0.0, 1.3], [0.0, 0.0, 0.0])
    seq = cpmg(3, 1.0)
    u_plus, u_minus = exact_dd_evolution(sys, seq)
    assert rotor_diff(u_plus, u_minus) == 0.0
    assert rotor_diff(u_plus, rotor_exp(sys.omega * seq.duration)) < 1e-12


def test_against_time_stepping_oracle():
    # 1e5 uniform steps align with the quarter-period pulse times exactly
    sys = SpinSystem.from_vectors([0.2, -0.4, 1.1], [0.5, 0.3, -0.2])
    tau = 2.4
    seq = cpmg(1, tau)
    n_steps = 100_000
    dt = tau / n_steps
    omega, half_a = sys.omega, sys.hyperfine / 2
    brute_plus = rotor_exp(np.zeros(3))
    brute_minus = rotor_exp(np.zeros(3))
    for k in range(n_steps):
        t_mid = (k + 0.5) * dt
        sign = 1.0 if (t_mid < tau / 4 or t_mid > 3 * tau / 4) else -1.0
        brute_plus = rotor_compose(rotor_exp((omega + sign * half_a) * dt), brute_plus)
        brute_minus = rotor_compose(rotor_exp((omega - sign * half_a) * dt), brute_minus)
    u_plus, u_minus = exact_dd_evolution(sys, seq)
    assert rotor_diff(u_plus, brute_plus) < 1e-8
    assert rotor_diff(u_minus, brute_minus) < 1e-8


def test_multiplicative_under_even_split():
    sys = SpinSystem.from_vectors([0.3, 0.1, 0.8], [0.2, -0.3, 0.15])
    tau = 1.7
    full = cpmg(2, tau)
    left = DDSequence(full.pulse_times[:2], tau)
    right = DDSequence(full.pulse_times[2:] - tau, tau)
    up_f, um_f = exact_dd_evolution(sys, full)
    up_l, um_l = exact_dd_evolution(sys, left)
    up_r, um_r = exact_dd_evolution(sys, right)
    assert rotor_diff(up_f, rotor_compose(up_r, up_l)) < 1e-13
    assert rotor_diff(um_f, rotor_compose(um_r, um_l)) < 1e-13


def test_multiplicative_under_odd_split():
    # one pulse before the split point: the right segment sees swapped branches
    sys = SpinSystem.from_vectors([0.3, 0.1, 0.8], [0.2, -0.3, 0.15])
    tau = 1.7
    full = cpmg(1, tau)
    left = DDSequence(full.pulse_times[:1], tau / 2)
    right = DDSequence(full.pulse_times[1:] - tau / 2, tau / 2)
    up_f, um_f = exact_dd_evolution(sys, full)
    up_l, um_l = exact_dd_evolution(sys, left)
    up_r, um_r = exact_dd_evolution(sys, right)
    assert rotor_diff(up_f, rotor_compose(um_r, up_l)) < 1e-13
    assert rotor_diff(um_f, rotor_compose(up_r, um_l)) < 1e-13


# ---------------------------------------------------------------- extraction


def test_extract_equal_branches():
    u = rotor_exp([0.2, -0.5, 0.7])
    alpha_vec, phi_dd = extract_alpha_phi(u, u)
    np.testing.assert_allclose(alpha_vec, np.zeros(3), atol=1e-14)
    np.testing.assert_allclose(phi_dd, rotor_log(u), atol=1e-12)


def test_extract_pure_conditional_rotation():
    beta = 0.4
    alpha_vec, phi_dd = extract_alpha_phi(
        rotor_exp([beta, 0, 0]), rotor_exp([-beta, 0, 0])
    )
    np.testing.assert_allclose(alpha_vec, [beta, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(phi_dd, np.zeros(3), atol=1e-14)


def test_extract_reconstructs_p2_exactly():
    sys = p2_system()
    seq = cpmg(6, sys.dd_period)
    u_plus, u_minus = exact_dd_evolution(sys, seq)
    alpha_vec, phi_dd = extract_alpha_phi(u_plus, u_minus)
    recon_plus = rotor_compose(rotor_exp(phi_dd), rotor_exp(alpha_vec))
    recon_minus = rotor_compose(rotor_exp(phi_dd), rotor_exp(-alpha_vec))
    assert rotor_diff(recon_plus, u_plus) < 1e-12
    assert rotor_diff(recon_minus, u_minus) < 1e-12


def test_reconstruction_property_random_systems():
    rng = np.random.default_rng(42)
    for _ in range(50):
        sys = generic_system(rng)
        seq = cpmg(int(rng.integers(1, 5)), rng.uniform(0.5, 6.0))
        u_plus, u_minus = exact_dd_evolution(sys, seq)
        alpha_vec, phi_dd = extract_alpha_phi(u_plus, u_minus)
        assert np.linalg.norm(alpha_vec) <= math.pi + 1e-12
        recon_plus = rotor_compose(rotor_exp(phi_dd), rotor_exp(alpha_vec))
        recon_minus = rotor_compose(rotor_exp(phi_dd), rotor_exp(-alpha_vec))
        assert rotor_diff(recon_plus, u_plus) < 1e-10
        assert rotor_diff(recon_minus, u_minus) < 1e-10


def test_alpha_magnitude_frame_invariant():
    rng = np.random.default_rng(5)
    sys = generic_system(rng)
    seq = cpmg(2, 3.0)
    alpha_vec, _ = extract_alpha_phi(*exact_dd_evolution(sys, seq))
    for _ in range(10):
        frame = so3_from_rotor(rotor_exp(rng.normal(size=3)))
        rotated = SpinSystem.from_vectors(frame @ sys.omega, frame @ sys.hyperfine)
        alpha_rot, _ = extract_alpha_phi(*exact_dd_evolution(rotated, seq))
        assert np.linalg.norm(alpha_rot) == pytest.approx(
            np.linalg.norm(alpha_vec), abs=1e-10
        )


# ------------------------------------------------------- batched sequences


def assert_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def assert_rows_match_reference(sys, seq, pulse_rows, durations):
    """Batched evolution + extraction equal the one-sequence reference per row."""
    u_plus, u_minus = exact_dd_evolution(sys, seq)
    alpha_vecs, phi_dds = extract_alpha_phi(u_plus, u_minus)
    for i, (pulses, duration) in enumerate(zip(pulse_rows, durations)):
        ref_plus, ref_minus = ref.dd_evolution(sys, pulses, duration)
        for batch, one in ((u_plus, ref_plus), (u_minus, ref_minus)):
            assert_bits(batch.scalar[i], one[0])
            assert_bits(batch.vector[i], one[1])
        ref_alpha, ref_phi = ref.alpha_phi(ref_plus, ref_minus)
        assert_bits(alpha_vecs[i], ref_alpha)
        assert_bits(phi_dds[i], ref_phi)
        one_alpha, one_phi = extract_alpha_phi(
            *exact_dd_evolution(sys, DDSequence(pulses, duration))
        )
        assert_bits(one_alpha, ref_alpha)
        assert_bits(one_phi, ref_phi)


def test_batched_geometry_is_per_tau_on_the_benchmark_grid():
    # the scan benchmark's grid; with numpy 2.4 on AVX-512 one of its rows has a
    # logarithm that np.arctan2 rounds differently from math.atan2
    params = PRESETS["P2"]
    sys = nv_system(params)
    taus = default_tau_grid(params, 25)
    seq = cpmg(params.n_dd, taus)
    rows = [ref.cpmg_times(params.n_dd, tau) for tau in taus]
    for i, pulses in enumerate(rows):
        assert_bits(seq.pulse_times[i], pulses)
        assert_bits(seq.pulse_times[i], cpmg(params.n_dd, taus[i]).pulse_times)
    assert_rows_match_reference(sys, seq, rows, params.n_dd * taus)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.lists(st.floats(0.2, 6.0), min_size=1, max_size=6),
)
def test_batched_cpmg_rows_equal_one_sequence_calls(seed, n_periods, taus):
    sys = generic_system(np.random.default_rng(seed))
    taus = np.array(taus)
    rows = [ref.cpmg_times(n_periods, tau) for tau in taus]
    assert_rows_match_reference(sys, cpmg(n_periods, taus), rows, n_periods * taus)


@pytest.mark.parametrize("order", [1, 3])
def test_zero_width_last_interval_keeps_its_rows(order):
    """Odd orders end on a pulse; rows with and without that empty interval mix."""
    sys = p2_system()
    seqs = [concatenated_dd(order, tau, 2) for tau in sys.dd_period * np.linspace(0.9, 1.1, 5)]
    pulse_rows = [seq.pulse_times for seq in seqs] * 2
    durations = [seq.duration for seq in seqs] + [1.01 * seq.duration for seq in seqs]
    assert all(rows[-1] == d for rows, d in zip(pulse_rows[:5], durations[:5]))
    for chosen in (slice(0, 5), slice(0, 10)):
        batch = DDSequence(np.array(pulse_rows[chosen]), np.array(durations[chosen]))
        assert_rows_match_reference(sys, batch, pulse_rows[chosen], durations[chosen])


def test_an_empty_batch_evolves_to_empty_rotors():
    """The overflow guard finds no widest interval in an empty batch and lets it pass."""
    u_plus, u_minus = exact_dd_evolution(p2_system(), cpmg(6, np.array([])))
    assert u_plus.scalar.shape == u_minus.scalar.shape == (0,)
    assert u_plus.vector.shape == u_minus.vector.shape == (0, 3)


def test_nan_periods_and_rotors_are_refused():
    with pytest.raises(ValueError):
        cpmg(6, np.array([1.0, math.nan]))
    with pytest.raises(ValueError):
        DDSequence(np.array([]), math.nan)
    nan_rotor = Rotor(math.nan, np.full(3, math.nan))
    with pytest.raises(ValueError, match="^theta must be finite"):  # the turn they give
        extract_alpha_phi(nan_rotor, nan_rotor)


def test_extraction_reports_its_worst_consistency_error():
    params = PRESETS["P2"]
    seq = cpmg(params.n_dd, default_tau_grid(params, 9))
    counter = Counter()
    alpha_vecs, phi_dds = extract_alpha_phi(*exact_dd_evolution(nv_system(params), seq), counter)
    assert alpha_vecs.shape == phi_dds.shape == (9, 3)
    worst = counter["worst_alpha_phi_error"]
    assert 0.0 <= worst < 1e-12
    single = Rotor(1.0, np.zeros(3))
    extract_alpha_phi(single, single, counter)
    assert counter["worst_alpha_phi_error"] == worst


# ---------------------------------------------------------------- filter


def test_filter_free_evolution_analytic():
    seq = DDSequence(np.array([]), 2.3)
    w = 1.7
    expected = (np.exp(1j * w * 2.3) - 1.0) / (1j * w * 2.3)
    assert abs(filter_function(seq, w) - expected) < 1e-14


def test_filter_cpmg_closed_form():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 9))
        tau = rng.uniform(0.1, 5.0)
        w = rng.uniform(0.2, 8.0)
        if abs(math.cos(w * tau / 4)) < 0.1:
            continue  # removable singularity of the closed form
        closed = cpmg_filter_closed_form(n, tau, w)
        if abs(closed) < 1e-4:
            continue  # relative error undefined at the filter nodes
        checked += 1
        assert abs(filter_function(cpmg(n, tau), w) - closed) / abs(closed) < 1e-10


def test_filter_resonance_limit():
    w = 1.7
    f = filter_function(cpmg(4, 2 * math.pi / w), w)
    assert abs(abs(f) - 2 / math.pi) < 1e-6
    # cos(w tau / 4) = cos(pi / 2): the closed form's removable point takes the interval sum
    assert cpmg_filter_closed_form(4, 2 * math.pi / w, w) == f


def test_filter_magnitude_bounded():
    rng = np.random.default_rng(3)
    for _ in range(200):
        seq = cpmg(int(rng.integers(1, 7)), rng.uniform(0.1, 4.0))
        assert abs(filter_function(seq, rng.uniform(0.1, 10.0))) <= 1.0 + 1e-12


# ---------------------------------------------------------------- weak coupling


def test_weak_alpha_vanishes_without_perpendicular_hyperfine():
    sys = SpinSystem.from_vectors([0.0, 0.0, 1.0], [0.0, 0.0, 0.4])
    alpha_vec, phi_dd = weak_coupling_alpha(sys, cpmg(2, 1.0))
    np.testing.assert_allclose(alpha_vec, np.zeros(3), atol=1e-14)
    np.testing.assert_allclose(phi_dd, sys.omega * 2.0, atol=1e-12)


def test_weak_alpha_zero_phase_case():
    # spin echo (one pulse at t/2) has f = 4 sin^2(wt/4) e^{i w t/2} / (i w t),
    # which is real positive at w t = pi, so alpha is parallel to A_perp
    w = 1.3
    t = math.pi / w
    sys = SpinSystem.from_vectors([0.0, 0.0, w], [0.25, 0.0, 0.1])
    seq = DDSequence(np.array([t / 2]), t)
    f = filter_function(seq, w)
    assert f.imag == pytest.approx(0.0, abs=1e-12)
    assert f.real > 0.0
    alpha_vec, _ = weak_coupling_alpha(sys, seq)
    expected = abs(f) * sys.a_perp * t / 2
    np.testing.assert_allclose(alpha_vec, expected, atol=1e-12)


def test_weak_vs_exact_p2():
    # |2 alpha| exceeds 2 pi here, so the exact vector is compared on the
    # winding branch matching the unreduced weak-coupling prediction
    sys = p2_system()
    seq = cpmg(6, sys.dd_period)
    alpha_exact, _ = extract_alpha_phi(*exact_dd_evolution(sys, seq))
    alpha_weak, _ = weak_coupling_alpha(sys, seq)
    unwrapped = match_alpha_branch(alpha_exact, alpha_weak)
    deviation = np.linalg.norm(unwrapped - alpha_weak) / np.linalg.norm(unwrapped)
    # measured 0.0810 for |A_perp|/|omega| = 0.387
    assert deviation < 0.1


def test_match_alpha_branch_preserves_rotation():
    rng = np.random.default_rng(9)
    for _ in range(50):
        alpha_vec = rng.normal(size=3)
        reference = rng.normal(size=3) * 4.0
        cand = match_alpha_branch(alpha_vec, reference)
        r1 = so3_from_rotor(rotor_exp(-2.0 * cand))
        r2 = so3_from_rotor(rotor_exp(-2.0 * alpha_vec))
        assert np.max(np.abs(r1 - r2)) < 1e-10


def test_match_alpha_branch_keeps_a_zero_vector():
    """A zero vector has no axis to wind along: it is its own representative."""
    np.testing.assert_array_equal(match_alpha_branch(np.zeros(3), [4.0, 0.0, 0.0]), np.zeros(3))


def test_system_requires_nonzero_omega():
    with pytest.raises(ValueError):
        SpinSystem.from_vectors([0.0, 0.0, 0.0], [0.1, 0.0, 0.0])
