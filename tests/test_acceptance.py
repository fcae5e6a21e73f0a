"""Acceptance criteria, one test per numbered criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s`` or on
failure) including the measured values and its wall time, then asserts the
stated tolerances.  Criterion 4 also has a calibrated companion, a pooled
chi-square of the same sampler with a stated false-alarm rate.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import chi2

from qndspin.cascade import (
    critical_n,
    exact_distribution,
    gaussian_distribution,
    optimal_threshold,
    readout_fidelity,
)
from qndspin.control import concatenated_dd, solve_waiting_time
from qndspin.hyperfine import (
    MHZ,
    SpinSystem,
    cpmg,
    cpmg_filter_closed_form,
    exact_dd_evolution,
    extract_alpha_phi,
    filter_function,
    match_alpha_branch,
    weak_coupling_alpha,
)
from qndspin.measurement import MeasurementSetting, binary_stats, kraus_pair
from qndspin.nv import (
    PRESETS,
    default_tau_grid,
    default_tr_grid,
    nv_system,
    room_temp_readout,
    scan_2d,
    tolerance_profile,
)
from qndspin.rotations import rotor_exp, rotor_log, so3_from_rotor
from qndspin.stability import (
    RotationErrorModel,
    analytic_survival,
    dephasing_map,
    survival_curve,
    survival_ensemble,
)
from qndspin.trajectory import NuclearState, run, run_ensemble

EZ = np.array([0.0, 0.0, 1.0])
E45 = np.array([math.cos(math.pi / 4), math.sin(math.pi / 4), 0.0])

MC_SEED = 12345  # fixed a priori for every Monte-Carlo criterion


def _report(num, ok, detail, started, limit_s):
    elapsed = time.time() - started
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s): {detail}"
    print(line, flush=True)
    assert ok, line
    assert elapsed < limit_s, f"criterion {num} exceeded its {limit_s}s budget ({elapsed:.1f}s)"


def test_criterion_01_larmor_periods():
    started = time.time()
    expected = {"P1": (1351.0, 1088.0), "P2": (3061.0, 1936.0), "P3": (3061.0, 1936.0)}
    values = {
        name: (p.larmor_period_wait * 1e9, p.larmor_period_dd * 1e9)
        for name, p in PRESETS.items()
    }
    ok = all(
        abs(values[name][0] - t_r) <= 1.0 and abs(values[name][1] - t) <= 1.0
        for name, (t_r, t) in expected.items()
    )
    detail = "; ".join(
        f"{name}: T_R={v[0]:.1f} ns, T={v[1]:.1f} ns" for name, v in values.items()
    )
    _report(1, ok, detail, started, 1.0)


def test_criterion_02_fidelity_anchors():
    started = time.time()
    setting = MeasurementSetting(0.1 * EZ, math.pi / 2)
    strength = binary_stats(setting).strength_d
    results = {}
    ok = True
    for n, target in ((200, 0.92), (400, 0.98)):
        dist = exact_distribution(setting, n)
        rep = readout_fidelity(dist, optimal_threshold(dist), strength)
        results[n] = rep
        ok = ok and abs(rep.f_bar - target) < 0.01 and abs(rep.f_bar - rep.f_erf) < 0.01
    detail = "; ".join(
        f"n={n}: F_bar={rep.f_bar:.4f} (erf {rep.f_erf:.4f})" for n, rep in results.items()
    )
    _report(2, ok, detail, started, 1.0)


def test_criterion_03_universal_curve():
    started = time.time()
    setting = MeasurementSetting(0.1 * EZ, math.pi / 2)
    strength = binary_stats(setting).strength_d
    n_c = critical_n(strength)
    worst = 0.0
    for ratio in np.linspace(0.1, 4.0, 79):
        n = max(1, round(ratio * n_c))
        dist = exact_distribution(setting, n)
        rep = readout_fidelity(dist, optimal_threshold(dist), strength)
        worst = max(worst, abs(rep.f_bar - rep.f_erf))
    detail = f"max |F_exact - F_erf| = {worst:.4f} over N/N_c in [0.1, 4] (D = {strength:.4f})"
    _report(3, worst < 0.01, detail, started, 10.0)


def test_criterion_04_distribution_convergence():
    # The Monte-Carlo clause is implemented exactly as stated: 1e5 seeded
    # trajectories at n = 1000 against the exact law.  The statistical floor
    # of that estimator is E[TV] ~ 0.011 > the required 0.01 (see the
    # decisions ledger), so this clause fails for typical seeds; the bound
    # and the measured values are reported either way.
    started = time.time()
    setting = MeasurementSetting(0.1 * EZ, 4 * math.pi / 9)
    n, n_traj = 1000, 100_000
    exact = exact_distribution(setting, n)
    gauss = gaussian_distribution(setting, n)
    tv_gauss = max(
        0.5 * float(np.sum(np.abs(exact.probs_plus - gauss.probs_plus))),
        0.5 * float(np.sum(np.abs(exact.probs_minus - gauss.probs_minus))),
    )
    cycle = rotor_exp(0.7 * EZ)  # QND: rotation parallel to the measurement axis
    tv_mc = {}
    for branch, probs in ((1, exact.probs_plus), (-1, exact.probs_minus)):
        u_bars, _ = run_ensemble(
            setting, cycle, NuclearState.eigenstate(EZ, branch), n, n_traj, MC_SEED
        )
        counts = np.zeros(n + 1)
        np.add.at(counts, np.rint((u_bars * n + n) / 2).astype(int), 1.0)
        tv_mc[branch] = 0.5 * float(np.sum(np.abs(counts / n_traj - probs)))
    ok = tv_gauss < 0.02 and all(tv < 0.01 for tv in tv_mc.values())
    detail = (
        f"TV(exact, gaussian) = {tv_gauss:.4f} (< 0.02); "
        f"TV(exact, MC 1e5 @ seed {MC_SEED}) = {tv_mc[1]:.4f} / {tv_mc[-1]:.4f} "
        f"(< 0.01 required; statistical floor of this estimator is ~0.011)"
    )
    _report(4, ok, detail, started, 60.0)


def _pooled_chi_square(counts, probs, min_expected=5.0):
    """Chi-square of ``counts`` against the law ``probs``, with adjacent bins
    pooled left to right until each expects at least ``min_expected``; a
    short remainder joins the last pooled bin.  Returns ``(statistic, dof)``."""
    observed, expected = [], []
    acc_obs = acc_exp = 0.0
    for count, mean in zip(counts, probs * counts.sum()):
        acc_obs += count
        acc_exp += mean
        if acc_exp >= min_expected:
            observed.append(acc_obs)
            expected.append(acc_exp)
            acc_obs = acc_exp = 0.0
    observed[-1] += acc_obs
    expected[-1] += acc_exp
    observed, expected = np.array(observed), np.array(expected)
    return float(np.sum((observed - expected) ** 2 / expected)), len(expected) - 1


def test_criterion_04_sampler_chi_square():
    # Criterion 4's TV < 0.01 lies below the statistical floor of its own
    # estimator, so it cannot tell a sound sampler from a broken one.  This
    # companion can: the same QND sampler, 1e4 trajectories per branch at
    # n = 1000, against the exact law with a pooled chi-square (expected
    # count >= 5 per bin).  A branch fails at p < 1e-3, so an exact sampler
    # fails this test with probability at most 2e-3 over seeds.
    setting = MeasurementSetting(0.1 * EZ, 4 * math.pi / 9)
    n, n_traj = 1000, 10_000
    exact = exact_distribution(setting, n)
    cycle = rotor_exp(0.7 * EZ)
    for branch, probs in ((1, exact.probs_plus), (-1, exact.probs_minus)):
        u_bars, _ = run_ensemble(
            setting, cycle, NuclearState.eigenstate(EZ, branch), n, n_traj, MC_SEED
        )
        counts = np.bincount(np.rint((u_bars * n + n) / 2).astype(int), minlength=n + 1)
        statistic, dof = _pooled_chi_square(counts, probs)
        p_value = float(chi2.sf(statistic, dof))
        print(f"branch {branch:+d}: chi2 = {statistic:.1f}, dof = {dof}, p = {p_value:.3f}")
        assert p_value >= 1e-3, (branch, statistic, dof, p_value)


def test_criterion_05_filter_function():
    started = time.time()
    rng = np.random.default_rng(2025)
    worst = 0.0
    checked = 0
    while checked < 1000:
        n_dd = int(rng.integers(1, 9))
        tau = rng.uniform(0.1, 5.0)
        omega = rng.uniform(0.2, 8.0)
        if abs(math.cos(omega * tau / 4.0)) < 0.1:
            continue  # removable singular set of the closed form
        closed = cpmg_filter_closed_form(n_dd, tau, omega)
        if abs(closed) < 1e-4:
            continue  # relative error undefined at the filter nodes
        checked += 1
        num = filter_function(cpmg(n_dd, tau), omega)
        worst = max(worst, abs(num - closed) / abs(closed))
    omega = 1.7
    resonant = abs(filter_function(cpmg(4, 2 * math.pi / omega), omega))
    res_err = abs(resonant - 2.0 / math.pi)
    ok = worst < 1e-10 and res_err < 1e-6
    detail = (
        f"worst relative error {worst:.2e} over 1000 samples; "
        f"|f| at resonance = {resonant:.8f} (2/pi + {res_err:.1e})"
    )
    _report(5, ok, detail, started, 30.0)


def test_criterion_06_weak_coupling_scaling():
    started = time.time()
    deviations = {}
    for scale in (1.0, 0.1):
        base = PRESETS["P2"]
        sys = SpinSystem(
            omega_n=base.omega_n,
            a_plus=np.zeros(3),
            a_minus=-scale * np.asarray(base.a_mhz) * MHZ,
        )
        seq = cpmg(base.n_dd, sys.dd_period)
        alpha_exact, _ = extract_alpha_phi(*exact_dd_evolution(sys, seq))
        alpha_weak, _ = weak_coupling_alpha(sys, seq)
        # |2 alpha| may exceed 2 pi at full coupling: compare the extracted
        # vector on the winding branch of the unreduced weak prediction
        unwrapped = match_alpha_branch(alpha_exact, alpha_weak)
        deviations[scale] = float(
            np.linalg.norm(unwrapped - alpha_weak) / np.linalg.norm(unwrapped)
        )
    ok = deviations[1.0] < 0.1 and deviations[0.1] < 0.01
    detail = (
        f"relative deviation {deviations[1.0]:.4f} at full coupling, "
        f"{deviations[0.1]:.4f} at A/10 (first-order scaling)"
    )
    _report(6, ok, detail, started, 1.0)


def test_criterion_07_stability_laws():
    started = time.time()
    # systematic error, perpendicular axis, well inside delta_phi << tan^2(alpha/2)
    worst_sys = 0.0
    for alpha_mag, dphi in ((math.pi - 0.1, 0.1), (0.5, 0.1 * math.tan(0.25) ** 2)):
        predicted = 2.0 * math.tan(alpha_mag / 2.0) ** 2 / dphi**2
        horizon = int(min(2.5 * predicted, 2e5))
        err = RotationErrorModel("systematic", delta_phi=dphi * EZ)
        curve = survival_curve(alpha_mag * E45, err, horizon)
        analytic = analytic_survival(
            "systematic", alpha_mag, dphi, np.arange(horizon + 1)
        )
        worst_sys = max(worst_sys, float(np.max(np.abs(curve.values - analytic))))
    # random ensemble mean against the alpha-independent law
    std = 0.05
    n_max, n_seeds = 2000, 10_000
    mean, stderr = survival_ensemble(
        (math.pi - 0.1) * E45, std, EZ, n_max, n_seeds, MC_SEED
    )
    analytic = analytic_survival("random", math.pi - 0.1, std, np.arange(n_max + 1))
    z_scores = [
        abs(mean[n] - analytic[n]) / stderr[n] for n in (200, 500, 1000, 1500, 2000)
    ]
    ok = worst_sys < 0.05 and max(z_scores) < 3.0
    detail = (
        f"systematic max |S_sim - S_analytic| = {worst_sys:.4f}; "
        f"ensemble max |z| = {max(z_scores):.2f} over checkpoints (1e4 seeds)"
    )
    _report(7, ok, detail, started, 60.0)


def test_criterion_08_echo_identity():
    started = time.time()
    deph = dephasing_map(math.pi * np.array([1.0, 0.0, 0.0]))
    worst = 0.0
    for dphi in (0.05, 0.4, 1.3):
        lhs = deph @ so3_from_rotor(rotor_exp(dphi * EZ)) @ deph
        rhs = so3_from_rotor(rotor_exp(-dphi * EZ))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    _report(8, worst < 1e-12, f"max elementwise deviation {worst:.2e}", started, 5.0)


def test_criterion_09_even_order_theorem():
    started = time.time()
    # presets run at resonance; the randomized systems are generic in every
    # parameter including the sequence period (exactly resonant periods are a
    # special set where the odd-order obstruction can become small)
    systems = [(name, nv_system(p), nv_system(p).dd_period, p.n_dd) for name, p in PRESETS.items()]
    rng = np.random.default_rng(2024)
    for k in range(20):
        omega = rng.normal(size=3)
        omega /= np.linalg.norm(omega)
        omega *= rng.uniform(0.5, 2.0)
        hyperfine = rng.normal(size=3) * rng.uniform(0.05, 0.3)
        sys = SpinSystem.from_vectors(omega, hyperfine)
        tau = rng.uniform(0.5, 1.5) * sys.dd_period
        systems.append((f"rand{k}", sys, tau, int(rng.integers(1, 4))))
    worst_cpmg = 0.0
    min_pdd = math.inf
    logged = []
    for name, sys, tau, n_rep in systems:
        for order in (2, 1):
            seq = concatenated_dd(order, tau, n_rep)
            alpha_vec, phi_dd = extract_alpha_phi(*exact_dd_evolution(sys, seq))
            mag = np.linalg.norm(alpha_vec)
            if mag < 1e-8:
                # vanishing measurement vector: the QND question is empty
                logged.append(f"{name}/order{order}: degenerate (alpha = 0)")
                continue
            roots = solve_waiting_time(
                sys, phi_dd, alpha_vec / mag, (0.0, sys.wait_period)
            )
            best = min(r for _, r in roots)
            if order == 2:
                worst_cpmg = max(worst_cpmg, best)
            else:
                min_pdd = min(min_pdd, best)
    for line in logged:
        print(f"  logged exception: {line}", flush=True)
    ok = worst_cpmg < 1e-9 and min_pdd > 1e-3
    detail = (
        f"even order: worst residual {worst_cpmg:.2e} (< 1e-9); "
        f"odd order: smallest residual {min_pdd:.2e} (> 1e-3); "
        f"{len(logged)} degenerate exceptions logged"
    )
    _report(9, ok, detail, started, 60.0)


def test_criterion_10_nv_scan_structure():
    started = time.time()
    params = PRESETS["P2"]
    readout = room_temp_readout(0.1, 0.07)
    scan = scan_2d(
        params,
        default_tau_grid(params, 256),
        default_tr_grid(params, 256),
        readout,
        n_max=1_000_000,
    )
    qualifying = scan.lifetimes >= scan.n_crit[:, None]
    connected = False
    for i in range(qualifying.shape[0]):
        idx = np.nonzero(qualifying[i])[0]
        if idx.size >= 2 and np.all(np.diff(idx) == 1):
            connected = True
            break
    profile = tolerance_profile(scan)
    measured, worst_case = profile[:, 1], profile[:, 2]
    i_res = int(np.argmin(np.abs(scan.tau_grid - params.larmor_period_dd)))
    resonant_ns = measured[i_res] * 1e9
    underestimate = bool(np.all(worst_case <= measured + 1e-15))
    ok = connected and 0.1 < resonant_ns < 100.0 and underestimate
    detail = (
        f"connected region: {connected}; dt_R = {resonant_ns:.1f} ns at resonance "
        f"(worst-case {worst_case[i_res] * 1e9:.1f} ns); "
        f"worst-case <= measured at all {profile.shape[0]} durations: {underestimate}"
    )
    _report(10, ok, detail, started, 1800.0)


def test_criterion_11_property_suites():
    started = time.time()
    rng = np.random.default_rng(99)
    # Kraus completeness
    kraus_ok = True
    for _ in range(1000):
        setting = MeasurementSetting(
            rng.uniform(0, math.pi) * _unit(rng), rng.uniform(-math.pi, math.pi)
        )
        m_plus, m_minus = kraus_pair(setting)
        total = m_plus.conj().T @ m_plus + m_minus.conj().T @ m_minus
        kraus_ok = kraus_ok and np.max(np.abs(total - np.eye(2))) < 1e-12
    # rotor round trips
    rotor_ok = True
    for _ in range(1000):
        theta = _unit(rng) * rng.uniform(0.0, math.pi - 1e-6)
        rotor_ok = rotor_ok and np.max(np.abs(rotor_log(rotor_exp(theta)) - theta)) < 1e-10
    # SO(3) homomorphism
    homo_ok = True
    for _ in range(1000):
        a, b = rotor_exp(rng.normal(size=3)), rotor_exp(rng.normal(size=3))
        from qndspin.rotations import rotor_compose

        lhs = so3_from_rotor(rotor_compose(a, b))
        homo_ok = homo_ok and np.max(np.abs(lhs - so3_from_rotor(a) @ so3_from_rotor(b))) < 1e-10
    # distribution normalization
    norm_ok = True
    for n in (1, 7, 100, 5000):
        dist = exact_distribution(MeasurementSetting(0.3 * EZ, 1.1), n)
        norm_ok = norm_ok and abs(float(dist.probs_plus.sum()) - 1.0) < 1e-10
        norm_ok = norm_ok and abs(float(dist.probs_minus.sum()) - 1.0) < 1e-10
    # trajectory determinism
    setting = MeasurementSetting(0.1 * EZ, 1.2)
    rec_a = run(setting, rotor_exp(0.4 * EZ), NuclearState.eigenstate(EZ), 200, 31)
    rec_b = run(setting, rotor_exp(0.4 * EZ), NuclearState.eigenstate(EZ), 200, 31)
    traj_ok = bool(
        np.array_equal(rec_a.outcomes, rec_b.outcomes)
        and np.array_equal(rec_a.final_state.bloch, rec_b.final_state.bloch)
    )
    ok = kraus_ok and rotor_ok and homo_ok and norm_ok and traj_ok
    detail = (
        f"kraus={kraus_ok} rotor={rotor_ok} so3={homo_ok} "
        f"normalization={norm_ok} determinism={traj_ok}"
    )
    _report(11, ok, detail, started, 60.0)


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)
