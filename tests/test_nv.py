import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import qndspin.nv as nv
from qndspin.cascade import critical_n
from qndspin.cli import main
from qndspin.control import solve_waiting_time
from qndspin.measurement import MeasurementSetting, ReadoutModel, binary_stats
from qndspin.nv import (
    PRESETS,
    NvParams,
    _cycle_maps,
    _row_frames,
    _sweep_edges,
    default_tau_grid,
    default_tr_grid,
    nv_system,
    photon_stats,
    room_temp_readout,
    scan_2d,
    tolerance_profile,
)
from qndspin.rotations import rotor_exp, so3_from_rotor
from qndspin.stability import dephasing_map, first_crossing


def small_scan(n_tau=24, n_tr=32, n_max=20_000, **kwargs):
    params = PRESETS["P2"]
    readout = room_temp_readout(0.1, 0.07)
    return scan_2d(
        params,
        default_tau_grid(params, n_tau),
        default_tr_grid(params, n_tr),
        readout,
        n_max=n_max,
        **kwargs,
    )


# ---------------------------------------------------------------- parameters


@pytest.mark.parametrize(
    "name,t_r_ns,t_ns",
    [("P1", 1351, 1088), ("P2", 3061, 1936), ("P3", 3061, 1936)],
)
def test_larmor_periods_reproduce_reference_values(name, t_r_ns, t_ns):
    params = PRESETS[name]
    assert params.larmor_period_wait * 1e9 == pytest.approx(t_r_ns, abs=1.0)
    assert params.larmor_period_dd * 1e9 == pytest.approx(t_ns, abs=1.0)


def test_zero_hyperfine_periods_coincide():
    params = NvParams(b_gauss=305.0, n_dd=6, a_mhz=(0.0, 0.0, 0.0))
    assert params.larmor_period_dd == pytest.approx(params.larmor_period_wait)


def test_nv_system_fields():
    params = PRESETS["P2"]
    sys = nv_system(params)
    assert sys.omega_n < 0.0  # negative 13C gyromagnetic ratio
    np.testing.assert_allclose(sys.a_plus, np.zeros(3))
    # free precession with the electron in m_S = 0 is the bare Larmor rotation
    np.testing.assert_allclose(
        sys.wait_field, [0.0, 0.0, sys.omega_n], atol=abs(sys.omega_n) * 1e-12
    )


def test_params_validation():
    with pytest.raises(ValueError):
        NvParams(b_gauss=-1.0, n_dd=6)
    with pytest.raises(ValueError):
        NvParams(b_gauss=305.0, n_dd=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("b_gauss", math.nan),
        ("b_gauss", math.inf),
        ("gamma_n_mhz_per_t", math.nan),
        ("a_mhz", (0.2, math.nan, 0.3)),
    ],
)
def test_params_reject_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        NvParams(**{"b_gauss": 305.0, "n_dd": 6, field: value})


# ---------------------------------------------------------------- readout


def test_room_temperature_mapping():
    readout = room_temp_readout(0.1, 0.07)
    assert readout.p_plus == pytest.approx(0.1)
    assert readout.p_minus == pytest.approx(0.93)
    assert readout.p_bar == pytest.approx(0.03)
    n_bar, contrast = photon_stats(readout)
    assert n_bar == pytest.approx(0.085)
    assert contrast == pytest.approx(0.176, abs=5e-3)
    assert readout.p_bar == pytest.approx(2 * n_bar * contrast)


def test_perfect_contrast():
    _, contrast = photon_stats(room_temp_readout(0.2, 0.0))
    assert contrast == 1.0


def test_photon_stats_of_a_dark_readout():
    """No photons in either state: n_bar = 0, and the contrast 0 / 0 reads as 0."""
    assert photon_stats(ReadoutModel(0.0, 1.0)) == (0.0, 0.0)


def test_room_temp_validation():
    with pytest.raises(ValueError):
        room_temp_readout(0.07, 0.1)


def test_low_temperature_strength():
    # resonant-excitation fidelities entered directly
    setting = MeasurementSetting(
        np.array([0.0, 0.0, 0.2]), math.pi / 2, readout=ReadoutModel(0.89, 0.99)
    )
    stats = binary_stats(setting)
    assert stats.strength_d / abs(math.sin(0.2)) == pytest.approx(0.9, rel=0.15)


# ---------------------------------------------------------------- scans


def test_scan_shapes_and_grid_order(tmp_path):
    scan = small_scan()
    assert scan.residuals.shape == (24, 32)
    assert scan.lifetimes.shape == (24, 32)
    argv = ["nv-scan", "--preset", "P2", "--n-tdd", "24", "--n-tr", "32", "--n-max", "20000"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    table = np.loadtxt(tmp_path / "scan.csv", delimiter=",", skiprows=1)
    assert table.shape == (24 * 32, 7)
    t_dds, t_rs = table[:, 0].reshape(24, 32), table[:, 1].reshape(24, 32)
    assert (np.diff(t_dds, axis=0) > 0).all() and (np.diff(t_dds, axis=1) == 0).all()
    assert (np.diff(t_rs, axis=1) > 0).all() and (np.diff(t_rs, axis=0) == 0).all()
    np.testing.assert_allclose(t_dds[:, 0], scan.t_dd_grid * 1e9, rtol=1e-11)
    np.testing.assert_allclose(t_rs[0], scan.tr_grid * 1e9, rtol=1e-11)
    np.testing.assert_array_equal(table[:, 6].reshape(24, 32), scan.lifetimes)


@pytest.mark.parametrize("n_max", [0, -5])
def test_scan_refuses_a_horizon_below_one_step(n_max):
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        small_scan(n_tau=2, n_tr=3, n_max=n_max)


def test_scan_contains_high_fidelity_region():
    scan = small_scan()
    qualifying = scan.lifetimes >= scan.n_crit[:, None]
    assert qualifying.any()


def test_n_crit_follows_the_cascade_rule_row_by_row():
    scan = small_scan()
    expected = [math.inf if d == 0.0 else critical_n(d) for d in scan.strengths.tolist()]
    assert scan.n_crit.tolist() == expected


def test_far_detuned_waiting_time_is_short_lived():
    scan = small_scan()
    i = int(np.argmin(np.abs(scan.tau_grid - scan.params.larmor_period_dd)))
    residual_row = scan.residuals[i]
    j_far = int(np.argmax(residual_row))
    assert scan.lifetimes[i, j_far] < scan.n_crit[i]


def test_qnd_root_is_lifetime_divergent():
    params = PRESETS["P2"]
    readout = room_temp_readout(0.1, 0.07)
    tau = params.larmor_period_dd
    probe = scan_2d(params, [tau], default_tr_grid(params, 16), readout, n_max=5_000)
    roots = solve_waiting_time(
        nv_system(params),
        probe.phi_dds[0],
        probe.alpha_vecs[0],
        (probe.tr_grid[0], probe.tr_grid[-1]),
    )
    t_root, res = min(roots, key=lambda r: r[1])
    assert res < 1e-9
    # re-scan with the root placed exactly on the grid
    grid = np.sort(np.append(probe.tr_grid, t_root))
    scan = scan_2d(params, [tau], grid, readout, n_max=5_000)
    j = int(np.argmin(np.abs(scan.tr_grid - t_root)))
    assert scan.residuals[0, j] < 1e-9
    assert math.isinf(scan.lifetimes[0, j])


@pytest.mark.parametrize("n_probes", [1, 7, 500])
def test_cycle_maps_at_gathered_probes_equal_the_scan_grid(n_probes):
    """A tolerance probe on a grid point repeats the scan's map bit for bit."""
    scan = small_scan(n_tau=25, n_tr=64, n_max=10)
    omega_n = scan.params.omega_n
    # the scan carries the per-row frames that the tolerance probes gather
    frames = (scan.hats, scan.r_dds, scan.dephs)
    for carried, rebuilt in zip(frames, _row_frames(scan.alpha_vecs, scan.phi_dds)):
        assert carried.tobytes() == rebuilt.tobytes()
    r_dds, dephs = scan.r_dds, scan.dephs
    totals, maps = _cycle_maps(omega_n, scan.tr_grid, r_dds[:, None], dephs[:, None])
    assert maps.shape == (25, 64, 3, 3)
    rng = np.random.default_rng(n_probes)
    rows, cols = rng.integers(0, 25, n_probes), rng.integers(0, 64, n_probes)
    probe_totals, probe_maps = _cycle_maps(omega_n, scan.tr_grid[cols], r_dds[rows], dephs[rows])
    assert probe_totals.tobytes() == totals[rows, cols].tobytes()
    assert probe_maps.tobytes() == maps[rows, cols].tobytes()


def test_scan_determinism():
    a = small_scan(n_tau=8, n_tr=12, n_max=5_000)
    b = small_scan(n_tau=8, n_tr=12, n_max=5_000)
    np.testing.assert_array_equal(a.lifetimes, b.lifetimes)
    np.testing.assert_array_equal(a.residuals, b.residuals)


# ---------------------------------------------------------------- tolerance


def test_tolerance_profile_structure():
    scan = small_scan(n_tau=12, n_tr=48, n_max=20_000)
    profile = tolerance_profile(scan)
    assert profile.shape == (12, 4)
    measured, worst = profile[:, 1], profile[:, 2]
    # the estimate never exceeds the directly measured width, which sits on
    # the nanosecond scale near resonance
    assert np.all(worst <= measured + 1e-15)
    i_res = int(np.argmin(np.abs(scan.tau_grid - scan.params.larmor_period_dd)))
    assert 0.1e-9 < measured[i_res] < 100e-9


def test_worst_case_width_vanishes_with_alpha():
    readout = room_temp_readout(0.1, 0.07)
    n_bar, contrast = photon_stats(readout)
    t_r_period = PRESETS["P2"].larmor_period_wait
    widths = [
        (t_r_period / math.pi) * math.sqrt(n_bar) * contrast * math.sin(a / 2) ** 2
        for a in (0.1, 0.01, 0.001)
    ]
    assert widths[0] > widths[1] > widths[2]
    assert widths[2] < 1e-3 * widths[0]  # quadratic vanishing in alpha


def test_tolerance_profile_solves_its_rows_in_one_call(monkeypatch):
    """Every row with finite N_c goes into one solve, so per-row calls cannot return."""
    scan = small_scan(n_tau=12, n_tr=48, n_max=20_000)
    calls = []

    def counted(sys, phi_dd, alpha_hat, window):
        calls.append(np.shape(phi_dd))
        return solve_waiting_time(sys, phi_dd, alpha_hat, window)

    monkeypatch.setattr(nv, "solve_waiting_time", counted)
    tolerance_profile(scan)
    assert calls == [(int(np.isfinite(scan.n_crit).sum()), 3)]
    assert calls[0][0] > 1


@pytest.mark.parametrize(
    "tr_grid",
    [[0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 2.0, 1.0], [0.0, math.nan]],
    ids=["one point", "repeated", "decreasing", "unsorted", "nan"],
)
def test_tolerance_profile_refuses_a_bad_tr_grid_before_any_solve(tr_grid, monkeypatch):
    scan = dataclasses.replace(small_scan(n_tau=3, n_tr=4, n_max=500), tr_grid=np.array(tr_grid))

    def unreachable(*args):
        raise AssertionError("solved before the t_R grid was checked")

    monkeypatch.setattr(nv, "solve_waiting_time", unreachable)
    monkeypatch.setattr(nv, "first_crossing", unreachable)
    with pytest.raises(ValueError, match="t_R grid"):
        tolerance_profile(scan)


@pytest.mark.parametrize(
    "grids, name",
    [
        ({"tr_grid": [0.0, math.nan, 1e-7]}, "tr_grid"),
        ({"tr_grid": [0.0, math.inf]}, "tr_grid"),
        ({"tau_grid": [1.9e-6, math.nan]}, "tau_grid"),
    ],
    ids=["nan t_R", "inf t_R", "nan tau"],
)
def test_scan_refuses_non_finite_grids(grids, name):
    """A NaN waiting time made its whole column inf, which reads as the QND ridge."""
    params = PRESETS["P2"]
    args = {"tau_grid": default_tau_grid(params, 2), "tr_grid": default_tr_grid(params, 3), **grids}
    # periods lie in [1/M, M], times are finite and at most M in magnitude
    with pytest.raises(ValueError, match=rf"^{name} must (be finite|lie in \[1e-75, 1e\+75\])"):
        scan_2d(params, args["tau_grid"], args["tr_grid"], room_temp_readout(0.1, 0.07), n_max=50)


@pytest.mark.parametrize("name", ["tau_grid", "tr_grid"])
def test_scan_refuses_an_empty_grid(name):
    params = PRESETS["P2"]
    args = {"tau_grid": default_tau_grid(params, 2), "tr_grid": default_tr_grid(params, 3), name: []}
    with pytest.raises(ValueError, match="scan grids must be non-empty"):
        scan_2d(params, args["tau_grid"], args["tr_grid"], room_temp_readout(0.1, 0.07), n_max=50)


# ----------------------------------------------- edge sweep, synthetic regions


def _union_predicate(regions, probes):
    """``qualifies`` for a union of closed intervals per row; counts each row's probes."""

    def qualifies(rows, times):
        probes.update(rows.tolist())
        probes["rounds"] += 1
        return np.array([any(a <= t <= b for a, b in regions[r]) for r, t in zip(rows, times)])

    return qualifies


def test_sweep_edges_stops_at_the_window_ends_and_bisects_side_by_side():
    window, tol = (0.0, 10.0), 1e-4
    # (start, step, qualifying intervals, boundary, probes of that edge)
    edges = [
        (8.5, 1.0, [(0.0, 10.0)], 10.0, 2),  # accepted at the window end
        (1.5, -1.0, [(0.0, 10.0)], 0.0, 2),
        (8.5, 1.0, [(0.0, 9.7)], 9.7, 2 + 13),  # rejected at the window end: 0.5 to 1e-4
        (1.5, -1.0, [(0.3, 10.0)], 0.3, 2 + 13),
        (2.0, 1.0, [(0.0, 2.25), (3.5, 4.0)], 2.25, 1 + 14),  # rejected inside: 1 to 1e-4
    ]
    starts, steps, regions, expected, counts = zip(*edges)
    probes = Counter()
    rows = np.arange(len(edges))
    qualifies = _union_predicate(regions, probes)
    bounds = _sweep_edges(rows, starts, np.array(steps), window, tol, qualifies)
    assert np.all(np.abs(bounds - expected) <= tol / 2)
    assert bounds[0] == 10.0 and bounds[1] == 0.0
    assert [probes[r] for r in rows] == list(counts)
    assert probes["rounds"] == max(counts)


def test_tolerance_profile_merges_overlapping_intervals(monkeypatch):
    """Two QND roots in one qualifying region seed two intervals that grow to the same
    edges; the row's measured width counts the region once."""
    scan = small_scan(n_tau=3, n_tr=9, n_max=500)
    scan = dataclasses.replace(scan, lifetimes=np.zeros_like(scan.lifetimes))  # no grid seeds
    tr = scan.tr_grid
    spacing = tr[1] - tr[0]
    lo, hi = tr[2] + 0.25 * spacing, tr[5] + 0.5 * spacing
    roots = [(tr[2] + 0.5 * spacing, 0.0), (tr[4] + 0.5 * spacing, 0.0)]  # two spacings apart

    def solve(sys, phi_dd, alpha_hat, window):
        return [roots] * len(phi_dd)

    def first_crossing(times, hats, horizons, diagnostics=None):
        return np.where((lo <= times) & (times <= hi), math.inf, 1.0)

    monkeypatch.setattr(nv, "solve_waiting_time", solve)
    monkeypatch.setattr(nv, "_cycle_maps", lambda omega_n, times, r_dds, dephs: (None, times))
    monkeypatch.setattr(nv, "first_crossing", first_crossing)
    finite = np.isfinite(scan.n_crit)
    assert finite.any()
    measured = tolerance_profile(scan)[:, 1]
    np.testing.assert_allclose(measured[finite], hi - lo, rtol=0, atol=1e-4 * spacing)


def test_sweep_edges_caps_growth_at_64_steps():
    regions = [[(0.0, 100.0)], [(0.0, 100.0)]]
    probes = Counter()
    qualifies = _union_predicate(regions, probes)
    starts, steps = [0.0, 100.0], np.array([1.0, -1.0])
    bounds = _sweep_edges(np.arange(2), starts, steps, (0.0, 100.0), 1e-4, qualifies)
    assert bounds.tolist() == [64.0, 36.0]
    assert probes[0] == probes[1] == probes["rounds"] == 64


def test_sweep_edges_caps_bisection_at_200_halvings():
    # with tol = 0 the pair stalls one ulp apart and only the cap stops it
    probes = Counter()
    qualifies = _union_predicate([[(0.0, 0.3)]], probes)
    bounds = _sweep_edges(np.arange(1), [0.0], np.array([1.0]), (0.0, 10.0), 0.0, qualifies)
    assert probes[0] == 1 + 200
    assert abs(bounds[0] - 0.3) <= 1e-15


# ------------------------------------------------- row-by-row bisection oracle
#
# A scalar-probe search: one waiting time per call, one map application per
# step, one edge after another.  ``tolerance_profile`` probes every pending
# edge of every row in one batched call per round; it must make the same
# decisions and therefore return the same array.  Every probe is appended to
# the list ``probes`` of its row's root seeding or of its edge.


def _reference_reaches(scan, row, t_r, target, probes):
    probes.append(t_r)
    if math.isinf(target):
        return False
    alpha_vec = scan.alpha_vecs[row]
    mag = np.linalg.norm(alpha_vec)
    alpha_hat = alpha_vec / mag if mag > 0 else np.array([0.0, 0.0, 1.0])
    angle = scan.params.omega_n * t_r
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    wait = np.array([[cos_a, -sin_a, 0.0], [sin_a, cos_a, 0.0], [0.0, 0.0, 1.0]])
    step_map = wait @ so3_from_rotor(rotor_exp(scan.phi_dds[row])) @ dephasing_map(alpha_vec)
    state = alpha_hat.copy()
    for _ in range(min(int(target) - 1, scan.n_max)):
        state = step_map @ state
        if float(alpha_hat @ state) <= 1.0 / math.e:
            return False
    return True


def _reference_refine_edge(scan, row, target, t_inside, t_outside, tol, probes):
    for _ in range(200):
        if abs(t_outside - t_inside) <= tol:
            break
        mid = 0.5 * (t_inside + t_outside)
        if _reference_reaches(scan, row, mid, target, probes):
            t_inside = mid
        else:
            t_outside = mid
    return 0.5 * (t_inside + t_outside)


def _reference_grow_edge(scan, row, target, start, step, window, tol, probes):
    lo, hi = window
    inside = start
    outside = None
    probe = start + step
    for _ in range(64):
        if probe < lo or probe > hi:
            boundary = lo if step < 0 else hi
            if _reference_reaches(scan, row, boundary, target, probes):
                return boundary
            outside = boundary
            break
        if _reference_reaches(scan, row, probe, target, probes):
            inside = probe
            probe = probe + step
        else:
            outside = probe
            break
    if outside is None:
        return inside
    return _reference_refine_edge(scan, row, target, inside, outside, tol, probes)


def _reference_tolerance_profile(scan):
    """The profile, and per row the lists of root probes and of each edge's probes."""
    n_bar, contrast = photon_stats(scan.readout)
    t_r_period = scan.params.larmor_period_wait
    tr = scan.tr_grid
    spacing = (tr[-1] - tr[0]) / max(tr.size - 1, 1)
    tol = 1e-4 * spacing
    window = (tr[0], tr[-1])
    sys = nv_system(scan.params)
    out = np.empty((scan.tau_grid.size, 4))
    row_probes = []
    for i in range(scan.tau_grid.size):
        root_probes, edge_probes = [], []
        row_probes.append((root_probes, edge_probes))
        target = scan.n_crit[i]
        worst = (
            (t_r_period / math.pi) * math.sqrt(n_bar) * contrast
            * math.sin(scan.alpha_mags[i] / 2.0) ** 2
        )
        seeds = []
        if math.isfinite(target):
            qual = scan.lifetimes[i] >= target
            j = 0
            while j < tr.size:
                if qual[j]:
                    k = j
                    while k + 1 < tr.size and qual[k + 1]:
                        k += 1
                    seeds.append((tr[j], tr[k]))
                    j = k + 1
                else:
                    j += 1
            roots = solve_waiting_time(
                sys, scan.phi_dds[i], scan.alpha_vecs[i], window
            )
            for t_root, _ in roots:
                if any(lo - spacing <= t_root <= hi + spacing for lo, hi in seeds):
                    continue
                if _reference_reaches(scan, i, t_root, target, root_probes):
                    seeds.append((t_root, t_root))
            seeds.sort()
        intervals = []
        for lo, hi in seeds:
            left_probes, right_probes = [], []
            edge_probes += [left_probes, right_probes]
            left = _reference_grow_edge(scan, i, target, lo, -spacing, window, tol, left_probes)
            right = _reference_grow_edge(scan, i, target, hi, +spacing, window, tol, right_probes)
            intervals.append((left, right))
        merged = []
        for lo, hi in sorted(intervals):
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        out[i] = (scan.t_dd_grid[i], sum(hi - lo for lo, hi in merged), worst, target)
    return out, row_probes


@pytest.mark.parametrize("n_tau,n_tr,n_max", [(12, 48, 20_000), (7, 2, 2_000), (5, 3, 500)])
def test_lockstep_bisection_matches_row_by_row_probes(n_tau, n_tr, n_max):
    # at n_tr = 2 every first outward step leaves the window
    scan = small_scan(n_tau=n_tau, n_tr=n_tr, n_max=n_max)
    diagnostics = Counter()
    profile = tolerance_profile(scan, diagnostics)
    expected, row_probes = _reference_tolerance_profile(scan)
    np.testing.assert_array_equal(profile, expected)
    assert diagnostics["bisection_probes"] > diagnostics["kernel_calls"] > 0
    assert diagnostics["bisection_probes"] == sum(
        len(roots) + sum(map(len, edges)) for roots, edges in row_probes
    )
    # one round per root index, then every edge of every row side by side:
    # probing the edges one after another would need their sum of rounds
    assert diagnostics["kernel_calls"] <= 1 + max(
        len(roots) + max(map(len, edges), default=0) for roots, edges in row_probes
    )


@pytest.mark.parametrize("n_tau,n_tr", [(12, 48), (24, 32)])
def test_measured_width_matches_a_fine_brute_force_scan(n_tau, n_tr):
    """``dtr_measured`` against qualifying points on a 64x finer ``t_R`` grid.

    Each true edge is estimated to within ``tol / 2`` by the bisection (it
    stops with its pair at most ``tol`` apart and returns the midpoint) and
    to within one fine step by the span from the first to the last fine
    point of a qualifying run, so per row the widths differ by at most
    ``n_edges * (tol / 2 + fine_step)``.  A missed region breaks the bound.
    """
    scan = small_scan(n_tau=n_tau, n_tr=n_tr, n_max=20_000)
    measured = tolerance_profile(scan)[:, 1]
    tr = scan.tr_grid
    spacing = (tr[-1] - tr[0]) / (tr.size - 1)
    tol, fine_step = 1e-4 * spacing, spacing / 64
    fine = np.linspace(tr[0], tr[-1], 64 * (tr.size - 1) + 1)
    rows = np.flatnonzero(np.isfinite(scan.n_crit))
    assert np.all(measured[np.isinf(scan.n_crit)] == 0.0)
    index = np.repeat(rows, fine.size)
    times = np.tile(fine, rows.size)
    _, maps = _cycle_maps(scan.params.omega_n, times, scan.r_dds[index], scan.dephs[index])
    horizons = np.minimum(scan.n_crit[index] - 1, scan.n_max).astype(np.int64)
    qual = np.isinf(first_crossing(maps, scan.hats[index], horizons)).reshape(rows.size, fine.size)
    for i, row in zip(rows, qual):
        runs = np.flatnonzero(np.diff(np.concatenate(([False], row, [False])))).reshape(-1, 2)
        brute = float(np.sum(fine[runs[:, 1] - 1] - fine[runs[:, 0]]))
        n_edges = 2 * len(runs)
        assert abs(measured[i] - brute) <= n_edges * (tol / 2 + fine_step), (i, measured[i], brute)
