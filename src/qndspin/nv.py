"""NV-center instantiation: presets, room-temperature readout, 2D scans.

A nitrogen-vacancy electron spin-1 restricted to ``m_S = 0`` (``|+z>``) and
``m_S = -1`` (``|-z>``) couples to a target 13C nuclear spin-1/2.  The
``m_S = 0`` branch carries no hyperfine field, so ``a_plus = 0`` and
``a_minus = -A``, giving the shifted Larmor vector ``omega = omega_n e_z -
A/2`` with ``omega_n = gamma_n B``.  During the waiting time the electron is
re-initialized into ``m_S = 0`` and the nucleus precesses freely about
``e_z`` at the bare ``omega_n`` (equivalently, ``omega + A/2``).

Built-in parameter sets (13C hyperfine vector
``(0.316/sqrt(2), 0.316/sqrt(2), 0.330) MHz``):

    P1:  6 CPMG periods, B = 691 G   (T_R = 1351 ns, T = 1088 ns)
    P2:  6 CPMG periods, B = 305 G   (T_R = 3061 ns, T = 1936 ns)
    P3:  8 CPMG periods, B = 305 G   (T_R = 3061 ns, T = 1936 ns)

Room-temperature fluorescence readout detects zero/nonzero photons with mean
photon numbers ``n_plus`` / ``n_minus`` per shot, giving electron readout
fidelities ``p_plus = n_plus`` and ``p_minus = 1 - n_minus``.

``scan_2d`` maps the lifetime ``N_L`` of the measured eigenstate over the
CPMG duration ``t_dd = N_dd tau`` and the waiting time ``t_r``; together
with the critical count ``N_c = 2 / D**2`` this reproduces the structure of
the stability maps: a ridge of diverging ``N_L`` along the solutions of the
QND condition whose usable width in ``t_r`` is the timing tolerance.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .cascade import critical_n
from .control import _chord_angle, solve_waiting_time
from .hyperfine import MHZ, SpinSystem, cpmg, exact_dd_evolution, extract_alpha_phi
from .measurement import MeasurementSetting, ReadoutModel, binary_stats
from .rotations import M, _checked_int, _divisor, _dot, _finite, _measurement_axis, _vector
from .rotations import rotor_exp, so3_from_rotor
from .stability import dephasing_map, first_crossing, tolerance, tolerance_time

__all__ = [
    "C13_HYPERFINE_MHZ",
    "PRESETS",
    "NvParams",
    "nv_system",
    "room_temp_readout",
    "photon_stats",
    "SCAN_PHI",
    "ScanResult",
    "default_tau_grid",
    "default_tr_grid",
    "scan_2d",
    "tolerance_profile",
]

C13_HYPERFINE_MHZ = (0.316 / math.sqrt(2.0), 0.316 / math.sqrt(2.0), 0.330)

# the scan's electron readout azimuth; tolerance_profile's worst case assumes it
SCAN_PHI = math.pi / 2


@dataclass(frozen=True)
class NvParams:
    """Field, gyromagnetic ratio, hyperfine vector and CPMG period count, refused unless
    ``omega_n``, ``|A|`` and the wait field ``|omega + A/2|`` lie in the domain (``rotations``)."""

    b_gauss: float
    n_dd: int
    gamma_n_mhz_per_t: float = -10.71
    a_mhz: tuple = C13_HYPERFINE_MHZ

    def __post_init__(self):
        _finite(self.b_gauss, "b_gauss")
        _finite(self.gamma_n_mhz_per_t, "gamma_n_mhz_per_t")
        if not np.sqrt(_dot(a := _vector(self.a_mhz, "a_mhz") * MHZ, a)) <= M:
            raise ValueError(f"a_mhz must give |A| of at most {M:g} rad/s, got {self.a_mhz}")
        _checked_int(self.n_dd, "n_dd", 1)
        if self.b_gauss <= 0.0:
            raise ValueError(f"b_gauss must be positive, got {self.b_gauss}")
        _divisor(abs(self.omega_n), "gamma_n_mhz_per_t", "give with b_gauss an |omega_n|")
        # omega_n can round away against A/2 in the wait field, which periods divide by
        wait = np.linalg.norm(nv_system(self).wait_field)
        _divisor(wait, "b_gauss", "give with the other fields a wait field |omega + A/2|")

    @property
    def omega_n(self) -> float:
        """Bare 13C Zeeman frequency (rad/s, signed)."""
        return self.gamma_n_mhz_per_t * (self.b_gauss * 1e-4) * MHZ

    @property
    def larmor_period_wait(self) -> float:
        """T_R = 2 pi / |omega_n| (s)."""
        return 2.0 * math.pi / abs(self.omega_n)

    @property
    def larmor_period_dd(self) -> float:
        """T = 2 pi / |omega| (s)."""
        return nv_system(self).dd_period


def nv_system(params: NvParams) -> SpinSystem:
    """Electron-nuclear system with ``a_plus = 0`` for the ``m_S = 0`` branch."""
    return SpinSystem(
        omega_n=params.omega_n,
        a_plus=np.zeros(3),
        a_minus=-np.asarray(params.a_mhz, dtype=float) * MHZ,
    )


PRESETS = {
    "P1": NvParams(b_gauss=691.0, n_dd=6),
    "P2": NvParams(b_gauss=305.0, n_dd=6),
    "P3": NvParams(b_gauss=305.0, n_dd=8),
}


def room_temp_readout(n_plus: float, n_minus: float) -> ReadoutModel:
    """Readout fidelities of zero/nonzero photon detection.

    ``p_plus = n_plus`` (a photon seen when bright) and ``p_minus = 1 -
    n_minus`` (no photon when dark), for mean photon numbers well below one.
    """
    if not 0.0 <= n_minus <= n_plus <= 1.0:
        raise ValueError("n_plus and n_minus must satisfy 0 <= n_minus <= n_plus <= 1")
    return ReadoutModel(p_plus=n_plus, p_minus=1.0 - n_minus)


def photon_stats(readout: ReadoutModel) -> tuple[float, float]:
    """Invert the photon mapping: mean photon number and contrast."""
    n_plus = readout.p_plus
    n_minus = 1.0 - readout.p_minus
    n_bar = 0.5 * (n_plus + n_minus)
    if n_bar == 0.0:
        return 0.0, 0.0
    return n_bar, (n_plus - n_minus) / (n_plus + n_minus)


def default_tau_grid(params: NvParams, n_points: int = 256, rel_span=(0.95, 1.05)):
    """CPMG periods around the resonance ``tau = T``."""
    period = params.larmor_period_dd
    return np.linspace(rel_span[0] * period, rel_span[1] * period, n_points)


def default_tr_grid(params: NvParams, n_points: int = 256):
    """Waiting times over one bare Larmor period ``[-T_R/2, T_R/2]``."""
    half = 0.5 * params.larmor_period_wait
    return np.linspace(-half, half, n_points)


@dataclass
class ScanResult:
    """Grid scan of residual, strength and lifetime over (t_dd, t_r)."""

    params: NvParams
    readout: ReadoutModel
    n_max: int
    tau_grid: np.ndarray
    tr_grid: np.ndarray
    alpha_vecs: np.ndarray  # (n_tau, 3)
    phi_dds: np.ndarray  # (n_tau, 3)
    strengths: np.ndarray  # (n_tau,)
    n_crit: np.ndarray  # (n_tau,), inf where D = 0
    residuals: np.ndarray  # (n_tau, n_tr)
    lifetimes: np.ndarray  # (n_tau, n_tr), inf = no crossing within n_max
    hats: np.ndarray  # (n_tau, 3), measured axis per row
    r_dds: np.ndarray  # (n_tau, 3, 3), DD rotation per row
    dephs: np.ndarray  # (n_tau, 3, 3), dephasing map per row

    @property
    def t_dd_grid(self) -> np.ndarray:
        return self.params.n_dd * self.tau_grid

    @property
    def alpha_mags(self) -> np.ndarray:
        return np.linalg.norm(self.alpha_vecs, axis=1)


def _cycle_maps(omega_n: float, times, r_dds: np.ndarray, dephs: np.ndarray):
    """Per point ``T = R_z(omega_n t_R) R(phi_dd)`` and the cycle map ``T M``.

    ``times`` broadcasts against the leading axes of the per-row ``r_dds``
    and ``dephs``: rows ``[:, None]`` give the scan grid, gathered rows the
    tolerance probes, with the same bits per point either way.
    """
    angles = omega_n * np.asarray(times, dtype=float)
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    waits = np.zeros(angles.shape + (3, 3))
    waits[..., 0, 0] = waits[..., 1, 1] = cos_a
    waits[..., 1, 0], waits[..., 0, 1] = sin_a, -sin_a
    waits[..., 2, 2] = 1.0
    totals = np.einsum("...ij,...jk->...ik", waits, r_dds)
    return totals, np.einsum("...ij,...jk->...ik", totals, dephs)


def _batched_lifetimes(maps, axes, n_max: int, diagnostics: Counter | None = None):
    """``stability.first_crossing`` with horizon ``n_max``, counting into ``diagnostics``."""
    return first_crossing(maps, axes, n_max, diagnostics)


def _row_frames(alpha_vecs: np.ndarray, phi_dds: np.ndarray):
    """Per row: measured axis, DD rotation matrix and dephasing map."""
    hats = _measurement_axis(alpha_vecs)
    return hats, so3_from_rotor(rotor_exp(phi_dds)), dephasing_map(alpha_vecs)


def scan_2d(
    params: NvParams,
    tau_grid,
    tr_grid,
    readout: ReadoutModel,
    n_max: int = 1_000_000,
    diagnostics: Counter | None = None,
) -> ScanResult:
    """Map residual, strength and lifetime over the (t_dd, t_r) grid.

    Per CPMG duration: exact conditional evolution, extraction of the
    measurement vector and the sequence rotation, strength from the readout
    model at the azimuth ``SCAN_PHI``.  Per waiting time: total cycle
    rotation, QND residual, and the full per-cycle map ``R(phi_total) M``.
    All durations share one batched geometry call, and the lifetimes of all
    grid points one call of ``stability.first_crossing`` with horizon
    ``n_max``.

    ``diagnostics``, when given, is a counter that receives
    ``no_crossing_points`` (no crossing within ``n_max``), the seconds
    before the kernel (``geometry_s``) and in it (``lifetimes_s``), the
    kernel's own ``kernel_calls``, ``certified_points`` and
    ``fallback_points`` (``first_crossing``), and the
    ``worst_alpha_phi_error`` of ``extract_alpha_phi``.
    """
    tau_grid = _divisor(tau_grid, "tau_grid")  # periods
    tr_grid = _finite(tr_grid, "tr_grid")  # a nan column would read as the QND ridge
    if tau_grid.size == 0 or tr_grid.size == 0:
        raise ValueError("scan grids must be non-empty")
    n_max = _checked_int(n_max, "n_max", 1)  # no steps would read as the QND ridge everywhere
    if n_max > np.iinfo(np.int64).max:  # first_crossing's horizon
        raise ValueError(f"n_max must be at most 2**63 - 1, got {n_max}")
    n_tau, n_tr = tau_grid.size, tr_grid.size

    started = time.perf_counter()
    pair = exact_dd_evolution(nv_system(params), cpmg(params.n_dd, tau_grid))
    alpha_vecs, phi_dds = extract_alpha_phi(*pair, diagnostics)

    strengths, n_crit = np.empty(n_tau), np.empty(n_tau)
    for i, alpha_vec in enumerate(alpha_vecs):
        d = strengths[i] = binary_stats(MeasurementSetting(alpha_vec, SCAN_PHI, readout)).strength_d
        n_crit[i] = math.inf if d == 0.0 else critical_n(d)

    hats, r_dds, dephs = _row_frames(alpha_vecs, phi_dds)
    totals, maps = _cycle_maps(params.omega_n, tr_grid, r_dds[:, None], dephs[:, None])
    residuals = _chord_angle(np.einsum("tpij,tj->tpi", totals, hats), hats[:, None, :])
    all_maps, all_axes = maps.reshape(-1, 3, 3), np.repeat(hats, n_tr, axis=0)
    geometry_s, started = time.perf_counter() - started, time.perf_counter()

    lifetimes = _batched_lifetimes(all_maps, all_axes, n_max, diagnostics).reshape(n_tau, n_tr)
    if diagnostics is not None:
        diagnostics["geometry_s"] += geometry_s
        diagnostics["lifetimes_s"] += time.perf_counter() - started
        diagnostics["no_crossing_points"] += int(np.isinf(lifetimes).sum())
    return ScanResult(
        params=params,
        readout=readout,
        n_max=n_max,
        tau_grid=tau_grid,
        tr_grid=tr_grid,
        alpha_vecs=alpha_vecs,
        phi_dds=phi_dds,
        strengths=strengths,
        n_crit=n_crit,
        residuals=residuals,
        lifetimes=lifetimes,
        hats=hats,
        r_dds=r_dds,
        dephs=dephs,
    )


def _sweep_edges(rows, starts, steps, window, tol, qualifies):
    """Boundaries of qualifying regions, grown outward from qualifying ``starts``.

    Edge ``e`` probes row ``rows[e]``.  While growing it steps by ``steps[e]``,
    probing the window end instead of a step past it, for at most 64 steps;
    from its first failing probe on it bisects its inside / outside pair until
    the pair is at most ``tol`` apart or 200 halvings are done.  Each round
    asks ``qualifies(rows, times)`` once, for every unfinished edge.  Returns
    per edge the last inside probe if growing stops inside, else the midpoint
    of the final pair.
    """
    lo, hi = window
    inside = np.array(starts, dtype=float)
    outside = np.full(inside.shape, np.nan)  # NaN while growing
    bounds = np.empty(inside.shape)
    grown = np.zeros(inside.shape, dtype=int)
    halved = np.zeros(inside.shape, dtype=int)
    live = np.arange(inside.size)
    while True:
        done = (np.abs(outside[live] - inside[live]) <= tol) | (halved[live] == 200)
        bounds[live[done]] = 0.5 * (inside[live[done]] + outside[live[done]])
        live = live[~done]
        if live.size == 0:
            return bounds
        growing = np.isnan(outside[live])
        probes = np.where(growing, inside[live] + steps[live], 0.5 * (inside + outside)[live])
        leaving = growing & ((probes < lo) | (probes > hi))
        probes[leaving] = np.where(steps[live[leaving]] < 0, lo, hi)
        ok = qualifies(rows[live], probes)
        inside[live[ok]], outside[live[~ok]] = probes[ok], probes[~ok]
        grown[live] += growing
        halved[live] += ~growing
        stop = growing & ok & (leaving | (grown[live] == 64))
        bounds[live[stop]] = probes[stop]
        live = live[~stop]


def tolerance_profile(scan: ScanResult, diagnostics: Counter | None = None) -> np.ndarray:
    """Per ``t_dd``: measured and worst-case waiting-time tolerances.

    The measured tolerance is the total width of ``{t_r : N_L >= N_c}``.  Off
    the grid, ``N_L >= N_c`` holds when the first ``1/e`` crossing is later
    than ``min(N_c - 1, n_max)`` steps.  Each round of probes, over all rows,
    is one ``stability.first_crossing`` call, whose answers do not depend on
    the batch, so every probe gets the answer a row-by-row search would get:

    * seeds: the maximal runs of qualifying grid points, then the QND-root
      waiting times (for sub-grid-width regions; one ``solve_waiting_time``
      call over the rows with finite ``N_c``) in rounds by root index,
      each skipped if within one grid spacing of a seed;
    * edges: both ends of every seed grow outward and bisect to ``1e-4`` grid
      spacings side by side (``_sweep_edges``); each row's intervals merge.

    The worst-case estimate is ``(T_R / pi) sqrt(n_bar) C sin^2(alpha / 2)``
    from the systematic-error tolerance and the room-temperature strength.

    ``diagnostics``, when given, is a counter that receives the number of
    probes (``bisection_probes``), what each ``first_crossing`` call counts
    (``kernel_calls``, ``certified_points``, ``fallback_points``), the number of
    rows with finite ``N_c - 1 > n_max`` (``rows_capped_by_n_max``, whose
    measured width is that of ``{t_r : N_L > n_max}``), and whose
    ``worst_row_qnd_residual`` is raised to the largest, over the rows with
    finite ``N_c``, of the best QND residual at that row's roots.  Its
    ``closed_form_width_ratio`` is set to the smallest and largest, over
    those rows, of the measured width over the closed form
    ``2 tolerance_time(tolerance(D, alpha, "systematic"))``, that is
    ``2 D |tan(alpha/2)| / |omega + A/2|`` (``None`` without such rows).

    Returns an array with columns ``(t_dd, dtr_measured, dtr_worst_case,
    n_c)``.
    """
    tr = scan.tr_grid
    if tr.size < 2 or not np.all(np.diff(tr) > 0):
        shown = np.array2string(tr, threshold=6)
        raise ValueError(f"the t_R grid must be >= 2 strictly increasing times, got {shown}")
    n_bar, contrast = photon_stats(scan.readout)
    t_r_period = scan.params.larmor_period_wait
    spacing = (tr[-1] - tr[0]) / (tr.size - 1)
    window = (tr[0], tr[-1])
    sys = nv_system(scan.params)
    horizons = np.minimum(scan.n_crit - 1, scan.n_max).astype(np.int64)

    def qualifies(rows, times):
        _, maps = _cycle_maps(scan.params.omega_n, times, scan.r_dds[rows], scan.dephs[rows])
        if diagnostics is not None:
            diagnostics["bisection_probes"] += rows.size
        return np.isinf(first_crossing(maps, scan.hats[rows], horizons[rows], diagnostics))

    finite = np.isfinite(scan.n_crit)
    solved = iter(solve_waiting_time(sys, scan.phi_dds[finite], scan.alpha_vecs[finite], window))
    roots = [next(solved) if is_finite else [] for is_finite in finite]
    if diagnostics is not None:
        worst = max((min(r for _, r in row) for row in roots if row), default=0.0)
        diagnostics["worst_row_qnd_residual"] = max(worst, diagnostics["worst_row_qnd_residual"])
        diagnostics["rows_capped_by_n_max"] += int((finite & (scan.n_crit - 1 > scan.n_max)).sum())

    seeds = [[] for _ in roots]
    qual = (scan.lifetimes >= scan.n_crit[:, None]) & finite[:, None]
    runs, cols = np.nonzero(np.diff(np.pad(qual, ((0, 0), (1, 1))), axis=1))
    for i, j, k in zip(runs[::2], cols[::2], cols[1::2] - 1):
        seeds[i].append((tr[j], tr[k]))
    for k in range(max(map(len, roots), default=0)):
        asked = [
            (i, row[k][0])
            for i, row in enumerate(roots)
            if k < len(row)
            and not any(lo - spacing <= row[k][0] <= hi + spacing for lo, hi in seeds[i])
        ]
        if asked:
            rows, times = (np.array(column) for column in zip(*asked))
            ok = qualifies(rows, times)
            for i, t in zip(rows[ok], times[ok]):
                seeds[i].append((t, t))

    seeds = [sorted(row) for row in seeds]
    rows = np.repeat(np.arange(len(seeds)), [2 * len(row) for row in seeds])
    starts = [t for row in seeds for seed in row for t in seed]
    steps = np.tile([-spacing, spacing], len(starts) // 2)
    edges = iter(_sweep_edges(rows, starts, steps, window, 1e-4 * spacing, qualifies).tolist())
    intervals = zip(edges, edges)
    measured = []
    for row in seeds:
        merged: list[list[float]] = []
        for lo, hi in sorted(next(intervals) for _ in row):
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        measured.append(sum(hi - lo for lo, hi in merged))

    worst = [
        (t_r_period / math.pi) * math.sqrt(n_bar) * contrast * math.sin(mag / 2.0) ** 2
        for mag in scan.alpha_mags
    ]
    if diagnostics is not None:
        ratios = [
            width / (2.0 * tolerance_time(tolerance(d, mag, "systematic"), sys))
            for width, d, mag, is_finite in zip(measured, scan.strengths, scan.alpha_mags, finite)
            if is_finite
        ]
        diagnostics["closed_form_width_ratio"] = [min(ratios), max(ratios)] if ratios else None
    return np.column_stack((scan.t_dd_grid, measured, worst, scan.n_crit))

