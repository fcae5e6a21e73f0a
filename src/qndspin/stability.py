"""Unconditional dynamics when the QND condition is violated.

Averaged over outcomes, one binary measurement maps the nuclear polarization
``n`` to ``M n`` with the dephasing matrix ``M = [R(alpha_vec) +
R(-alpha_vec)] / 2``: the component along the measurement axis survives and
the perpendicular components shrink by ``cos(alpha)``.  A per-cycle rotation
error ``delta_phi_i`` then iterates

    a(N) = R(delta_phi_N) M ... R(delta_phi_1) M a(0),       a(0) = alpha_hat,

and the survival of the measured eigenstate is ``S(N) = alpha_hat . a(N)``.
The lifetime ``N_L`` is the first ``N`` where ``S(N)`` reaches ``1/e``
(``inf`` if it never does within the horizon; oscillatory cases such as the
``alpha = pi`` echo may never cross).  ``inf`` means that and nothing else:
the public functions refuse inputs outside the domain of the ``rotations``
docstring at entry (a projective ``D = inf`` and its infinite tolerance aside).

Small-error closed forms, for the worst case of a fixed error axis
perpendicular to the measurement axis:

* systematic ``delta_phi``:  ``S(N) ~ exp(-N dphi^2 / (2 tan^2(alpha/2)))``
* iid random ``delta_phi_i`` of std ``dphi`` (ensemble mean):
  ``S(N) = exp(-N dphi^2 / 2)``, independent of ``alpha``
* exactly, ``cos(alpha) = 0``:  ``S(N) = prod_i cos(dphi_i)``
* exactly, ``cos(alpha) = -1``: ``S(N) = cos(sum_i (-1)^i dphi_i)`` (echo)

Keeping ``N_L`` above the critical count ``2 / D**2`` bounds the tolerable
error: ``dphi <= D |tan(alpha/2)|`` (systematic) or ``dphi <= D`` (random),
which translates into a waiting-time tolerance ``dphi / |omega + A/2|``.

Whenever the per-cycle map ``G`` is the same every cycle (a systematic error,
or a point of an NV scan), every lifetime comes from one kernel,
``first_crossing``, which returns the first ``N`` with ``a . G^N a <= 1/e``
for a batch of points at once.  It walks the steps in chunks of ``k``: with
the rows ``c_j = a^T G^j`` (``j = 1..k``) and the state ``G^N0 a``,
``S(N0 + j) = c_j . G^N0 a`` for the whole chunk is one product, and ``G^k``
moves the state on.  The walk starts at ``k = 1`` from ``c_1 = a^T G``;
after each chunk below ``MAX_CHUNK`` the rows and the power double,
``c[m:2m] = c[:m] G^m`` and ``G^2m = G^m G^m``, so the chunks are steps
1 | 2-3 | 4-7 | ... | 256-511, and every later chunk has ``MAX_CHUNK``
steps.  Most points cross in the short early chunks and leave the walk.
Every point gets the same schedule, and every step is elementwise per
point, so a point's lifetime does not depend on which other points share
the call.  The systematic branch of ``survival_curve`` doubles the same
rows up to ``MAX_CHUNK`` to emit the whole curve ``S(0..N)``.

The walk need not run to the horizon: after step 63 a point is decided
from its dominant eigenpair where that is sure, at the step the walk would
return (``first_crossing`` states when, and why no byte can change).
Given a counter, ``first_crossing`` counts its own work into it: one
``kernel_calls`` per call, and the points the certificate decided
(``certified_points``) and left to the walk (``fallback_points``).  The
scan and tolerance probes of ``nv`` pass their manifest counter through.

Random errors ``delta_phi_i = g_i e`` about a fixed axis ``e`` change the map
every cycle, but only by a turn about ``e``.  Their kernel works in the frame
``F = (e1, e2, e)`` of ``trajectory._axis_frame``, with the state as three
coordinates ``x, y, z``.  Its cycle body, written once in ``+ - *``, applies
``M' = F M F^T`` as scalar products that skip its exact zeros, then the 2-D
turn ``x' = c x - s y``, ``y' = s x + c y`` by the drawn angle (``z``
untouched), and reads ``S`` off along ``F a``.  ``trajectory._slices`` runs
that body 64 cycles at a time, with the cos and sin of each slice taken by
numpy: on Python floats for one row (the random branch of
``survival_curve``) and on arrays for many (``survival_ensemble``, one row
per seed).  Each float operation rounds as the array element's does, so a
curve drawn from ``SeedSequence(m).spawn(n)[i]`` is row ``i`` of the
ensemble bit for bit.  ``survival_ensemble`` reduces each slice over the
seeds as it comes, so the full survival matrix is never held.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .hyperfine import SpinSystem
from .rotations import M, _checked_int, _divisor, _finite, _measurement_axis, _unit_axis, _vector
from .rotations import rotor_exp, so3_from_rotor
from .trajectory import _apply, _axis_frame, _child_generators, _frame_terms, _slices

__all__ = [
    "RotationErrorModel",
    "SurvivalCurve",
    "dephasing_map",
    "first_crossing",
    "survival_curve",
    "survival_ensemble",
    "lifetime",
    "analytic_survival",
    "tolerance",
    "tolerance_time",
]

# Chunk length K (a power of two) that the doubling chunks grow to.
MAX_CHUNK = 256
# Chunk length at which the points still walking are decided from their spectrum.
CERTIFY_CHUNK = 64
# Margin about 1/e inside which no certificate decides a step.
DELTA = 1e-9


def dephasing_map(alpha_vec) -> np.ndarray:
    """Matrices ``[R(alpha_vec) + R(-alpha_vec)] / 2``, one per row of ``alpha_vec``.

    Fixes the measurement axis and scales perpendicular components by
    ``cos(|alpha_vec|)``.
    """
    alpha_vec = _vector(alpha_vec, "alpha_vec", stacked=True)
    return 0.5 * (so3_from_rotor(rotor_exp(alpha_vec)) + so3_from_rotor(rotor_exp(-alpha_vec)))


def _checked_std(std) -> float:
    std = float(std)
    if not 0.0 <= std <= M:
        raise ValueError(f"std must be nonnegative and at most {M:g}, got {std}")
    return std


@dataclass
class RotationErrorModel:
    """Per-cycle rotation error.

    kinds:
      * ``systematic``: the same ``delta_phi`` vector (one finite 3-vector)
        every cycle; ``std`` stays 0 and ``seed`` unset.
      * ``random``: ``delta_phi_i = g_i * axis`` with iid Gaussian ``g_i`` of
        standard deviation ``std`` about a fixed ``axis``; ``seed`` (an int
        or a ``SeedSequence``) is mandatory and ``delta_phi`` unset.
    """

    kind: str
    delta_phi: np.ndarray | None = None
    std: float = 0.0
    axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    seed: int | np.random.SeedSequence | None = None

    def __post_init__(self):
        if self.kind not in ("systematic", "random"):
            raise ValueError(f"unknown error kind {self.kind!r}")
        if self.kind == "systematic":
            if self.delta_phi is None:
                raise ValueError("systematic errors need delta_phi")
            self.delta_phi = _vector(self.delta_phi, "delta_phi")
            if self.std != 0.0 or self.seed is not None:
                raise ValueError("systematic errors take no std or seed")
        else:
            if self.delta_phi is not None:
                raise ValueError("random errors take no delta_phi")
            if self.seed is None:
                raise ValueError("seed must be given for random errors")
            self.std = _checked_std(self.std)
            self.axis = _unit_axis(self.axis, "axis")


@dataclass
class SurvivalCurve:
    """``S(0 .. n_max)`` and the first ``1/e`` crossing."""

    values: np.ndarray
    lifetime: int | float


def survival_curve(alpha_vec, error: RotationErrorModel, n_max: int) -> SurvivalCurve:
    """Iterate the dephasing-plus-error map and record ``S(N)``.

    A systematic error gives a fixed per-cycle map, whose curve comes from the
    chunked rows of the first-crossing kernel.  A random error is one row of
    the fixed-axis kernel (module docstring): with the seed
    ``SeedSequence(m).spawn(n)[i]`` the curve equals row ``i`` of
    ``survival_ensemble(..., n_seeds=n, master_seed=m)`` bit for bit.
    """
    n_max = _checked_int(n_max, "n_max", 1)
    alpha_vec = _vector(alpha_vec, "alpha_vec")
    if error.kind == "random":
        angles = np.random.default_rng(error.seed).normal(0.0, error.std, size=(1, n_max))
        values = np.concatenate(list(_fixed_axis_survivals(alpha_vec, error.axis, angles)))[:, 0]
        return SurvivalCurve(values, lifetime(values))
    step = so3_from_rotor(rotor_exp(error.delta_phi)) @ dephasing_map(alpha_vec)
    values = _survival_values(step, _measurement_axis(alpha_vec), n_max)
    return SurvivalCurve(values, lifetime(values))


def survival_ensemble(
    alpha_vec,
    std: float,
    axis,
    n_max: int,
    n_seeds: int,
    master_seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble mean and standard error of ``S(N)`` for iid random errors.

    Instance ``i`` draws its error angles from the seed
    ``SeedSequence(master_seed).spawn(n_seeds)[i]`` and is row ``i`` of one
    call of the fixed-axis kernel (module docstring), so it equals
    ``survival_curve`` with the corresponding random-kind model bit for bit.
    ``master_seed`` must be an integer >= 0.  That child has the spawn key
    ``(i,)``, so its stream comes from ``trajectory._child_generators``
    (batched seed-sequence hashes, one ``Generator`` per instance) with no
    ``SeedSequence`` object per instance; the contract is unchanged.
    Each slice of the kernel's survivals is reduced as it comes, row by row
    as one whole-matrix reduction would, so the ``(n_max + 1, n_seeds)``
    matrix is never built and only the ``(n_seeds, n_max)`` angles are.
    """
    n_max = _checked_int(n_max, "n_max", 1)
    n_seeds = _checked_int(n_seeds, "n_seeds", 2)  # two at least, for a standard error
    alpha_vec = _vector(alpha_vec, "alpha_vec")
    std = _checked_std(std)
    axis = _unit_axis(axis, "axis")
    master_seed = _checked_int(master_seed, "master seed", 0)
    angles = np.empty((n_seeds, n_max))
    for i, gen in enumerate(_child_generators(master_seed, n_seeds)):
        angles[i] = gen.normal(0.0, std, n_max)
    mean, stderr = np.empty(n_max + 1), np.empty(n_max + 1)
    first = 0
    for block in _fixed_axis_survivals(alpha_vec, axis, angles):
        stop = first + len(block)
        mean[first:stop] = block.mean(axis=1)
        stderr[first:stop] = block.std(axis=1, ddof=1) / math.sqrt(n_seeds)
        first = stop
    return mean, stderr


def _fixed_axis_survivals(alpha_vec, axis: np.ndarray, angles: np.ndarray):
    """The fixed-axis random-error kernel: one row per error sequence.

    ``axis`` is the unit error axis and row ``i`` of ``angles`` holds
    sequence ``i``'s angles in cycle order.  Yields ``S(0..n_max)`` in
    blocks of shape ``(width, rows)``: ``S(0)`` alone, then one block per
    slice of 64 cycles, so concatenating them gives the ``(n_max + 1, rows)``
    matrix.  The cos and sin of a slice are numpy calls on its transposed
    copy, and the cycle body runs through ``trajectory._slices`` (module
    docstring).
    """
    alpha_vec = np.asarray(alpha_vec, dtype=float)
    frame = _axis_frame(axis)
    start = frame @ _measurement_axis(alpha_vec)
    terms = _frame_terms(frame @ dephasing_map(alpha_vec) @ frame.T)
    readout = _frame_terms(start[None])

    def cycle(state, c, s, pick):
        nx, ny, nz = _apply(terms, state)
        x, y = c * nx - s * ny, s * nx + c * ny
        return (x, y, nz), _apply(readout, (x, y, nz))[0]

    rows = len(angles)
    yield np.ones((1, rows))
    state = [np.full(rows, value) for value in start]

    def cos_sin(theta):
        return np.cos(theta), np.sin(theta, out=theta)  # sin overwrites the copy after cos

    yield from _slices(angles, state, cos_sin, cycle)


def _double(rows: np.ndarray, power: np.ndarray, flat: np.ndarray):
    """Rows ``a^T G^j`` for ``j = 1..2m`` and ``G^2m`` from those for ``1..m`` and ``G^m``.

    ``rows`` has shape ``(P, m, 3)`` and ``flat`` is ``power`` rounded to
    float64.  The power is squared in extended precision where the platform
    has it: it moves the state once per chunk, so its rounding error would
    otherwise grow coherently along the curve.
    """
    return np.concatenate((rows, rows @ flat), axis=1), power @ power


def first_crossing(maps, axes, horizon, diagnostics: Counter | None = None) -> np.ndarray:
    """First ``N`` in ``1..horizon`` with ``a . G^N a <= 1/e``, per point.

    ``maps`` has shape ``(P, 3, 3)`` (the per-cycle maps ``G``), ``axes``
    shape ``(P, 3)`` (the measured axes ``a``) and ``horizon`` is an integer
    or one integer per point.  Points that do not cross within their horizon
    get ``inf``; maps and axes outside the domain of the ``rotations``
    docstring, zero axes, other shapes and a horizon that is not of an
    integer dtype or exceeds ``2**63 - 1`` are refused.

    Steps are evaluated a chunk of ``k`` at a time from the rows ``a^T G^j``
    (see the module docstring), with ``k = 1, 2, 4, ...`` doubling up to
    ``MAX_CHUNK`` and fixed after that, so the chunks are steps 1 | 2-3 |
    4-7 | ... | 256-511 | 512-767 | ...  This orders the floating-point
    operations differently from a step-by-step loop: a point whose ``S(N)``
    lies within rounding error of ``1/e`` can move by one step against it.

    After step 63, each point whose horizon reaches past the next chunk
    (steps 64-127) is decided from its spectrum where that is sure.  With
    the dominant eigenvalue ``l1``, ``S(N) = c1 l1^N + r(N)`` with ``|r(N)|
    <= T(N)`` (``_spectral_lifetimes`` gives the bounds and their error
    budget).  The point never crosses if ``c1 l1^N - T(N)`` stays more than
    ``DELTA`` above ``1/e`` up to its horizon; it crosses at ``N* =
    ceil(log(1/(e c1)) / log l1)`` if that lower bound stays more than
    ``DELTA`` above ``1/e`` before ``N*`` and the upper bound ``c1 l1^N* +
    T(N*)`` lies more than ``DELTA`` below it.  Every other point keeps
    walking: a complex or negative dominant eigenvalue, an ill-conditioned
    eigenvector pair (an error budget of ``DELTA / 2`` or more), a margin
    inside ``DELTA`` or a rest ``T(64)`` that is not far below it.  The
    walk's rounding (about 1e-13 after 1e6 steps) and the bounds' error
    each stay within ``DELTA / 2`` of the exact ``S(N)``, so where the
    certificate decides, the walk gives the same step: no lifetime, and no
    CSV byte, depends on which of the two decided it.  Every point gets the
    same schedule and the certificate is per point, so each lifetime
    depends only on its own map, axis and horizon, not on the batch.

    ``diagnostics``, when given, is a counter that receives ``kernel_calls``
    (1), and the points the certificate decided (``certified_points``) and
    left to the walk (``fallback_points``).  No lifetime depends on it.
    """
    maps, axes = _finite(maps, "maps"), _finite(axes, "axes")
    if axes.ndim != 2 or axes.shape[1] != 3:
        raise ValueError(f"axes must have shape (P, 3), got {axes.shape}")
    if maps.shape != (len(axes), 3, 3):
        raise ValueError(f"maps must have shape (P, 3, 3) for P = {len(axes)}, got {maps.shape}")
    if not axes.any(axis=-1).all():
        raise ValueError("axes must be nonzero")
    horizon = np.asarray(horizon)
    # a float horizon would be truncated and a bool read as 1
    if horizon.dtype.kind not in "iu" or horizon.shape not in ((), (1,), axes.shape[:1]):
        got = f"dtype {horizon.dtype}, shape {horizon.shape}"
        raise ValueError(f"horizon must be one integer or one per point ({len(axes)}), got {got}")
    if (horizon > np.iinfo(np.int64).max).any():  # a uint64 one would wrap below 0
        raise ValueError(f"horizon must be at most 2**63 - 1, got {horizon.max()}")
    horizon = np.broadcast_to(horizon.astype(np.int64), axes.shape[:1])
    threshold = 1.0 / math.e
    lifetimes = np.full(axes.shape[0], math.inf)
    index = np.nonzero(horizon >= 1)[0]
    states, horizon, power = axes[index], horizon[index], maps[index].astype(np.longdouble)
    rows, flat = np.einsum("pi,pij->pj", states, maps[index])[:, None], power.astype(float)
    step, k, certified, fallback = 0, 1, 0, 0
    while index.size:
        decided = np.zeros(index.size, dtype=bool)
        if k == CERTIFY_CHUNK:
            asked = np.nonzero(horizon > step + k)[0]
            picked = index[asked]
            found = _spectral_lifetimes(
                maps[picked], axes[picked], power[asked], step + 1, horizon[asked]
            )
            sure = ~np.isnan(found)
            decided[asked[sure]] = True
            lifetimes[picked[sure]] = found[sure]
            certified, fallback = int(sure.sum()), int((~sure).sum())
        # S(step + 1 .. step + k), masked beyond each point's horizon
        below = np.einsum("pkj,pj->pk", rows, states) <= threshold
        if step + k > horizon.min():
            below &= np.arange(1, k + 1) <= horizon[:, None] - step
        crossed = below.any(axis=1) & ~decided
        keep = ~crossed & ~decided & (horizon > step + k)
        if not keep.all():
            # points leave when they cross, reach their horizon or are decided
            lifetimes[index[crossed]] = step + 1 + below[crossed].argmax(axis=1)
            index, states, horizon, rows, power, flat = (
                a[keep] for a in (index, states, horizon, rows, power, flat)
            )
        states = np.einsum("pij,pj->pi", flat, states)
        step += k
        if k < MAX_CHUNK:
            rows, power = _double(rows, power, flat)
            flat = power.astype(float)
            k *= 2
    if diagnostics is not None:
        diagnostics.update(kernel_calls=1, certified_points=certified, fallback_points=fallback)
    return lifetimes


def _cofactors(b: np.ndarray) -> np.ndarray:
    """Cofactor matrix of each 3x3 ``b``: row ``i`` is row ``i+1`` x row ``i+2``.

    For a singular ``b`` of rank 2 every row is a right null vector and
    every column a left null vector.
    """
    ahead, after = b[:, [1, 2, 0]], b[:, [2, 0, 1]]  # rows i+1 and i+2
    turn, back = [1, 2, 0], [2, 0, 1]
    return ahead[..., turn] * after[..., back] - ahead[..., back] * after[..., turn]


def _spectral_lifetimes(maps, axes, power, first, horizon) -> np.ndarray:
    """Lifetimes by ``first_crossing``'s certificate, ``nan`` where it does not decide.

    No step before ``first`` crosses, ``horizon`` is each point's last step
    and ``power`` is the walk's ``G^first`` in extended precision.  The
    bounds: with the dominant eigenvalue ``l1`` and its right and left
    eigenvectors ``v``, ``w``, ``c1 = (a.v)(w.a)/(w.v)``.  The other two
    eigenvalues, a conjugate pair or two real ones, have the sum ``s = tr G
    - l1`` and the product ``q`` (from ``tr G`` and ``tr G^2``), so ``r(N +
    2) = s r(N + 1) - q r(N)``; with ``p`` their larger modulus and ``u =
    r(1) - s r(0) / 2``, ``|r(N)| <= T(N) = (|r(0)| p + N |u|) p^(N - 1)``,
    which falls with ``N`` from ``first`` on when ``p <= first / (first +
    1)``.  The eigenpair starts from ``G^first`` applied to ``a`` and is
    polished by one round of inverse iteration (the null vectors of ``G -
    l1 I`` are its cofactors) and the two-sided Rayleigh quotient, in
    extended precision.  The error budget: the bounds' own error (``l1``'s
    from its residual and condition ``cond = |v||w| / |w.v|``, ``c1``'s from
    the same over the gap ``l1 - p``) plus the walk's, ``4 cond^2 eps``
    relative per chunk of ``MAX_CHUNK`` steps from the float64 chunk power
    and state.
    """
    ld = np.longdouble
    g, a = maps.astype(ld), axes.astype(ld)
    with np.errstate(all="ignore"):  # a failed eigenpair gives inf or nan, which no test passes
        v, w = np.einsum("pij,pj->pi", power, a), np.einsum("pi,pij->pj", a, power)
        lam = (w * np.einsum("pij,pj->pi", g, v)).sum(axis=1) / (w * v).sum(axis=1)
        cof = _cofactors(g - lam[:, None, None] * np.eye(3, dtype=ld))
        pick = np.arange(len(g))
        v = cof[pick, np.abs(cof).sum(axis=2).argmax(axis=1)]
        w = cof[pick, :, np.abs(cof).sum(axis=1).argmax(axis=1)]
        gv, wv = np.einsum("pij,pj->pi", g, v), (w * v).sum(axis=1)
        lam = (w * gv).sum(axis=1) / wv
        v_norm, w_norm = np.sqrt((v * v).sum(axis=1)), np.sqrt((w * w).sum(axis=1))
        cond = v_norm * w_norm / np.abs(wv)
        residual = np.sqrt(((gv - lam[:, None] * v) ** 2).sum(axis=1)) / v_norm
        lam_error = cond * (residual + 8 * np.finfo(ld).eps * np.abs(g).sum(axis=(1, 2)))
        c1 = (a * v).sum(axis=1) * (w * a).sum(axis=1) / wv
        trace = np.trace(g, axis1=1, axis2=2)
        s = trace - lam
        q = (trace * trace - (g * g.swapaxes(1, 2)).sum(axis=(1, 2))) / 2 - lam * s
        h2 = s * s / 4 - q  # the pair is s/2 +- sqrt(h2)
        p = np.where(h2 < 0, np.sqrt(np.abs(q)), np.abs(s) / 2 + np.sqrt(np.abs(h2)))
        r0 = (a * a).sum(axis=1) - c1
        u = np.abs((a * np.einsum("pij,pj->pi", g, a)).sum(axis=1) - c1 * lam - s * r0 / 2)
        log_lam, log_p = np.log(lam), np.log(p)

        def lead(n):
            return c1 * np.exp(n * log_lam)

        def rest(n):
            return (np.abs(r0) * p + n * u) * np.exp((n - 1) * log_p)

        threshold, rest_first = 1.0 / math.e, rest(first)
        # never: the lower bound's minimum over first..horizon stays above 1/e
        at_end = lead(horizon)
        never = np.minimum(lead(first), at_end) - rest_first > threshold + DELTA
        # or a crossing at N*: above 1/e before it, below it at N*
        crossing = np.ceil(np.log(threshold / c1) / log_lam)
        at = np.where(np.isfinite(crossing), np.clip(crossing, first, horizon), horizon)
        at = at.astype(np.int64)
        at_crossing = lead(at)
        crosses = (
            (crossing >= first)
            & (crossing <= horizon)
            & ((at == first) | (at_crossing / lam - rest_first > threshold + DELTA))
            & (at_crossing + rest(at) < threshold - DELTA)
        )
        last = np.where(never, horizon, at)
        walk = 4 * cond**2 * np.finfo(float).eps * (last // MAX_CHUNK + 8)
        own = last * lam_error / lam + cond * lam_error / (lam - p)
        peak = np.maximum(c1, np.where(never, at_end, at_crossing))  # c1 l1^N over 0..last
        sure = (lam > 0) & (c1 > 0) & (p <= lam) & (p <= first / (first + 1))
        sure &= (never | crosses) & (peak * (own + walk) < DELTA / 2)
    return np.where(sure, np.where(never, math.inf, at), np.nan)


def _survival_values(step_map: np.ndarray, axis: np.ndarray, n_max: int) -> np.ndarray:
    """``S(0..n_max) = a . G^N a`` for one fixed map, ``K`` values per product."""
    k = MAX_CHUNK
    rows = np.einsum("pi,pij->pj", axis[None], step_map[None])[:, None]
    power = step_map[None].astype(np.longdouble)
    while rows.shape[1] < k:
        rows, power = _double(rows, power, power.astype(float))
    rows, power = rows[0], power[0].astype(float)
    values = np.empty(n_max + 1)
    values[0] = 1.0
    state = axis
    for start in range(1, n_max + 1, k):
        stop = min(start + k, n_max + 1)
        values[start:stop] = (rows @ state)[: stop - start]
        state = power @ state
    return values


def lifetime(values) -> int | float:
    """Smallest ``N`` with ``S(N) <= 1/e``; ``inf`` when none in range."""
    values = _finite(values, "values")
    crossed = np.nonzero(values <= 1.0 / math.e)[0]
    return int(crossed[0]) if crossed.size else math.inf


def _half_tan(alpha_mag: float) -> float:
    """``tan(alpha_mag / 2)``, whose square the systematic laws divide by; 0 is refused."""
    if (half_tan := math.tan(alpha_mag / 2.0)) ** 2 == 0.0:
        raise ValueError(f"alpha_mag must have a nonzero tan(alpha_mag / 2)**2, got {alpha_mag}")
    return half_tan


def analytic_survival(kind: str, alpha_mag: float, delta_phi: float, n) -> np.ndarray:
    """Closed-form survival laws for a perpendicular error axis.

    ``systematic`` and ``random`` are the small-error exponentials quoted in
    the module docstring; ``dephasing_exact`` (``cos alpha = 0``) and
    ``echo_exact`` (``cos alpha = -1``) are the exact special cases for a
    constant error angle.
    """
    _finite(alpha_mag, "alpha_mag")
    _finite(delta_phi, "delta_phi")
    n = _finite(n, "n")
    if kind in ("systematic", "random"):
        scale = 2.0 * _half_tan(alpha_mag) ** 2 if kind == "systematic" else 2.0
        with np.errstate(over="ignore"):  # an exponent beyond the float range decays to 0
            return np.exp(-n * delta_phi**2 / scale)
    if kind == "dephasing_exact":
        return np.cos(delta_phi) ** n
    if kind == "echo_exact":
        signed = np.where(np.asarray(n).astype(int) % 2 == 0, 0.0, delta_phi)
        return np.cos(signed)
    raise ValueError(f"unknown analytic survival kind {kind!r}")


def tolerance(strength_d: float, alpha_mag: float, kind: str) -> float:
    """Largest per-cycle error keeping ``N_L`` above the critical count."""
    if strength_d != math.inf:
        _divisor(strength_d, "strength_d", "be positive: inf, or")
    _finite(alpha_mag, "alpha_mag")
    if kind == "systematic":
        return strength_d * abs(_half_tan(alpha_mag))
    if kind == "random":
        return strength_d
    raise ValueError(f"unknown tolerance kind {kind!r}")


def tolerance_time(delta_phi_tol: float, sys: SpinSystem) -> float:
    """Waiting-time tolerance ``delta_phi / |omega + A/2|`` in seconds."""
    if not (0.0 <= delta_phi_tol <= M or delta_phi_tol == math.inf):  # a projective D's
        raise ValueError(f"delta_phi_tol must lie in [0, {M:g}] or be inf, got {delta_phi_tol}")
    rate = _divisor(np.linalg.norm(sys.wait_field), "sys", "give a wait field |omega + A/2|")
    return delta_phi_tol / float(rate)
