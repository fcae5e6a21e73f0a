"""Engineering the inter-measurement rotation to satisfy the QND condition.

Each measurement cycle leaves the nucleus with a net rotation
``exp(-i phi . I) = exp(-i phi_R . I) exp(-i phi_dd . I)``: the rotation
``phi_dd`` accumulated during the control sequence followed by the
waiting-time rotation ``phi_R``, which is tunable through the waiting
duration.  The measurement is QND when this net rotation preserves the
measured eigenstates, i.e. when ``R(phi)`` fixes the measurement axis
``alpha_hat``.  Both textbook branches of the condition (``|phi| = 0 mod 2
pi`` or ``phi || alpha_hat``) collapse into one scalar objective, the angle
between ``alpha_hat`` and its image under ``R(phi)``, taken from their chord
by ``_chord_angle`` (which ``nv`` uses as well).

The wait is free precession about ``w = omega + A/2``, so the objective is
a sinusoid in the precession angle: ``solve_waiting_time`` returns its
minima in closed form, one per period, with no numeric search.  It takes
``phi_dd`` and ``alpha_hat`` rows of any batch shape ``(..., 3)`` and
solves them all in the same array operations; each row gets the bits of
its one-row call, by the rules of the ``rotations`` docstring.

For sequences built by repeating an even-order concatenation (CPMG is the
order-2 case) the condition is reachable by tuning the waiting time alone;
for odd orders (e.g. the periodic sequence) the residual is generically
bounded away from zero.  ``decompose_joint`` and ``split_conditional``
implement the two product identities behind that classification.
"""

from __future__ import annotations

import math

import numpy as np

from .hyperfine import DDSequence, SpinSystem, extract_alpha_phi
from .rotations import _ATAN2, _NEXT, _PREV, Rotor, _dot, _finite, _unit_axis, rotor_compose
from .rotations import rotor_exp, rotor_log_full, so3_from_rotor

__all__ = [
    "qnd_residual",
    "solve_waiting_time",
    "concatenated_dd",
    "decompose_joint",
    "split_conditional",
]


def _chord_angle(moved, start) -> np.ndarray:
    """Angle between unit vectors ``start`` and ``moved`` along the last axis.

    Evaluated through the chord length ``2 asin(|moved - start| / 2)``, which
    equals ``arccos(start . moved)`` but stays accurate down to ~1e-15 rad.
    """
    return 2.0 * np.arcsin(np.minimum(0.5 * np.linalg.norm(moved - start, axis=-1), 1.0))


def qnd_residual(total: Rotor, alpha_hat) -> float:
    """Angle between ``alpha_hat`` and its image under the cycle rotation.

    Zero exactly when the cycle rotation commutes with the measured
    observable.  ``alpha_hat`` is normalized first; an axis that is not one
    nonzero, finite 3-vector is a ``ValueError``.
    """
    alpha_hat = _unit_axis(alpha_hat, "alpha_hat")
    return float(_chord_angle(so3_from_rotor(total) @ alpha_hat, alpha_hat))


def solve_waiting_time(sys: SpinSystem, phi_dd, alpha_hat, window: tuple[float, float]) -> list:
    """Waiting times in ``window`` that solve the QND condition, in closed form.

    The wait is free precession about ``w = omega + A/2``, so with ``m =
    R(phi_dd) alpha_hat`` and ``w_hat = w / |w|``, ``alpha_hat . R(theta) m =
    c0 + c1 cos(theta) + s1 sin(theta)`` where ``c0 = (alpha_hat . w_hat)(m .
    w_hat)``, ``c1 = alpha_hat . m - c0`` and ``s1 = alpha_hat . (w_hat x
    m)`` (both taken from the components across ``w``, free of cancellation).
    The residual is smallest at ``theta* = atan2(s1, c1) mod 2 pi``, i.e. at
    ``t_k = (theta* + 2 pi k) / |w|``, and is evaluated with the chord formula
    (``_chord_angle``) and Rodrigues' form of ``R(theta) m``.  It need not
    reach zero: odd-order sequences have a nonzero infimum.

    ``phi_dd`` and ``alpha_hat`` share one shape ``(..., 3)``; row ``i`` of a
    batch equals the one-row call bit for bit (the rules of the ``rotations``
    docstring).  A shape mismatch, a non-finite ``phi_dd``, a zero or
    non-finite ``alpha_hat`` row and a non-finite or empty window refuse the
    whole call with a ``ValueError``.

    Returns per row ``(t, residual)`` pairs in increasing ``t``: every ``t_k``
    in ``(lo, hi) = window`` (any span, negative times allowed), one period
    ``2 pi / |w|`` apart; a ``t_k`` within ``1e-9 (hi - lo)`` outside an end
    is kept and clamped onto it.  If no ``t_k`` lies in the window, or in the
    flat case (``alpha_hat`` or ``m`` parallel to ``w`` to within 1e-12, so
    the residual varies by ~1e-12 rad at most), the result is the single
    endpoint with the smaller residual.  No other endpoint is ever returned.
    One row (shape ``(3,)``) gives its list of pairs, a batch nested lists of
    the batch shape.
    """
    lo, hi = float(window[0]), float(window[1])
    if not math.isfinite(hi - lo):  # an infinite end, or a span that overflows
        raise ValueError(f"search window must be finite, got {window}")
    if not hi > lo:
        raise ValueError("search window must be non-empty")
    phi_dd, alpha_hat = _finite(phi_dd, "phi_dd"), np.asarray(alpha_hat, dtype=float)
    if phi_dd.shape != alpha_hat.shape or alpha_hat.shape[-1:] != (3,):
        shapes = f"{phi_dd.shape} and {alpha_hat.shape}"
        raise ValueError(f"phi_dd and alpha_hat must share one shape (..., 3), got {shapes}")
    batch = alpha_hat.shape[:-1]
    alpha_hat = _unit_axis(alpha_hat.reshape(-1, 3), "alpha_hat", stacked=True)
    rate = float(np.linalg.norm(sys.wait_field))
    w_hat = sys.wait_field / rate
    m = (so3_from_rotor(rotor_exp(phi_dd.reshape(-1, 3))) @ alpha_hat[..., None])[..., 0]
    # R(theta) turns the part of m across w and keeps the part along it
    m_perp = m - _dot(m, w_hat)[:, None] * w_hat
    a_perp = alpha_hat - _dot(alpha_hat, w_hat)[:, None] * w_hat
    m_turn = w_hat[_NEXT] * m_perp[:, _PREV] - w_hat[_PREV] * m_perp[:, _NEXT]  # np.cross bits

    two_pi = 2.0 * math.pi
    theta_star = (_ATAN2(_dot(a_perp, m_turn), _dot(a_perp, m_perp)) % two_pi).astype(float)
    slack = 1e-9 * (hi - lo)
    k_first = np.ceil(((lo - slack) * rate - theta_star) / two_pi)
    k_last = np.floor(((hi + slack) * rate - theta_star) / two_pi)
    steep = np.minimum(np.sqrt(_dot(a_perp, a_perp)), np.sqrt(_dot(m_perp, m_perp))) > 1e-12
    counts = np.where(steep, np.maximum(k_last - k_first + 1.0, 0.0), 0.0).astype(np.int64)
    # a row without a t_k in the window tries both ends, and keeps the better one
    ends = counts == 0
    sizes = np.where(ends, 2, counts)
    firsts = np.cumsum(sizes) - sizes
    row = np.repeat(np.arange(sizes.size), sizes)
    nth = np.arange(row.size) - firsts[row]
    roots = np.clip((theta_star[row] + two_pi * (k_first[row] + nth)) / rate, lo, hi)
    times = np.where(ends[row], np.where(nth == 0, lo, hi), roots)
    c, s = np.cos(rate * times)[:, None], np.sin(rate * times)[:, None]
    values = _chord_angle(m[row] + (c - 1.0) * m_perp[row] + s * m_turn[row], alpha_hat[row])
    pairs = firsts[ends][:, None] + [0, 1]
    keep = ~ends[row]
    keep[pairs[:, 0] + np.argmin(values[pairs], axis=1)] = True

    found = list(zip(times[keep].tolist(), values[keep].tolist()))
    bounds = np.cumsum(np.where(ends, 1, counts)).tolist()
    rows = np.empty(len(bounds), dtype=object)
    for i, (a, b) in enumerate(zip([0, *bounds], bounds)):
        rows[i] = found[a:b]
    return rows.reshape(batch).tolist()


def _sign_pattern(order: int) -> np.ndarray:
    pattern = np.array([1.0])
    for _ in range(order):
        pattern = np.concatenate((pattern, -pattern))
    return pattern


def concatenated_dd(order: int, base_tau: float, n_repeats: int = 1) -> DDSequence:
    """Repetitions of the order-``l`` concatenated sequence.

    The recursion doubles the sign pattern, ``P_l = P_{l-1} ++ (-P_{l-1})``,
    starting from a free interval of ``base_tau / 4``.  Order 1 is the
    periodic sequence (tau/4 - pi - tau/4 - pi)^N, order 2 reproduces the
    CPMG pulse pattern.  Odd orders end inverted, so a trailing pi pulse at
    the period boundary restores the modulation for the next repetition.
    """
    if order < 1:
        raise ValueError("concatenation order must be >= 1")
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    pattern = np.tile(_sign_pattern(order), n_repeats)
    dt = base_tau / 4.0
    duration = pattern.size * dt
    boundaries = np.arange(1, pattern.size) * dt
    pulses = boundaries[pattern[1:] != pattern[:-1]]
    if pattern[-1] < 0:
        pulses = np.concatenate((pulses, [duration]))
    return DDSequence(pulses, duration)


def decompose_joint(c0, d0) -> tuple[np.ndarray, np.ndarray]:
    """Combine two conditional rotations into one:  solves

    ``exp(-i(c + S_z d) . I) = exp(-i(c0 - S_z d0) . I) exp(-i(c0 + S_z d0) . I)``

    by forming both conditional products and re-splitting them.  ``c`` lies
    in the plane of ``c0`` and ``d0`` while ``d`` is parallel to
    ``c0 x d0``.
    """
    c0, d0 = np.asarray(c0, dtype=float), np.asarray(d0, dtype=float)
    s = np.array([[1.0], [-1.0]])  # both conditional products as one batch
    product = rotor_compose(rotor_exp(c0 - s * d0 / 2.0), rotor_exp(c0 + s * d0 / 2.0))
    g_plus, g_minus = rotor_log_full(product)
    return 0.5 * (g_plus + g_minus), g_plus - g_minus


def split_conditional(c, d, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Split a joint rotation into common and conditional parts:  solves

    ``exp(-i c_tilde . I) exp(-i 2 S_z d_tilde . I) = exp(-i(c + S_z d) . I)``

    for orthogonal ``c`` and ``d``.  ``c_tilde`` is parallel to ``c`` and
    ``d_tilde`` to ``R(-c_tilde / 2) d``.
    """
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    nc, nd = np.linalg.norm(c), np.linalg.norm(d)
    if nc > 0.0 and nd > 0.0 and abs(float(c @ d)) > tol * nc * nd:
        raise ValueError("split_conditional requires c perpendicular to d")
    u_plus = rotor_exp(c + d / 2.0)
    u_minus = rotor_exp(c - d / 2.0)
    d_tilde, c_tilde = extract_alpha_phi(u_plus, u_minus)
    return c_tilde, d_tilde
