"""One-rotation reference for the rotor algebra and the DD geometry.

Scalar ``math`` functions, 1-D ``a @ b`` dots and ``np.cross``: the
arithmetic every row of the batched ``qndspin.rotations`` calls must
reproduce bit for bit, so that scan outputs keep their bytes.  Rotors are
``(scalar, vector)`` tuples.
"""

import math

import numpy as np


def exp(theta):
    theta = np.asarray(theta, dtype=float)
    half = 0.5 * math.sqrt(float(theta @ theta))
    return math.cos(half), -0.5 * np.sinc(half / math.pi) * theta


def log(r):
    s, v = r
    vnorm = math.sqrt(float(v @ v))
    if vnorm < 1e-12 and s < 0.0:
        return np.array([math.pi, 0.0, 0.0])
    if s < 0.0:
        s, v = -s, -v
    if vnorm == 0.0:
        return np.zeros(3)
    return (-2.0 * math.atan2(vnorm, s) / vnorm) * v


def log_full(r):
    s, v = r
    vnorm = math.sqrt(float(v @ v))
    if vnorm < 1e-12:
        return np.array([2.0 * math.pi, 0.0, 0.0]) if s < 0.0 else np.zeros(3)
    return (-2.0 * math.atan2(vnorm, s) / vnorm) * v


def compose(r2, r1):
    (s2, v2), (s1, v1) = r2, r1
    s = s2 * s1 - float(v2 @ v1)
    v = s2 * v1 + s1 * v2 - np.cross(v2, v1)
    n = math.sqrt(s * s + float(v @ v))
    return s / n, v / n


def conj(r):
    return r[0], -r[1]


def so3(r):
    s, v = r
    cross = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return (s * s - float(v @ v)) * np.eye(3) + 2.0 * np.outer(v, v) - 2.0 * s * cross


def cpmg_times(n_periods, tau):
    starts = np.arange(n_periods) * tau
    return np.sort(np.concatenate((starts + tau / 4.0, starts + 3.0 * tau / 4.0)))


def dd_evolution(sys, pulse_times, duration):
    """``(u_plus, u_minus)`` of one sequence, one interval at a time."""
    bounds = np.concatenate(([0.0], pulse_times, [duration]))
    half_a = 0.5 * sys.hyperfine
    u_plus = u_minus = (1.0, np.zeros(3))
    for k in range(bounds.size - 1):
        dt = bounds[k + 1] - bounds[k]
        if dt == 0.0:
            continue
        sign = 1.0 if k % 2 == 0 else -1.0
        u_plus = compose(exp((sys.omega + sign * half_a) * dt), u_plus)
        u_minus = compose(exp((sys.omega - sign * half_a) * dt), u_minus)
    return u_plus, u_minus


def alpha_phi(u_plus, u_minus):
    alpha_vec = -0.5 * log_full(compose(conj(u_plus), u_minus))
    return alpha_vec, log_full(compose(u_plus, exp(-alpha_vec)))
