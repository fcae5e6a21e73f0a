"""Electron-nuclear hyperfine system and dynamical-decoupling evolution.

The nuclear spin sees the Hamiltonian ``H = omega . I + S_z A . I`` in the
electron interaction picture, where ``omega = omega_n e_z + (a_plus +
a_minus)/2`` is the hyperfine-shifted Larmor frequency and
``A = a_plus - a_minus`` the effective hyperfine vector; ``a_plus`` and
``a_minus`` are the hyperfine fields for the electron states ``|+z>`` and
``|-z>``.  All frequencies are stored in rad/s; a quantity quoted in "MHz"
converts as ``1 MHz = 2*pi*1e6 rad/s``.

A DD sequence of instantaneous pi pulses at times ``t_1 <= ... <= t_N``
inside ``[0, t_dd]`` defines the modulation ``s(t)``, which starts at ``+1``
and flips sign at every pulse.  Between pulses the Hamiltonian is constant,
so the conditional nuclear evolutions for the electron in ``|+z>`` / ``|-z>``
are exact products of rotors with fields ``omega +- s_k A / 2``.

The conditional pair ``(u_plus, u_minus)`` factorizes as
``u_pm = exp(-i phi_dd . I) exp(-+ i alpha . I)``; ``extract_alpha_phi``
recovers the conditional-rotation half-angle vector ``alpha`` and the common
rotation ``phi_dd`` from the pair.  In the weak-coupling regime
(``|A_perp| << |omega|``) both are given in closed form through the sequence
filter function ``f_dd``.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .rotations import (
    M,
    Rotor,
    _checked_int,
    _divisor,
    _dot,
    _finite,
    _vector,
    rotor_compose,
    rotor_conj,
    rotor_exp,
    rotor_log_full,
    so3_from_rotor,
)

__all__ = [
    "MHZ",
    "SpinSystem",
    "DDSequence",
    "cpmg",
    "exact_dd_evolution",
    "extract_alpha_phi",
    "filter_function",
    "cpmg_filter_closed_form",
    "weak_coupling_alpha",
    "match_alpha_branch",
]

# rad/s per "MHz" in configuration files and tables
MHZ = 2.0 * math.pi * 1e6

_EZ = np.array([0.0, 0.0, 1.0])


@dataclass
class SpinSystem:
    """Nuclear Zeeman plus electron-state-conditioned hyperfine fields.

    ``omega_n`` is the bare (signed) nuclear Zeeman frequency in rad/s along
    ``e_z``; ``a_plus`` / ``a_minus`` are the rad/s hyperfine vectors for the
    electron in ``|+z>`` / ``|-z>``.
    """

    omega_n: float
    a_plus: np.ndarray = field(default_factory=lambda: np.zeros(3))
    a_minus: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        _finite(self.omega_n, "omega_n")
        self.a_plus, self.a_minus = _vector(self.a_plus, "a_plus"), _vector(self.a_minus, "a_minus")
        _divisor(self.omega_mag, "omega_n, a_plus and a_minus", "give an |omega|")

    @classmethod
    def from_vectors(cls, omega, hyperfine) -> "SpinSystem":
        """Build a system with given effective ``omega`` and ``A`` vectors."""
        omega, hyperfine = _vector(omega, "omega"), _vector(hyperfine, "hyperfine")
        transverse = omega - omega[2] * _EZ
        return cls(
            omega_n=float(omega[2]),
            a_plus=transverse + hyperfine / 2.0,
            a_minus=transverse - hyperfine / 2.0,
        )

    @property
    def omega(self) -> np.ndarray:
        """Hyperfine-shifted Larmor frequency vector (rad/s)."""
        return self.omega_n * _EZ + 0.5 * (self.a_plus + self.a_minus)

    @property
    def hyperfine(self) -> np.ndarray:
        """Effective hyperfine vector ``A = a_plus - a_minus`` (rad/s)."""
        return self.a_plus - self.a_minus

    @property
    def omega_mag(self) -> float:
        return float(np.linalg.norm(self.omega))

    @property
    def a_perp(self) -> np.ndarray:
        """Component of ``A`` perpendicular to ``omega``."""
        omega_hat = self.omega / self.omega_mag
        a = self.hyperfine
        return a - float(a @ omega_hat) * omega_hat

    @property
    def wait_field(self) -> np.ndarray:
        """Precession vector ``omega + A/2`` with the electron in ``|+z>``."""
        return self.omega + 0.5 * self.hyperfine

    @property
    def wait_period(self) -> float:
        """One period of the waiting-time precession, ``2*pi/|omega + A/2|``."""
        return 2.0 * math.pi / float(np.linalg.norm(self.wait_field))

    @property
    def dd_period(self) -> float:
        """One period of the in-sequence precession, ``2*pi/|omega|``."""
        return 2.0 * math.pi / self.omega_mag


@dataclass
class DDSequence:
    """Pi-pulse timings inside ``duration``; batched as ``(..., n_pulses)`` and ``(...)``."""

    pulse_times: np.ndarray
    duration: float | np.ndarray

    def __post_init__(self):
        _divisor(self.duration, "duration")
        self.pulse_times = _finite(self.pulse_times, "pulse_times")
        if self.n_pulses:
            if np.any(np.diff(self.pulse_times, axis=-1) < 0.0):
                raise ValueError("pulse times must be sorted")
            first, last = self.pulse_times[..., 0], self.pulse_times[..., -1]
            if np.any(first < 0.0) or np.any(last > self.duration):
                raise ValueError("pulse times must lie within [0, duration]")

    @property
    def n_pulses(self) -> int:
        return int(self.pulse_times.shape[-1])

    def interval_bounds(self) -> np.ndarray:
        end = np.asarray(self.duration, dtype=float)[..., None]
        return np.concatenate((np.zeros_like(end), self.pulse_times, end), axis=-1)

    def interval_signs(self) -> np.ndarray:
        """Modulation sign per inter-pulse interval, starting at +1."""
        n = self.n_pulses + 1
        return np.where(np.arange(n) % 2 == 0, 1.0, -1.0)


def cpmg(n_periods: int, tau) -> DDSequence:
    """CPMG sequences of ``n_periods`` repetitions of (tau/4 - pi - tau/2 - pi - tau/4), per tau.

    Each ``tau`` is a period, and ``DDSequence`` checks the duration ``n_periods * tau``.
    """
    n_periods = _checked_int(n_periods, "n_periods", 1)
    tau = _divisor(tau, "tau")[..., None]
    starts = np.arange(n_periods) * tau
    times = np.sort(np.concatenate((starts + tau / 4.0, starts + 3.0 * tau / 4.0), axis=-1))
    return DDSequence(times, n_periods * tau[..., 0])


def exact_dd_evolution(sys: SpinSystem, seq: DDSequence) -> tuple[Rotor, Rotor]:
    """Conditional nuclear rotors ``(u_plus, u_minus)`` for a DD sequence.

    Each inter-pulse interval is evolved exactly under the constant field
    ``omega +- s_k A / 2`` for the electron in ``|+z>`` / ``|-z>``.  Both
    branches and all sequences of a batch advance together, each row bit for
    bit its one-sequence result (a zero-width interval leaves its rows alone).
    A sequence whose widest interval turns by an angle ``|omega +- A/2| *
    width`` beyond ``M`` is refused before any rotor is built.
    """
    widths = np.diff(seq.interval_bounds())
    widest = float(widths.max(initial=0.0))  # its turns are the evolution's largest, bit for bit
    omega, half_a = sys.omega, 0.5 * sys.hyperfine
    turns = (omega + np.array([[1.0], [-1.0]]) * half_a) * widest
    if not (np.sqrt(_dot(turns, turns)) <= M).all():
        raise ValueError(
            f"seq must have turns |omega +- A/2| * width of at most {M:g} rad, "
            f"got a widest interval of {widest!r} s"
        )
    batch = widths.shape[:-1]
    u = Rotor(np.ones((2, *batch)), np.zeros((2, *batch, 3)))
    branch = np.array([1.0, -1.0]).reshape((2,) + (1,) * len(batch) + (1,))  # |+z>, |-z>
    for k, sign in enumerate(seq.interval_signs()):
        dt = widths[..., k]
        moved = rotor_compose(rotor_exp((omega + (branch * sign) * half_a) * dt[..., None]), u)
        keep = dt == 0.0  # composing with the identity would move the bits
        u.scalar = np.where(keep, u.scalar, moved.scalar)
        u.vector = np.where(keep[..., None], u.vector, moved.vector)
    return Rotor(u.scalar[0], u.vector[0]), Rotor(u.scalar[1], u.vector[1])


def extract_alpha_phi(
    u_plus: Rotor, u_minus: Rotor, diagnostics: Counter | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Split conditional pairs into ``(alpha_vec, phi_dd)``.

    ``alpha_vec`` solves ``exp(2i alpha . I) = u_plus^dag u_minus`` with
    ``|alpha|`` in ``[0, pi]``; ``phi_dd`` solves ``exp(-i phi_dd . I) =
    u_plus exp(i alpha . I)``.  Both use the sign-exact ``[0, 2*pi)`` branch
    of the rotor logarithm so that ``u_pm = rotor_exp(phi_dd) o
    rotor_exp(-+ alpha)`` holds exactly, not only up to a rotor sign.  Both
    reconstructions ``u_pm exp(+-i alpha . I)`` must agree to 1e-10 per row;
    ``diagnostics`` (a counter) keeps the worst gap as ``worst_alpha_phi_error``.
    """
    w = rotor_compose(rotor_conj(u_plus), u_minus)
    alpha_vec = -0.5 * rotor_log_full(w)
    half = rotor_exp(-alpha_vec)  # exp(+i alpha . I)
    lhs = rotor_compose(u_plus, half)
    rhs = rotor_compose(u_minus, rotor_conj(half))
    err = float(max(np.abs(lhs.scalar - rhs.scalar).max(), np.abs(lhs.vector - rhs.vector).max()))
    if diagnostics is not None:
        diagnostics["worst_alpha_phi_error"] = max(err, diagnostics["worst_alpha_phi_error"])
    if not err <= 1e-10:  # nan rotors fail too
        raise RuntimeError(f"conditional-rotation consistency check failed ({err:.2e})")
    phi_dd = rotor_log_full(lhs)
    return alpha_vec, phi_dd


def filter_function(seq: DDSequence, omega_mag: float) -> complex:
    """Normalized Fourier overlap of the modulation with ``exp(i |omega| t)``.

    Evaluated interval-by-interval in closed form:
    ``f = sum_k s_k (exp(i w t_{k+1}) - exp(i w t_k)) / (i w t_dd)``.
    """
    if np.ndim(seq.duration):
        raise ValueError(f"seq must be one sequence, got a batch of shape {np.shape(seq.duration)}")
    _divisor(omega_mag, "omega_mag")
    bounds = seq.interval_bounds()
    signs = seq.interval_signs()
    phases = np.exp(1j * omega_mag * bounds)
    total = complex(np.sum(signs * (phases[1:] - phases[:-1])))
    return total / (1j * omega_mag * seq.duration)


def cpmg_filter_closed_form(n_periods: int, tau: float, omega_mag: float) -> complex:
    """Closed-form CPMG filter function.

    ``f = -exp(i w t_dd / 2) * (4 / (w t_dd)) * sin^2(w tau / 8)
    * sin(w t_dd / 2) / cos(w tau / 4)``.  Near the removable points
    ``cos(w tau / 4) = 0`` the interval-sum evaluation is used instead.
    ``n_periods`` and ``tau`` are refused as ``cpmg`` refuses them, and
    ``omega_mag`` as ``filter_function`` refuses it.
    """
    seq = cpmg(n_periods, tau)
    _divisor(omega_mag, "omega_mag")
    t_dd = n_periods * tau
    denom = math.cos(omega_mag * tau / 4.0)
    if abs(denom) < 1e-8:
        return filter_function(seq, omega_mag)
    return (
        -cmath.exp(1j * omega_mag * t_dd / 2.0)
        * (4.0 / (omega_mag * t_dd))
        * math.sin(omega_mag * tau / 8.0) ** 2
        * math.sin(omega_mag * t_dd / 2.0)
        / denom
    )


def match_alpha_branch(alpha_vec, reference) -> np.ndarray:
    """Representative of ``alpha_vec`` (mod pi along its axis) nearest ``reference``.

    The conditional rotation ``exp(2i alpha . I)`` only defines ``alpha``
    modulo ``pi`` along its axis (``2 alpha`` wraps by ``2 pi``), so comparing
    an extracted vector against an unreduced prediction such as the
    weak-coupling formula requires picking the matching winding first.  Every
    candidate generates the identical SO(3) action of ``2 alpha`` (odd
    windings flip the rotor sign, relabeling the two outcomes).
    """
    alpha_vec = _vector(alpha_vec, "alpha_vec")
    reference = np.asarray(reference, dtype=float)
    mag = float(np.linalg.norm(alpha_vec))
    if mag == 0.0:
        return alpha_vec
    axis = alpha_vec / mag
    windings = math.pi * np.arange(-6.0, 7.0)
    candidates = (mag + windings)[:, None] * axis[None, :]
    best = int(np.argmin(np.linalg.norm(candidates - reference, axis=1)))
    return candidates[best]


def weak_coupling_alpha(
    sys: SpinSystem, seq: DDSequence
) -> tuple[np.ndarray, np.ndarray]:
    """First-order (Magnus) approximation ``(alpha_vec, phi_dd)``.

    Valid when ``|A_perp| << |omega|``:  ``phi_dd = omega * t_dd`` and
    ``alpha = |f_dd| R(-arg(f_dd) omega_hat) (A_perp t_dd / 2)``.
    """
    omega_hat = sys.omega / sys.omega_mag
    f_dd = filter_function(seq, sys.omega_mag)
    rot = so3_from_rotor(rotor_exp(-cmath.phase(f_dd) * omega_hat))
    alpha_vec = abs(f_dd) * (rot @ (0.5 * sys.a_perp * seq.duration))
    phi_dd = sys.omega * seq.duration
    return alpha_vec, phi_dd
