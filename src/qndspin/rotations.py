"""SU(2) rotors and their SO(3) images.

A rotation through the axis-angle vector ``theta`` (angle ``|theta|`` about
``theta/|theta|``) acts on a spin-1/2 as ``exp(-i theta . I)`` with
``I = sigma/2``.  A rotor stores this operator in scalar/vector form,

    U = scalar + i sigma . vector,

so ``rotor_exp(theta)`` has ``scalar = cos(|theta|/2)`` and
``vector = -sin(|theta|/2) * theta_hat``.  Rotors are kept unit-normalized
(``scalar**2 + |vector|**2 = 1``); ``r`` and ``-r`` have the same SO(3) image.

Logarithm branches:

* ``rotor_log`` returns the canonical representative with ``|theta| <= pi``,
  flipping the rotor sign first if ``scalar < 0``.  When ``scalar ~ -1`` and
  the vector part vanishes the axis is undefined; ``(pi, 0, 0)`` is returned
  by convention and a ``RuntimeWarning`` is emitted.
* ``rotor_log_full`` keeps the rotor sign and returns ``|theta|`` in
  ``[0, 2*pi)``, so ``rotor_exp(rotor_log_full(r))`` reproduces ``r`` exactly,
  including its sign.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Rotor",
    "identity_rotor",
    "rotor_exp",
    "rotor_log",
    "rotor_log_full",
    "rotor_compose",
    "rotor_conj",
    "so3_from_rotor",
    "su2_matrix",
]


@dataclass(slots=True)
class Rotor:
    """Unit rotor ``scalar + i sigma . vector`` for a spin-1/2 rotation."""

    scalar: float
    vector: np.ndarray


def identity_rotor() -> Rotor:
    return Rotor(1.0, np.zeros(3))


def rotor_exp(theta) -> Rotor:
    """Rotor of ``exp(-i theta . I)`` for an axis-angle vector ``theta``."""
    theta = np.asarray(theta, dtype=float)
    half = 0.5 * math.sqrt(float(theta @ theta))
    # sin(half)/|theta| -> 1/2 smoothly as |theta| -> 0
    return Rotor(math.cos(half), -0.5 * np.sinc(half / math.pi) * theta)


def rotor_log(r: Rotor) -> np.ndarray:
    """Canonical axis-angle vector of ``r``, with ``|theta|`` in ``[0, pi]``.

    The rotor sign is dropped (same SO(3) image), so the round trip
    ``rotor_exp(rotor_log(r))`` equals ``r`` up to an overall sign.
    """
    s, v = r.scalar, r.vector
    vnorm = math.sqrt(float(v @ v))
    if vnorm < 1e-12 and s < 0.0:
        warnings.warn(
            "rotation axis undefined for rotor with scalar ~ -1; "
            "returning (pi, 0, 0) by convention",
            RuntimeWarning,
            stacklevel=2,
        )
        return np.array([math.pi, 0.0, 0.0])
    if s < 0.0:
        s, v = -s, -v
    if vnorm == 0.0:
        return np.zeros(3)
    angle = 2.0 * math.atan2(vnorm, s)
    return (-angle / vnorm) * v


def rotor_log_full(r: Rotor) -> np.ndarray:
    """Axis-angle vector of ``r`` on the ``[0, 2*pi)`` branch (sign-exact)."""
    s, v = r.scalar, r.vector
    vnorm = math.sqrt(float(v @ v))
    if vnorm < 1e-12:
        if s < 0.0:
            # full turn; axis undefined, x by convention
            return np.array([2.0 * math.pi, 0.0, 0.0])
        return np.zeros(3)
    angle = 2.0 * math.atan2(vnorm, s)
    return (-angle / vnorm) * v


def rotor_compose(r2: Rotor, r1: Rotor) -> Rotor:
    """Rotor of applying ``r1`` first and then ``r2`` (operator product)."""
    s1, v1 = r1.scalar, r1.vector
    s2, v2 = r2.scalar, r2.vector
    s = s2 * s1 - float(v2 @ v1)
    v = s2 * v1 + s1 * v2 - np.cross(v2, v1)
    n = math.sqrt(s * s + float(v @ v))
    return Rotor(s / n, v / n)


def rotor_conj(r: Rotor) -> Rotor:
    """Inverse (dagger) of a unit rotor."""
    return Rotor(r.scalar, -r.vector)


def so3_from_rotor(r: Rotor) -> np.ndarray:
    """3x3 rotation matrix acting on vectors by conjugation with ``r``.

    ``so3_from_rotor(rotor_exp(theta))`` rotates counterclockwise about
    ``theta`` by ``|theta|``; the map is a homomorphism and kills the rotor
    sign (double cover).
    """
    s, v = r.scalar, r.vector
    vv = float(v @ v)
    cross = np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )
    return (s * s - vv) * np.eye(3) + 2.0 * np.outer(v, v) - 2.0 * s * cross


def su2_matrix(r: Rotor) -> np.ndarray:
    """2x2 complex matrix ``scalar + i sigma . vector`` of a rotor."""
    s, v = r.scalar, r.vector
    return np.array(
        [
            [s + 1j * v[2], v[1] + 1j * v[0]],
            [-v[1] + 1j * v[0], s - 1j * v[2]],
        ]
    )
