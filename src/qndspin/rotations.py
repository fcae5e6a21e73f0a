"""SU(2) rotors and their SO(3) images, batched over leading axes.

A rotation through the axis-angle vector ``theta`` (angle ``|theta|`` about
``theta/|theta|``) acts on a spin-1/2 as ``exp(-i theta . I)`` with
``I = sigma/2``.  A rotor stores this operator in scalar/vector form,

    U = scalar + i sigma . vector,

so ``rotor_exp(theta)`` has ``scalar = cos(|theta|/2)`` and
``vector = -sin(|theta|/2) * theta_hat``.  Rotors are kept unit-normalized
(``scalar**2 + |vector|**2 = 1``); ``r`` and ``-r`` have the same SO(3) image.

Broadcasting: ``scalar`` has shape ``(...)`` and ``vector`` (like an
axis-angle array) ``(..., 3)``.  Every function but ``su2_matrix`` takes any
batch shape; row ``i`` of a batched call equals the one-rotation call on row
``i`` bit for bit, and that call returns a float ``scalar``.  Three rules:
1. each 3-vector dot is ``a[..., None, :] @ b[..., :, None]``, numpy's
   kernel for a 1-D ``a @ b`` (``einsum`` or ``x0*y0 + ...`` round differently);
2. ``atan2`` is ``math.atan2`` per element (``np.arctan2`` can be an ulp off);
3. the order of operations is fixed, e.g. ``(2.0 * s) * cross``, and rows that
   must stay unchanged are selected with ``np.where``: composing with the
   identity renormalizes a rotor and moves its bits.

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
    "rotor_exp",
    "rotor_log",
    "rotor_log_full",
    "rotor_compose",
    "rotor_conj",
    "so3_from_rotor",
    "su2_matrix",
]

_NEXT, _PREV = [1, 2, 0], [2, 0, 1]
_ATAN2 = np.frompyfunc(math.atan2, 2, 1)
# turns without a defined axis take x by convention
_HALF_TURN, _FULL_TURN = np.array([math.pi, 0.0, 0.0]), np.array([2.0 * math.pi, 0.0, 0.0])


@dataclass(slots=True)
class Rotor:
    """Unit rotors ``scalar + i sigma . vector``: shapes ``(...)`` and ``(..., 3)``."""

    scalar: float | np.ndarray
    vector: np.ndarray


def _dot(a, b):
    """Dot product over the last axis, per row the bits of a 1-D ``a @ b``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _axis_angle(s, v, vnorm, small, fallback):
    """``(-2 atan2(|v|, s) / |v|) v`` per rotor, ``fallback`` where ``small``."""
    angle = 2.0 * np.asarray(_ATAN2(vnorm, s), dtype=float)
    out = (-angle / np.where(small, 1.0, vnorm))[..., None] * v
    return np.where(small[..., None], fallback, out)


def _unit_axis(axis, what: str, stacked: bool = False) -> np.ndarray:
    """``axis / |axis|`` for one 3-vector, or per row of a ``(..., 3)`` stack when
    ``stacked``; another shape, or a zero, underflowing or non-finite row, is a
    ``ValueError`` naming ``what``."""
    axis = np.asarray(axis, dtype=float)
    if not stacked and axis.shape != (3,):
        raise ValueError(f"{what} must be one 3-vector, got shape {axis.shape}")
    norm = np.sqrt(_dot(axis, axis))  # the bits of np.linalg.norm on each row
    if not np.all(np.isfinite(norm) & (norm > 0.0)):
        raise ValueError(f"{what} must be nonzero and finite")
    return axis / norm[..., None]


def _finite(array, name: str) -> np.ndarray:
    """``array`` as floats; a non-finite entry is a ``ValueError`` naming ``name``."""
    array = np.asarray(array, dtype=float)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite")
    return array


def rotor_exp(theta) -> Rotor:
    """Rotor of ``exp(-i theta . I)`` for axis-angle vectors ``theta``."""
    theta = np.asarray(theta, dtype=float)
    half = 0.5 * np.sqrt(_dot(theta, theta))
    # sin(half)/|theta| -> 1/2 smoothly as |theta| -> 0
    return Rotor(np.cos(half), (-0.5 * np.sinc(half / math.pi))[..., None] * theta)


def rotor_log(r: Rotor) -> np.ndarray:
    """Canonical axis-angle vector of ``r``, with ``|theta|`` in ``[0, pi]``.

    The rotor sign is dropped (same SO(3) image), so the round trip
    ``rotor_exp(rotor_log(r))`` equals ``r`` up to an overall sign.
    """
    s, v = np.asarray(r.scalar), r.vector
    vnorm = np.sqrt(_dot(v, v))
    flip = s < 0.0
    undefined = flip & (vnorm < 1e-12)
    if np.any(undefined):
        text = "rotation axis undefined for rotor with scalar ~ -1; (pi, 0, 0) by convention"
        warnings.warn(text, RuntimeWarning, stacklevel=2)
    s, v = np.where(flip, -s, s), np.where(flip[..., None], -v, v)
    fallback = np.where(undefined[..., None], _HALF_TURN, 0.0)
    return _axis_angle(s, v, vnorm, undefined | (vnorm == 0.0), fallback)


def rotor_log_full(r: Rotor) -> np.ndarray:
    """Axis-angle vector of ``r`` on the ``[0, 2*pi)`` branch (sign-exact)."""
    s, v = np.asarray(r.scalar), r.vector
    vnorm = np.sqrt(_dot(v, v))
    fallback = np.where((s < 0.0)[..., None], _FULL_TURN, 0.0)
    return _axis_angle(s, v, vnorm, vnorm < 1e-12, fallback)


def rotor_compose(r2: Rotor, r1: Rotor) -> Rotor:
    """Rotors of applying ``r1`` first and then ``r2`` (operator product)."""
    s1, v1 = np.asarray(r1.scalar), r1.vector
    s2, v2 = np.asarray(r2.scalar), r2.vector
    s = s2 * s1 - _dot(v2, v1)
    cross = v2[..., _NEXT] * v1[..., _PREV] - v2[..., _PREV] * v1[..., _NEXT]  # np.cross bits
    v = s2[..., None] * v1 + s1[..., None] * v2 - cross
    n = np.sqrt(s * s + _dot(v, v))
    return Rotor(s / n, v / n[..., None])


def rotor_conj(r: Rotor) -> Rotor:
    """Inverse (dagger) of unit rotors."""
    return Rotor(r.scalar, -r.vector)


def so3_from_rotor(r: Rotor) -> np.ndarray:
    """3x3 rotation matrices acting on vectors by conjugation with ``r``.

    ``so3_from_rotor(rotor_exp(theta))`` rotates counterclockwise about
    ``theta`` by ``|theta|``; the map is a homomorphism and kills the rotor
    sign (double cover).
    """
    s, v = np.asarray(r.scalar)[..., None, None], r.vector
    vv = _dot(v, v)[..., None, None]
    cross = np.zeros(v.shape + (3,))
    cross[..., 0, 1], cross[..., 0, 2] = -v[..., 2], v[..., 1]
    cross[..., 1, 0], cross[..., 1, 2] = v[..., 2], -v[..., 0]
    cross[..., 2, 0], cross[..., 2, 1] = -v[..., 1], v[..., 0]
    return (s * s - vv) * np.eye(3) + 2.0 * (v[..., :, None] * v[..., None, :]) - (2.0 * s) * cross


def su2_matrix(r: Rotor) -> np.ndarray:
    """2x2 complex matrix ``scalar + i sigma . vector`` of one rotor."""
    s, (x, y, z) = r.scalar, r.vector
    return np.array([[s + 1j * z, y + 1j * x], [-y + 1j * x, s - 1j * z]])
