"""Single electron-mediated binary measurement on the nuclear spin.

One cycle entangles the nucleus with the electron through the conditional
rotation ``exp(-i 2 S_z alpha . I)`` and then reads the electron along the
azimuth ``phi`` in the equatorial plane.  For the outcome ``u = +-1`` the
nucleus experiences the Kraus operator

    M_u = [exp(i(alpha . I - phi/2)) + u exp(-i(alpha . I - phi/2))] / 2,

whose eigenstates are the ``alpha_hat . I`` eigenstates ``|+-alpha>``.  The
conditional outcome probabilities are ``P(u | +-alpha) = [1 + u cos(phi -+
alpha)] / 2``; an imperfect electron readout with fidelities ``p_plus`` /
``p_minus`` replaces ``cos(phi -+ alpha)`` by ``delta_p + p_bar cos(phi -+
alpha)`` with ``delta_p = p_plus - p_minus`` and ``p_bar = p_plus + p_minus
- 1``.

The per-shot measurement strength is the signal-to-noise ratio

    D = |<u>_{+alpha} - <u>_{-alpha}| / (sigma_{+alpha} + sigma_{-alpha}),

which for ideal readout reduces to ``min(|tan alpha|, |tan phi|)`` and is
``inf`` (projective) when both conditional laws are deterministic yet
distinct, e.g. ``alpha = phi = pi/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rotations import _finite, _measurement_axis, _vector, rotor_exp, su2_matrix

__all__ = [
    "ReadoutModel",
    "MeasurementSetting",
    "BinaryStats",
    "kraus_pair",
    "outcome_prob",
    "binary_stats",
]


@dataclass(frozen=True)
class ReadoutModel:
    """Electron readout fidelities: probability of outcome ``+-`` in ``|+-_phi>``."""

    p_plus: float = 1.0
    p_minus: float = 1.0

    def __post_init__(self):
        for name, p in (("p_plus", self.p_plus), ("p_minus", self.p_minus)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")

    @property
    def delta_p(self) -> float:
        return self.p_plus - self.p_minus

    @property
    def p_bar(self) -> float:
        return self.p_plus + self.p_minus - 1.0

    @property
    def is_ideal(self) -> bool:
        return self.p_plus == 1.0 and self.p_minus == 1.0


@dataclass
class MeasurementSetting:
    """Measurement axis/strength vector ``alpha_vec``, electron azimuth ``phi``."""

    alpha_vec: np.ndarray
    phi: float
    readout: ReadoutModel = field(default_factory=ReadoutModel)

    def __post_init__(self):
        self.alpha_vec = _vector(self.alpha_vec, "alpha_vec")
        _finite(self.phi, "phi")
        if self.alpha_mag > math.pi + 1e-9:
            raise ValueError(f"alpha_vec must have a canonical norm <= pi, got {self.alpha_mag}")
        # normalize phi into (-pi, pi]
        self.phi = math.remainder(self.phi, 2.0 * math.pi)
        if self.phi == -math.pi:
            self.phi = math.pi

    @property
    def alpha_mag(self) -> float:
        return float(np.linalg.norm(self.alpha_vec))

    @property
    def alpha_hat(self) -> np.ndarray:
        return _measurement_axis(self.alpha_vec)


@dataclass(frozen=True)
class BinaryStats:
    """Conditional outcome moments and per-shot strength of one measurement."""

    mean_plus: float
    mean_minus: float
    sigma_plus: float
    sigma_minus: float
    strength_d: float

    @property
    def projective(self) -> bool:
        return math.isinf(self.strength_d)


def kraus_pair(setting: MeasurementSetting) -> tuple[np.ndarray, np.ndarray]:
    """Kraus operators ``(M_plus, M_minus)`` acting on the nuclear spin.

    Only defined for ideal electron readout; imperfect readout is handled at
    the statistics level (probabilities and strength), not as an operator.
    """
    if not setting.readout.is_ideal:
        raise ValueError("Kraus operators are defined for ideal readout only")
    half_phase = np.exp(-0.5j * setting.phi)
    e_plus = half_phase * su2_matrix(rotor_exp(-setting.alpha_vec))  # exp(i(a.I - phi/2))
    e_minus = e_plus.conj().T
    return 0.5 * (e_plus + e_minus), 0.5 * (e_plus - e_minus)


def _conditional_mean(setting: MeasurementSetting, branch: int) -> float:
    readout = setting.readout
    return readout.delta_p + readout.p_bar * math.cos(
        setting.phi - branch * setting.alpha_mag
    )


def outcome_prob(setting: MeasurementSetting, branch: int, u: int) -> float:
    """``P(u | branch * alpha)`` for ``branch, u in {+1, -1}``."""
    if branch not in (1, -1) or u not in (1, -1):
        raise ValueError("branch and u must be +1 or -1")
    p = 0.5 * (1.0 + u * _conditional_mean(setting, branch))
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"invalid readout model produced probability {p}")
    return min(max(p, 0.0), 1.0)


def binary_stats(setting: MeasurementSetting) -> BinaryStats:
    """Means, fluctuations and strength ``D`` of the binary measurement.

    ``D`` is evaluated from the general (readout-aware) moments; both
    conditional laws deterministic and distinct gives the projective
    sentinel ``inf``, deterministic and identical gives 0.
    """
    mean_plus = _conditional_mean(setting, +1)
    mean_minus = _conditional_mean(setting, -1)
    sigma_plus = math.sqrt(max(1.0 - mean_plus**2, 0.0))
    sigma_minus = math.sqrt(max(1.0 - mean_minus**2, 0.0))
    signal = abs(mean_plus - mean_minus)
    noise = sigma_plus + sigma_minus
    if noise == 0.0:
        strength = math.inf if signal > 0.0 else 0.0
    else:
        strength = signal / noise
    return BinaryStats(mean_plus, mean_minus, sigma_plus, sigma_minus, strength)
