"""One-cycle reference for the trajectory kernel.

``step`` applies the Kraus update of one measurement cycle literally, on
one Bloch vector: the outcome probabilities from the Kraus eigenvalues, the
population reweighting along the axis, the transverse rescaling and turn by
``l_+ l_-^* / p``, then the cycle rotation.  ``qndspin.trajectory.run``
must agree with it outcome for outcome.
"""

import numpy as np

from qndspin.measurement import MeasurementSetting
from qndspin.rotations import Rotor, so3_from_rotor
from qndspin.trajectory import NuclearState, kraus_eigenvalues


def step(
    state: NuclearState,
    setting: MeasurementSetting,
    cycle_rotation: Rotor,
    rng: np.random.Generator,
) -> tuple[int, NuclearState]:
    """Sample one outcome and return it with the post-cycle state."""
    alpha_hat = setting.alpha_hat
    n = state.bloch
    par = float(n @ alpha_hat)
    perp = n - par * alpha_hat

    lam = {u: kraus_eigenvalues(setting, u) for u in (1, -1)}
    weight = {
        u: 0.5 * (abs(lam[u][0]) ** 2 * (1.0 + par) + abs(lam[u][1]) ** 2 * (1.0 - par))
        for u in (1, -1)
    }
    p_plus = weight[1]
    if p_plus < -1e-12 or p_plus > 1.0 + 1e-12:
        raise ValueError(f"invalid outcome probability {p_plus}")
    u = 1 if rng.random() < p_plus else -1

    l_plus, l_minus = lam[u]
    p = weight[u]
    new_par = 0.5 * (
        abs(l_plus) ** 2 * (1.0 + par) - abs(l_minus) ** 2 * (1.0 - par)
    ) / p
    cross = l_plus * l_minus.conjugate() / p
    new_perp = cross.real * perp - cross.imag * np.cross(alpha_hat, perp)
    bloch = so3_from_rotor(cycle_rotation) @ (new_par * alpha_hat + new_perp)
    return u, NuclearState(bloch)
