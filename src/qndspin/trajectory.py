"""Stochastic measurement records and post-measurement nuclear states.

The nuclear state is a Bloch polarization ``n`` (density operator ``1/2 +
I . n``, ``|n| <= 1``).  One cycle samples the binary outcome ``u`` with
probability ``Tr M_u rho M_u^dag``, collapses the state through the Kraus
operator and applies the net cycle rotation.  In the eigenbasis of the
measurement axis the Kraus operators are diagonal, so the update has a
closed Bloch form: populations reweight by the conditional probabilities,
the transverse component rescales by ``|l_+ l_-| / p`` and rotates about the
axis by ``-arg(l_+ l_-^*)``, with ``l_pm`` the Kraus eigenvalues.

``step`` applies that form literally and is the tests' oracle;
``run_ensemble`` applies it to blocks of trajectories in the frame of the
measurement axis (``_evolve``), and ``run`` is one row of the same kernel.

Randomness comes from numpy's PCG64 ``default_rng``.  Trajectory ``i`` of an
ensemble draws from ``SeedSequence(master_seed, spawn_key=(i,))``; a single
``run`` with that seed sequence reproduces the ensemble row bit for bit.
The ensemble builds no ``SeedSequence`` per row: ``_child_seed_words``
evaluates the seed sequence's pool hash and ``generate_state(4, uint64)`` for
256 children at once in uint32 arithmetic, and ``_child_generators``
seeds one reused ``PCG64`` from those words with PCG64's own seeding
recurrence.  The streams are the ``SeedSequence`` streams bit for bit.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .measurement import MeasurementSetting
from .rotations import Rotor, _finite, so3_from_rotor

__all__ = [
    "NuclearState",
    "TrajectoryRecord",
    "kraus_eigenvalues",
    "step",
    "run",
    "run_ensemble",
]

# Cycles whose uniforms are transposed into the scratch buffer at a time.
_SLICE = 64

# Children whose seeding words are hashed, then listed as Python ints, at a time.
_SEED_ROWS = 256

# Trajectories whose uniforms share one (_BLOCK, n) draw buffer and one kernel call.
_BLOCK = 2048

# numpy's SeedSequence: pool size, hash constants, mixing shift, word mask
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT, _MASK32 = 16, 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier and state mask
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


@dataclass
class NuclearState:
    """Bloch polarization of the nuclear spin-1/2."""

    bloch: np.ndarray

    def __post_init__(self):
        self.bloch = np.asarray(self.bloch, dtype=float)
        if not float(np.linalg.norm(self.bloch)) <= 1.0 + 1e-12:  # nan fails too
            raise ValueError(f"polarization must satisfy |bloch| <= 1, got {self.bloch}")

    @classmethod
    def eigenstate(cls, alpha_hat, branch: int = 1) -> "NuclearState":
        alpha_hat = np.asarray(alpha_hat, dtype=float)
        return cls(branch * alpha_hat / np.linalg.norm(alpha_hat))

    @classmethod
    def mixed(cls) -> "NuclearState":
        return cls(np.zeros(3))


@dataclass
class TrajectoryRecord:
    outcomes: np.ndarray
    u_bar: float
    final_state: NuclearState
    seed: object


def kraus_eigenvalues(setting: MeasurementSetting, u: int) -> tuple[complex, complex]:
    """Eigenvalues of ``M_u`` on the ``|+alpha>`` / ``|-alpha>`` eigenstates."""
    if not setting.readout.is_ideal:
        raise ValueError("trajectory updates are defined for ideal readout only")
    alpha, phi = setting.alpha_mag, setting.phi
    if u == 1:
        return (
            complex(math.cos((alpha - phi) / 2.0)),
            complex(math.cos((alpha + phi) / 2.0)),
        )
    return (
        1j * math.sin((alpha - phi) / 2.0),
        -1j * math.sin((alpha + phi) / 2.0),
    )


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


def _checked_seed(master_seed) -> int:
    """A master seed: an integer >= 0 (``bool`` is refused)."""
    if isinstance(master_seed, bool) or not isinstance(master_seed, numbers.Integral):
        raise ValueError(f"master seed must be an integer, got {master_seed!r}")
    if master_seed < 0:
        raise ValueError(f"master seed must be >= 0, got {master_seed}")
    return int(master_seed)


def _child_seed_words(master_seed: int, first: int, count: int) -> np.ndarray:
    """``SeedSequence(master_seed, spawn_key=(i,)).generate_state(4, np.uint64)``
    for ``i = first .. first + count - 1``, as a ``(count, 4)`` uint64 array.

    The entropy words are the master seed's little-endian uint32 words,
    padded with zeros to the pool size, followed by ``i``.  Every word but
    the last is shared, so the pool is hashed as ``(1,)`` arrays until ``i``
    is mixed in, and from then on as one ``(count,)`` array per pool word.
    """
    if first + count > 1 << 32:
        raise ValueError("child indices must lie in [0, 2**32)")
    entropy = [master_seed & _MASK32]
    while master_seed >> 32 * len(entropy):
        entropy.append(master_seed >> 32 * len(entropy) & _MASK32)
    entropy += [0] * (_POOL - len(entropy))
    words = [np.array([w], dtype=np.uint32) for w in entropy]
    words.append(np.arange(first, first + count, dtype=np.uint32))

    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> _XSHIFT

    pool = [hashmix(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    const, state = _INIT_B, []
    for k in range(2 * _POOL):
        value = pool[k % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        state.append((value ^ value >> _XSHIFT).astype(np.uint64))
    return np.stack([lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])], axis=1)


def _child_generators(master_seed: int, first: int, count: int):
    """Yield, for each child ``i = first .. first + count - 1``, one reused
    ``Generator`` in the state of ``default_rng(SeedSequence(master_seed,
    spawn_key=(i,)))``.

    PCG64 seeds from the words ``w0..w3`` as ``initstate = w0:w1``,
    ``initseq = w2:w3``, ``inc = 2 initseq + 1`` and ``state = ((inc +
    initstate) MULT + inc) mod 2**128``; setting that state replaces building
    a ``SeedSequence`` and a ``default_rng`` per child.
    """
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    lcg = {}  # refilled per child: the setter copies it, and fresh dicts cost ≈ 2 µs
    seeded = {"bit_generator": "PCG64", "state": lcg, "has_uint32": 0, "uinteger": 0}
    for start in range(first, first + count, _SEED_ROWS):
        words = _child_seed_words(master_seed, start, min(_SEED_ROWS, first + count - start))
        for w0, w1, w2, w3 in words.tolist():
            inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
            lcg["state"] = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
            lcg["inc"] = inc
            bitgen.state = seeded
            yield gen


def _axis_frame(alpha_hat: np.ndarray) -> np.ndarray:
    """Rows ``(e1, e2, a)`` of a right-handed orthonormal frame; exactly the
    identity for ``a = e_z`` (adding 0.0 clears the negative zeros)."""
    e1 = np.eye(3)[0 if abs(alpha_hat[0]) < 0.9 else 1]
    e1 = e1 - (e1 @ alpha_hat) * alpha_hat
    e1 /= np.linalg.norm(e1)
    return np.array([e1, np.cross(alpha_hat, e1), alpha_hat]) + 0.0


def _frame_terms(matrix: np.ndarray) -> list:
    """Per row of ``matrix``, its nonzero entries as ``_combine`` terms ``(coef, j)``."""
    # 0-d array coefficients: numpy converts a Python float on every call
    return [[(np.array(m), j) for j, m in enumerate(row) if m != 0.0] for row in matrix.tolist()]


def _combine(dst, terms, sources, tmp) -> None:
    """``dst = sum(coef * sources[j] for coef, j in terms)``, left to right."""
    (coef, j), *rest = terms
    np.multiply(coef, sources[j], out=dst)
    for coef, j in rest:
        np.multiply(coef, sources[j], out=tmp)
        np.add(dst, tmp, out=dst)


def _evolve(setting, cycle_rotation, initial, uniforms, outcomes=None):
    """The batched trajectory kernel: one row per trajectory.

    Row ``i`` of ``uniforms`` holds trajectory ``i``'s draws in cycle order.
    In the frame ``F`` of ``_axis_frame`` the state is three coordinate
    arrays ``x, y, z`` with ``z`` along the measurement axis.  Per cycle,
    ``p_+`` is computed from ``z`` alone and compared with one contiguous
    row of uniforms (64 cycles at a time are transposed into a scratch
    buffer); ``z`` takes the population reweighting of the drawn outcome;
    ``(x, y)`` rescale by ``s = l_+ l_-^* / p``, which is real for both
    outcomes (``cos cos`` and ``-sin sin``), so the turn about the axis by
    ``-arg(l_+ l_-^*)`` is the sign of ``s``; then ``R' = F R F^T`` is
    applied as scalar x array products, skipping its exact zeros.  All
    per-row arithmetic is elementwise into arrays allocated once per call,
    with no matrix product, so a row's bits do not depend on how many rows
    share the call.  ``outcomes``, an ``(n, rows)`` bool array when given,
    receives ``u == +1`` per cycle.  Returns ``(u_bars, final_blochs)``.
    """
    frame = _axis_frame(setting.alpha_hat)
    rotation = frame @ so3_from_rotor(cycle_rotation) @ frame.T
    terms = _frame_terms(rotation)
    # |l_+|^2 / 2, |l_-|^2 / 2 and l_+ l_-^* per outcome, as np.where columns
    coeffs = {}
    for u in (1, -1):
        l_plus, l_minus = kraus_eigenvalues(setting, u)
        cross = (l_plus * l_minus.conjugate()).real
        coeffs[u] = np.array([[0.5 * abs(l_plus) ** 2], [0.5 * abs(l_minus) ** 2], [cross]])
    one, ha, hb = map(np.array, (1.0, *coeffs[1][:2, 0]))

    rows, n = uniforms.shape
    x, y, z, nx, ny, nz, pp, pm, p, tmp = np.empty((10, rows))
    plus, counts = np.empty(rows, dtype=bool), np.zeros(rows, dtype=np.int64)
    scratch = np.empty((_SLICE, rows))
    for coord, value in zip((x, y, z), frame @ initial.bloch):
        coord.fill(value)
    for first in range(0, n, _SLICE):
        width = min(_SLICE, n - first)
        np.copyto(scratch[:width], uniforms[:, first : first + width].T)
        for j, draws in enumerate(scratch[:width]):
            np.add(one, z, out=pp)
            np.subtract(one, z, out=pm)
            np.multiply(ha, pp, out=nx)
            np.multiply(hb, pm, out=ny)
            np.add(nx, ny, out=p)
            np.less(draws, p, out=plus)
            np.add(counts, plus, out=counts)
            if outcomes is not None:
                outcomes[first + j] = plus
            a, b, c = np.where(plus, coeffs[1], coeffs[-1])
            np.multiply(a, pp, out=pp)
            np.multiply(b, pm, out=pm)
            np.add(pp, pm, out=p)
            np.subtract(pp, pm, out=nz)
            np.divide(nz, p, out=nz)
            np.divide(c, p, out=p)  # p now holds s
            np.multiply(p, x, out=nx)
            np.multiply(p, y, out=ny)
            for dst, row_terms in zip((x, y, z), terms):
                _combine(dst, row_terms, (nx, ny, nz), tmp)
    finals = np.empty((rows, 3))
    for i, column in enumerate(frame.T.tolist()):
        _combine(finals[:, i], list(zip(column, range(3))), (x, y, z), tmp)
    return (2.0 * counts - n) / n, finals


def _check_entry(setting, cycle_rotation: Rotor, initial: NuclearState, n: int) -> None:
    """What ``run`` and ``run_ensemble`` refuse before any draw."""
    if not setting.readout.is_ideal:
        raise ValueError("trajectory updates are defined for ideal readout only")
    if n < 1:
        raise ValueError("n must be >= 1")
    _finite(np.append(cycle_rotation.scalar, cycle_rotation.vector), "cycle_rotation")
    _finite(initial.bloch, "initial")


def run(
    setting: MeasurementSetting,
    cycle_rotation: Rotor,
    initial: NuclearState,
    n: int,
    seed,
) -> TrajectoryRecord:
    """Simulate ``n`` cycles; deterministic for a given seed.

    The uniforms come from one ``random(n)`` call, the same stream as ``n``
    scalar draws, and go through the batched kernel as a single row.
    """
    _check_entry(setting, cycle_rotation, initial, n)
    uniforms = np.random.default_rng(seed).random(n)
    plus = np.empty((n, 1), dtype=bool)
    u_bars, finals = _evolve(setting, cycle_rotation, initial, uniforms[None, :], plus)
    outcomes = np.where(plus[:, 0], 1, -1).astype(np.int8)
    return TrajectoryRecord(outcomes, float(u_bars[0]), NuclearState(finals[0]), seed)


def run_ensemble(
    setting: MeasurementSetting,
    cycle_rotation: Rotor,
    initial: NuclearState,
    n: int,
    n_traj: int,
    master_seed: int,
    diagnostics: Counter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized batch of independent trajectories.

    Returns ``(u_bars, final_blochs)`` with one row per trajectory.
    Trajectory ``i`` consumes the stream ``SeedSequence(master_seed,
    spawn_key=(i,))`` exactly as ``run`` would, so the ensemble is a
    bit-for-bit parallelization of repeated single runs.  ``master_seed``
    must be an integer >= 0 and ``n`` >= 1.  Up to ``_BLOCK`` trajectories
    draw their uniforms into one ``(_BLOCK, n)`` buffer, which dominates the
    memory (``8 _BLOCK n`` bytes), and go through the kernel together.  The
    streams come from batched seed-sequence hashes and one re-seeded
    ``PCG64`` per block (``_child_generators``), not from a ``SeedSequence``
    object per trajectory; the contract above is unchanged.

    ``diagnostics``, when given, is a counter that receives the seconds
    spent building the streams and drawing (``stream_s``) and in the kernel
    (``kernel_s``).
    """
    _check_entry(setting, cycle_rotation, initial, n)
    master_seed = _checked_seed(master_seed)
    u_bars, finals = np.empty(n_traj), np.empty((n_traj, 3))
    uniforms = np.empty((min(_BLOCK, n_traj), n))
    stream_s = kernel_s = 0.0
    for start in range(0, n_traj, _BLOCK):
        draws = uniforms[: n_traj - start]
        began = time.perf_counter()
        for row, gen in zip(draws, _child_generators(master_seed, start, len(draws))):
            gen.random(out=row)
        drawn = time.perf_counter()
        done = slice(start, start + len(draws))
        u_bars[done], finals[done] = _evolve(setting, cycle_rotation, initial, draws)
        stream_s += drawn - began
        kernel_s += time.perf_counter() - drawn
    if diagnostics is not None:
        diagnostics.update(stream_s=stream_s, kernel_s=kernel_s)
    return u_bars, finals
