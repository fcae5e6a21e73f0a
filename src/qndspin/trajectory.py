"""Stochastic measurement records and post-measurement nuclear states.

The nuclear state is a Bloch polarization ``n`` (density operator ``1/2 +
I . n``, ``|n| <= 1``).  One cycle samples the binary outcome ``u`` with
probability ``Tr M_u rho M_u^dag``, collapses the state through the Kraus
operator and applies the net cycle rotation.  In the eigenbasis of the
measurement axis the Kraus operators are diagonal, so the update has a
closed Bloch form: populations reweight by the conditional probabilities,
the transverse component rescales by ``|l_+ l_-| / p`` and rotates about the
axis by ``-arg(l_+ l_-^*)``, with ``l_pm`` the Kraus eigenvalues.

The kernel ``_evolve`` writes that update once, as a cycle body of ``+ - *
/``, ``<`` and an outcome ``pick``, in the frame of the measurement axis.
``_slices``, which the random-error kernel of ``stability`` shares, feeds
it 64 cycles at a time: ``run`` (one row) on Python floats, ``run_ensemble``
on arrays of up to ``_BLOCK`` rows.  On arrays the pick is one gather from
a coefficient table indexed by the outcome bits, not a branch per row, and
each slice's outcomes are counted as bytes.  Each float operation
rounds as the array element's does, and a gather copies the stored value,
so the two paths give the same bits.

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
    "run",
    "run_ensemble",
]

# Cycles whose inputs are transposed into the scratch buffer at a time.
_SLICE = 64

# Rows whose slice is copied transposed at a time.
_TILE = 256

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
        if self.bloch.shape != (3,):
            raise ValueError(f"bloch must be one 3-vector, got shape {self.bloch.shape}")
        if not float(np.linalg.norm(self.bloch)) <= 1.0 + 1e-12:  # nan fails too
            raise ValueError(f"polarization must satisfy |bloch| <= 1, got {self.bloch}")

    @classmethod
    def eigenstate(cls, alpha_hat, branch: int = 1) -> "NuclearState":
        alpha_hat = np.asarray(alpha_hat, dtype=float)
        if alpha_hat.shape != (3,):
            raise ValueError(f"alpha_hat must be one 3-vector, got shape {alpha_hat.shape}")
        norm = np.linalg.norm(alpha_hat)
        if not (math.isfinite(norm) and norm > 0.0):
            raise ValueError("alpha_hat must be nonzero and finite")
        return cls(branch * alpha_hat / norm)

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


def _checked_int(value, name: str, least: int) -> int:
    """An integer >= ``least`` (``bool`` is refused); a ``ValueError`` names ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _checked_seed(master_seed) -> int:
    """A master seed: an integer >= 0."""
    return _checked_int(master_seed, "master seed", 0)


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
    """Per row of ``matrix``, its nonzero entries as ``_apply`` terms ``(coef, j)``;
    an all-zero row keeps one zero term."""
    rows = matrix.tolist()
    return [[(m, j) for j, m in enumerate(row) if m != 0.0] or [(0.0, 0)] for row in rows]


def _apply(rows: list, vector) -> list:
    """``sum(coef * vector[j] for coef, j in terms)`` per row, left to right."""
    out = []
    for terms in rows:
        total = None
        for coef, j in terms:
            total = coef * vector[j] if total is None else total + coef * vector[j]
        out.append(total)
    return out


def _slices(inputs: np.ndarray, state: list, columns, body, pairs=()):
    """Run a kernel's cycle ``body`` over ``inputs``, one row per sequence.

    Row ``i`` of ``inputs`` holds sequence ``i``'s per-cycle inputs in cycle
    order, and ``state`` is a list of coordinate arrays with one entry per
    row.  Each slice of 64 cycles is copied transposed into a scratch buffer,
    ``_TILE`` rows at a time so that the strided reads stay in cache, and
    ``columns`` turns the copy into the body's per-cycle arguments.
    ``body(state, *arguments, pick)`` returns the next state and one output
    per row, using only ``+ - * /``, ``<`` and ``pick(plus)``, which gives,
    for each of the kernel's outcome ``pairs`` ``(a, b)``, ``a`` where
    ``plus`` and ``b`` elsewhere.  With one row the body runs on the Python
    floats of ``tolist()`` and ``pick`` returns the tuple of ``a``'s or of
    ``b``'s; otherwise on whole-row arrays, and ``pick`` gathers all pairs
    in one ``take`` from a table with one row ``(b, a)`` per pair, indexed by
    the outcome bits, which copies the stored values, ``-0.0`` included, with
    no branch per row.  IEEE operations round a float as they round an array
    element, so a row's bits do not depend on the path or on the rows sharing
    the call.  Yields each slice's outputs as a ``(width, rows)`` array;
    ``state`` holds the final state after the last slice.
    """
    rows, n = inputs.shape
    if rows == 1:
        on_plus, on_minus = tuple(a for a, _ in pairs), tuple(b for _, b in pairs)

        def pick(plus):
            return on_plus if plus else on_minus

    else:
        table = np.array([(b, a) for a, b in pairs])  # column 1 where plus, 0 elsewhere

        def pick(plus):
            return table.take(plus, axis=1)

    scratch = np.empty((_SLICE, rows))
    for first in range(0, n, _SLICE):
        width = min(_SLICE, n - first)
        copy = scratch[:width]
        for top in range(0, rows, _TILE):
            tile = slice(top, top + _TILE)
            np.copyto(copy[:, tile], inputs[tile, first : first + width].T)
        if rows == 1:
            now = [coord.item() for coord in state]
            cycles = zip(*(column.ravel().tolist() for column in columns(copy)))
        else:
            now, cycles = state, zip(*columns(copy))
        outs = []
        for arguments in cycles:
            now, out = body(now, *arguments, pick)
            outs.append(out)
        for coord, value in zip(state, now):
            coord[...] = value
        outs = np.array(outs).reshape(width, rows)  # drops the list before the caller's reduction
        yield outs


def _evolve(setting, cycle_rotation, initial, uniforms, outcomes=None):
    """The trajectory kernel: one row per trajectory.

    Row ``i`` of ``uniforms`` holds trajectory ``i``'s draws in cycle order.
    In the frame ``F`` of ``_axis_frame`` the state is three coordinates
    ``x, y, z`` with ``z`` along the measurement axis.  Per cycle, ``p_+``
    is computed from ``z`` alone and compared with the draw; ``z`` takes
    the population reweighting of the drawn outcome; ``(x, y)`` rescale by
    ``s = l_+ l_-^* / p``, which is real for both outcomes (``cos cos`` and
    ``-sin sin``), so the turn about the axis by ``-arg(l_+ l_-^*)`` is the
    sign of ``s``; then ``R' = F R F^T`` is applied as scalar products that
    skip its exact zeros.  That cycle body runs through ``_slices``, on
    Python floats for one row and on arrays for many, with the same bits.
    ``outcomes``, a list when given, receives ``u == +1`` as one ``(width,
    rows)`` bool block per slice.  Returns ``(u_bars, final_blochs)``.
    """
    frame = _axis_frame(setting.alpha_hat)
    terms = _frame_terms(frame @ so3_from_rotor(cycle_rotation) @ frame.T)
    # |l_+|^2 / 2, |l_-|^2 / 2 and l_+ l_-^* of the outcomes +1 and -1
    (a_plus, b_plus, c_plus), (a_minus, b_minus, c_minus) = [
        (0.5 * abs(l_plus) ** 2, 0.5 * abs(l_minus) ** 2, (l_plus * l_minus.conjugate()).real)
        for l_plus, l_minus in (kraus_eigenvalues(setting, 1), kraus_eigenvalues(setting, -1))
    ]

    pairs = [(a_plus, a_minus), (b_plus, b_minus), (c_plus, c_minus)]

    def cycle(state, draw, pick):
        x, y, z = state
        pp, pm = 1.0 + z, 1.0 - z
        plus = draw < a_plus * pp + b_plus * pm
        a, b, c = pick(plus)
        pp, pm = a * pp, b * pm
        p = pp + pm
        s = c / p
        return _apply(terms, (s * x, s * y, (pp - pm) / p)), plus

    rows, n = uniforms.shape
    state = [np.full(rows, value) for value in frame @ initial.bloch]
    counts = np.zeros(rows, dtype=np.int64)
    for block in _slices(uniforms, state, lambda draws: (draws,), cycle, pairs):
        counts += block.view(np.uint8).sum(axis=0, dtype=np.uint8)  # at most 64 per slice
        if outcomes is not None:
            outcomes.append(block)
    back = [list(zip(column, range(3))) for column in frame.T.tolist()]  # zeros kept: -0.0 + 0.0
    finals = np.stack(_apply(back, state), axis=1)
    return (2.0 * counts - n) / n, finals


def _check_entry(setting, cycle_rotation: Rotor, initial: NuclearState, n: int) -> None:
    """What ``run`` and ``run_ensemble`` refuse before any draw."""
    if not setting.readout.is_ideal:
        raise ValueError("trajectory updates are defined for ideal readout only")
    _checked_int(n, "n", 1)
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

    ``n`` must be an integer >= 1.  The uniforms come from one ``random(n)``
    call, the same stream as ``n`` scalar draws, and go through the batched
    kernel as a single row.
    """
    _check_entry(setting, cycle_rotation, initial, n)
    uniforms = np.random.default_rng(seed).random(n)
    plus = []
    u_bars, finals = _evolve(setting, cycle_rotation, initial, uniforms[None, :], plus)
    outcomes = np.where(np.concatenate(plus)[:, 0], 1, -1).astype(np.int8)
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
    must be an integer >= 0, and ``n`` and ``n_traj`` integers >= 1.  Up to
    ``_BLOCK`` trajectories draw their uniforms into one ``(_BLOCK, n)``
    buffer, which dominates the memory (``8 _BLOCK n`` bytes), and go through
    the kernel together.  The streams come from batched seed-sequence hashes
    and one re-seeded ``PCG64`` per block (``_child_generators``), not from a
    ``SeedSequence`` object per trajectory; the contract above is unchanged.

    ``diagnostics``, when given, is a counter that receives the seconds
    spent building the streams and drawing (``stream_s``) and in the kernel
    (``kernel_s``).
    """
    _check_entry(setting, cycle_rotation, initial, n)
    _checked_int(n_traj, "n_traj", 1)
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
