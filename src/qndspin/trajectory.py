"""Stochastic measurement records and post-measurement nuclear states.

The nuclear state is a Bloch polarization ``n`` (density operator ``1/2 +
I . n``, ``|n| <= 1``).  One cycle samples the binary outcome ``u`` with
probability ``Tr M_u rho M_u^dag``, collapses the state through the Kraus
operator and applies the net cycle rotation.  In the eigenbasis of the
measurement axis the Kraus operators are diagonal, so the update has a
closed Bloch form: populations reweight by the conditional probabilities,
the transverse component rescales by ``|l_+ l_-| / p`` and rotates about the
axis by ``-arg(l_+ l_-^*)``, with ``l_pm`` the Kraus eigenvalues.

``_plan``, the layer's one entry check, writes that update once, as a cycle
body of ``+ - * /``, ``<`` and an outcome ``pick``, in the frame of the
measurement axis.  In the kernel ``_evolve``, ``_slices``, which the
random-error kernel of ``stability`` shares, feeds it 64 cycles at a time:
``run`` (one row) on Python floats, ``run_ensemble`` on arrays of up to
``_BLOCK`` rows.  On arrays the pick is one gather from a coefficient table
indexed by the outcome bits, not a branch per row, and each slice's outcomes
are counted as bytes.  Each float operation rounds as an array element's
does, and a gather copies the stored value: both paths give the same bits.

A QND measurement leaves the eigenstates of its axis undisturbed, so a
cascade started in one repeats one Bernoulli trial.  ``_plan`` decides this
once per call, before any draw, and ``_evolve`` then skips the slice
kernel: if every state reachable from the start has the start's threshold
and final bits, then by induction over the cycles the outcomes are
``uniforms < threshold`` and every row ends in that vector.  Eigenstates of
an axis along +-e_z pass under the identity and most turns about e_z; mixed
starts, generic cycles and tilted axes run the kernel.

Randomness comes from numpy's PCG64 ``default_rng``.  Trajectory ``i`` of an
ensemble draws from ``SeedSequence(master_seed, spawn_key=(i,))``; a single
``run`` with that seed sequence reproduces the ensemble row bit for bit.
``_streams`` builds no ``SeedSequence`` per row: ``_child_seed_words``
evaluates the pool hash and ``generate_state(4, uint64)`` for ``_BLOCK``
children at once in uint32 arithmetic, each child's ``PCG64`` takes its
words through numpy's ``ISeedSequence`` interface, and the streams are drawn
``_WIDTH`` cycles at a time, the kernels carrying their state across tiles.
numpy's draws do not depend on how a stream is split, so every bit is the
whole stream's, and the draws held depend on ``n`` only through ``min(n,
_WIDTH)``.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .measurement import MeasurementSetting
from .rotations import Rotor, _checked_int, _finite, _unit_axis, _vector, so3_from_rotor

__all__ = [
    "NuclearState",
    "TrajectoryRecord",
    "kraus_eigenvalues",
    "run",
    "run_ensemble",
]

# Sizes of the kernel's work: cycles per transposed slice (_SLICE), rows per
# transposed copy (_TILE), trajectories per seed-word hash and per kernel call
# (_BLOCK), cycles of each stream drawn at a time (_WIDTH), and draws held in
# one tile of fixed-point rows at most (_CELLS, 2 MB).
_SLICE, _TILE, _BLOCK, _WIDTH, _CELLS = 64, 256, 2048, 1024, 2**18

# The extreme uniforms of ``Generator.random``: 0 and (2**53 - 1) / 2**53.
_DRAWS = (0.0, 1.0 - 2.0**-53)

# States a fixed-point start may reach: the sign patterns of two zero transverse coordinates.
_REACHABLE = 4

# numpy's SeedSequence: pool size, hash constants, mixing shift, word mask
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT, _MASK32 = 16, 0xFFFFFFFF


@dataclass
class NuclearState:
    """Bloch polarization of the nuclear spin-1/2."""

    bloch: np.ndarray

    def __post_init__(self):
        self.bloch = _vector(self.bloch, "bloch")
        if not float(np.linalg.norm(self.bloch)) <= 1.0 + 1e-12:
            raise ValueError(f"polarization must satisfy |bloch| <= 1, got {self.bloch}")

    @classmethod
    def eigenstate(cls, alpha_hat, branch: int = 1) -> "NuclearState":
        """The pure state polarized along ``branch * alpha_hat``, ``branch`` +1 or -1."""
        if branch not in (1, -1):  # 0 or 0.5 would give a mixed state
            raise ValueError(f"branch must be +1 or -1, got {branch!r}")
        return cls(branch * _unit_axis(alpha_hat, "alpha_hat"))

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
        raise ValueError("setting must have ideal readout (p_plus = p_minus = 1) for trajectories")
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


@dataclass
class _Words(ISeedSequence):
    """A seed sequence whose state is ``words``: ``PCG64`` asks for ``(4, uint64)``."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _streams(master_seed: int, count: int, n: int, rows: int, draw, tally: Counter):
    """Yield ``(start, size, tiles)`` for each block of ``size <= rows``
    children ``start, start + 1, ...`` of ``master_seed``, in order.

    ``tiles`` yields the block's ``n`` draws per child as ``(size, min(n,
    _WIDTH))`` tiles in cycle order (the last one narrower), views of one
    buffer that the next tile overwrites; ``draw(gen, out=row)`` fills one
    row with a child's next draws.  The seed words are hashed ``_BLOCK``
    children at a time, and the seconds spent hashing, seeding and drawing
    add to ``tally["stream_s"]``.
    """
    buffer = np.empty((min(rows, count), min(n, _WIDTH)))
    children = (
        np.random.Generator(np.random.PCG64(_Words(words)))
        for first in range(0, count, _BLOCK)
        for words in _child_seed_words(master_seed, first, min(_BLOCK, count - first))
    )

    def tiles(size):
        for first in range(0, n, buffer.shape[1]):
            began = time.perf_counter()
            if not first:
                generators = [next(children) for _ in range(size)]
            tile = buffer[:size, : n - first]  # narrower than the buffer only at the end
            for gen, row in zip(generators, tile):
                draw(gen, out=row)
            tally["stream_s"] += time.perf_counter() - began
            yield tile

    for start in range(0, count, rows):
        yield start, min(rows, count - start), tiles(min(rows, count - start))


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


def _pick_one(pairs):
    """The one-row ``pick`` of ``_slices``: the tuple of the ``pairs``' ``a``'s
    where ``plus``, else of their ``b``'s."""
    on_plus, on_minus = tuple(a for a, _ in pairs), tuple(b for _, b in pairs)

    def pick(plus):
        return on_plus if plus else on_minus

    return pick


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _fixed_point(start: list, step, signature):
    """``signature(start)`` if every state reachable from ``start`` has its
    bits, else ``None``.

    ``step(state, draw)`` is one cycle on Python floats whose outcome is
    ``draw < threshold``, so the extreme draws ``_DRAWS`` give between them
    every outcome that can occur at a state for draws in [0, 1).  Stepping
    each collected state with both collects the reachable ones; states
    compare by their bits, and finding more than ``_REACHABLE`` declines.
    """
    first = _bits(signature(start))
    seen, todo = {_bits(start)}, [start]
    while todo:
        state = todo.pop()
        if _bits(signature(state)) != first:
            return None
        for draw in _DRAWS:
            after = step(state, draw)
            key = _bits(after)
            if key not in seen:
                if len(seen) == _REACHABLE:
                    return None
                seen.add(key)
                todo.append(after)
    return signature(start)


def _slices(tiles, state: list, columns, body, pairs=()):
    """Run a kernel's cycle ``body`` over ``tiles``, one row per sequence.

    ``tiles`` yields ``(rows, width)`` arrays, row ``i`` holding sequence
    ``i``'s next per-cycle inputs, and ``state`` is a list of coordinate
    arrays with one entry per row.  Each slice of up to 64 cycles of a tile
    is copied transposed into a scratch buffer, ``_TILE`` rows at a time so
    that the strided reads stay in cache, and ``columns`` turns the copy into
    the body's per-cycle arguments.
    ``body(state, *arguments, pick)`` returns the next state and one output
    per row, using only ``+ - * /``, ``<`` and ``pick(plus)``, which gives,
    for each of the kernel's outcome ``pairs`` ``(a, b)``, ``a`` where
    ``plus`` and ``b`` elsewhere.  With one row the body runs on the Python
    floats of ``tolist()`` and ``pick`` returns the tuple of ``a``'s or of
    ``b``'s; otherwise on whole-row arrays, and ``pick`` gathers all pairs
    in one ``take`` from a table with one row ``(b, a)`` per pair, indexed by
    the outcome bits, which copies the stored values, ``-0.0`` included, with
    no branch per row.  IEEE operations round a float as they round an array
    element, so a row's bits do not depend on the path, on the rows sharing
    the call or on where the tiles split the cycles.  Yields each slice's
    outputs as a ``(width, rows)`` array; ``state`` holds the final state
    after the last slice.
    """
    rows = len(state[0])
    if rows == 1:
        pick = _pick_one(pairs)
    else:
        table = np.array([(b, a) for a, b in pairs])  # column 1 where plus, 0 elsewhere

        def pick(plus):
            return table.take(plus, axis=1)

    scratch = np.empty((_SLICE, rows))
    slices = (t[:, first : first + _SLICE] for t in tiles for first in range(0, t.shape[1], _SLICE))
    for inputs in slices:
        copy = scratch[: inputs.shape[1]]
        for top in range(0, rows, _TILE):
            tile = slice(top, top + _TILE)
            np.copyto(copy[:, tile], inputs[tile].T)
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
        outs = np.array(outs).reshape(len(copy), rows)  # drops the list before the reduction
        yield outs


class _Plan(NamedTuple):
    """One cycle set up for one start; see ``_plan``."""

    start: list  # the start's coordinates in the frame of the measurement axis
    pairs: list  # the Kraus coefficient pairs ``(+1, -1)`` that ``cycle`` picks from
    cycle: Callable  # the cycle body of ``_slices``
    back: list  # ``_apply`` terms of the back-transform ``F^T``
    fixed: tuple | None  # ``(p_+, *final)`` when the start is a fixed point, else ``None``


def _plan(setting, cycle_rotation, initial) -> _Plan:
    """The cycle of ``setting`` and ``cycle_rotation`` in the frame ``F`` of
    ``_axis_frame``, and whether ``initial`` is a fixed point of it; the
    layer's one entry check: bad input fails before ``so3_from_rotor`` warns.

    In that frame the state is three coordinates ``x, y, z`` with ``z``
    along the measurement axis.  Per cycle, the threshold ``p_+`` is
    computed from ``z`` alone and compared with the draw; ``z`` takes the
    population reweighting of the drawn outcome; ``(x, y)`` rescale by ``s
    = l_+ l_-^* / p``, which is real for both outcomes (``cos cos`` and
    ``-sin sin``), so the turn about the axis by ``-arg(l_+ l_-^*)`` is the
    sign of ``s``; then ``R' = F R F^T`` is applied as scalar products that
    skip its exact zeros.

    ``_fixed_point`` then collects the states reachable from the start with
    the one-row cycle.  If each has the start's threshold bits and
    back-transforms to the start's final bits, then by induction over the
    cycles every outcome is ``draw < p_+`` and every row ends in that one
    vector, as the kernel would compute them bit for bit; ``fixed`` holds
    that threshold and vector.  Axis eigenstates on +-e_z pass under the
    identity or a turn about e_z that keeps an exact unit z row; a mixed
    start, a generic cycle or a tilted axis (whose frame rounds) reach new
    states and decline.  The decision draws nothing and allocates no row.
    """
    _finite(np.append(cycle_rotation.scalar, cycle_rotation.vector), "cycle_rotation")
    _finite(initial.bloch, "initial")
    frame = _axis_frame(setting.alpha_hat)
    terms = _frame_terms(frame @ so3_from_rotor(cycle_rotation) @ frame.T)
    back = [list(zip(column, range(3))) for column in frame.T.tolist()]  # zeros kept: -0.0 + 0.0
    # |l_+|^2 / 2, |l_-|^2 / 2 and l_+ l_-^* of the outcomes +1 and -1
    (a_plus, b_plus, c_plus), (a_minus, b_minus, c_minus) = [
        (0.5 * abs(l_plus) ** 2, 0.5 * abs(l_minus) ** 2, (l_plus * l_minus.conjugate()).real)
        for l_plus, l_minus in (kraus_eigenvalues(setting, 1), kraus_eigenvalues(setting, -1))
    ]

    pairs = [(a_plus, a_minus), (b_plus, b_minus), (c_plus, c_minus)]

    def threshold(z):  # the populations 1 + z, 1 - z and the p_+ a draw falls below
        pp, pm = 1.0 + z, 1.0 - z
        return pp, pm, a_plus * pp + b_plus * pm

    def cycle(state, draw, pick):
        x, y, z = state
        pp, pm, p_plus = threshold(z)
        plus = draw < p_plus
        a, b, c = pick(plus)
        pp, pm = a * pp, b * pm
        p = pp + pm
        s = c / p
        return _apply(terms, (s * x, s * y, (pp - pm) / p)), plus

    start, pick = (frame @ initial.bloch).tolist(), _pick_one(pairs)
    fixed = _fixed_point(
        start,
        lambda state, draw: cycle(state, draw, pick)[0],
        lambda state: (threshold(state[2])[2], *_apply(back, state)),
    )
    return _Plan(start, pairs, cycle, back, fixed)


def _evolve(plan: _Plan, tiles, rows: int, outcomes=None):
    """The trajectory kernel: one row per trajectory.

    ``tiles`` yields ``(rows, width)`` arrays whose row ``i`` holds
    trajectory ``i``'s next draws in [0, 1).  The cycle body of ``plan``
    (from ``_plan``, the layer's one entry check) runs through ``_slices``,
    on Python floats for one row and on arrays for many, with the same bits.
    A fixed-point ``plan`` costs one comparison and one count instead.
    ``outcomes``, a list when given, receives ``u == +1`` as ``(width,
    rows)`` bool blocks.  Returns ``(u_bars, final_blochs)``.
    """
    if plan.fixed is None:
        state = [np.full(rows, value) for value in plan.start]
        blocks = _slices(tiles, state, lambda draws: (draws,), plan.cycle, plan.pairs)
    else:
        blocks = ((tile < plan.fixed[0]).T for tile in tiles)
    counts, n = np.zeros(rows, dtype=np.int64), 0
    for block in blocks:
        counts += block.view(np.uint8).sum(axis=0, dtype=np.min_scalar_type(len(block)))
        n += len(block)
        if outcomes is not None:
            outcomes.append(block)
    if plan.fixed is None:
        return (2.0 * counts - n) / n, np.stack(_apply(plan.back, state), axis=1)
    return (2.0 * counts - n) / n, np.tile(plan.fixed[1:], (rows, 1))


def run(
    setting: MeasurementSetting,
    cycle_rotation: Rotor,
    initial: NuclearState,
    n: int,
    seed,
) -> TrajectoryRecord:
    """Simulate ``n`` cycles; deterministic for a given seed.

    ``n`` must be an integer >= 1.  The uniforms come from one call
    ``random((1, n))``, the same stream as ``n`` scalar draws, and go through
    the batched kernel as a single row.
    """
    _checked_int(n, "n", 1)
    plan, plus = _plan(setting, cycle_rotation, initial), []
    u_bars, finals = _evolve(plan, [np.random.default_rng(seed).random((1, n))], 1, plus)
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
    must be an integer >= 0, and ``n`` and ``n_traj`` integers >= 1.

    ``_plan``, the layer's one entry check, decides once, before any draw,
    whether the start is a fixed point of the cycle.  Kernel rows go through
    ``_evolve`` ``_BLOCK`` at a time; fixed-point rows, which need only a
    comparison and a count, at most ``_CELLS`` draws per tile.  ``_streams``
    draws each block ``_WIDTH`` cycles at a time, so the draws held take at
    most ``8 _BLOCK _WIDTH`` bytes: ``n`` bounds the time, not the memory.

    ``diagnostics``, when given, is a counter that receives the seconds
    spent building the streams and drawing (``stream_s``) and the rest of
    the call (``kernel_s``, the fixed-point decision included), and the
    rows whose start is a fixed point of the cycle, decided without the
    slice kernel (``fixed_point_rows``, see ``_plan``).
    """
    _checked_int(n, "n", 1)
    _checked_int(n_traj, "n_traj", 1)
    master_seed = _checked_int(master_seed, "master seed", 0)
    began, tally = time.perf_counter(), Counter(stream_s=0.0)
    plan = _plan(setting, cycle_rotation, initial)
    rows = _BLOCK if plan.fixed is None else min(_CELLS // min(n, _WIDTH), _BLOCK)
    u_bars, finals = np.empty(n_traj), np.empty((n_traj, 3))
    streams = _streams(master_seed, n_traj, n, rows, np.random.Generator.random, tally)
    for start, size, tiles in streams:
        u_bars[start : start + size], finals[start : start + size] = _evolve(plan, tiles, size)
    tally["kernel_s"] = time.perf_counter() - began - tally["stream_s"]
    if diagnostics is not None:
        diagnostics.update(tally, fixed_point_rows=0 if plan.fixed is None else n_traj)
    return u_bars, finals
