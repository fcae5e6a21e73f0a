"""Run configuration: each subcommand's keys, declared once, and one resolver per kind.

``KEYS`` declares each key of each subcommand: its kind (the resolver that
checks its value), its default and its flag's help.  A ``--config`` file gives
keys (``scan.n_tdd`` inside its block, as ``{"scan": {"n_tdd": 6}}``), a flag
overrides the key of its name, and the manifest's ``parameters`` record each
resolved key under the same name and nesting, so a manifest replays as a
config.  Angles are in radians, and a unit ends a key's name (1 MHz =
2*pi*1e6 rad/s); ``tau_ns`` is the CPMG period, ``t_DD_ns`` the sequence
duration.  Every number, and every vector's norm, is at most ``M`` in
magnitude (the domain of the ``rotations`` docstring).  Every refusal is a
``ValueError`` naming the key.  The rules that join keys stay as code, each
in one place:

- the readout as ``p_plus``/``p_minus``, ``n_plus``/``n_minus`` or
  ``n_bar``/``contrast``, one pair only (``Inputs.readout``);
- ``tau_ns`` or ``t_DD_ns``, not both (``Inputs.sequence``);
- the preset overlay: ``preset``'s values under the given system keys
  (``Inputs.nv_params``);
- nv-scan's ``scan.n_tr >= 2`` and its refusal of ``phi`` (``cli._cmd_nv_scan``);
- stability's ``|alpha_vec|`` in [1/M, pi] (``cli._cmd_stability``);
- ideal readout for ``trajectories`` (``trajectory.run_ensemble``);
- the refusal of a ``seed`` for systematic errors (``stability.RotationErrorModel``).
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple
from typing import Callable, NamedTuple

from .hyperfine import cpmg
from .measurement import ReadoutModel
from .nv import PRESETS, NvParams, room_temp_readout
from .rotations import M

__all__ = [
    "KEYS",
    "Inputs",
    "Key",
    "as_choice",
    "as_count",
    "as_number",
    "as_positive",
    "as_seed",
    "as_vector",
    "load_config",
]


def as_count(value, key: str, least: int = 1) -> int:
    """An integer >= ``least`` (``1e6`` passes, ``2.5`` and ``true`` do not)."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{key} must be >= {least}, got {value}")
    return int(value)


def as_seed(value, key: str) -> int:
    """A master seed: an integer >= 0."""
    return as_count(value, key, 0)


def as_number(value, key: str) -> float:
    """A JSON number (not a boolean) of magnitude at most ``M``."""
    if type(value) not in (int, float) or not abs(value) <= M:  # nan and inf fail too
        raise ValueError(f"{key} must be a number of magnitude at most {M:g}, got {value!r}")
    return float(value)


def as_positive(value, key: str) -> float:
    """A positive number."""
    if not (value := as_number(value, key)) > 0.0:
        raise ValueError(f"{key} must be positive, got {value}")
    return value


def as_choice(value, key: str, *options: str) -> str:
    """One of the names in ``options``."""
    if not isinstance(value, str) or value not in options:
        raise ValueError(f"unknown {key} {value!r} (have {sorted(options)})")
    return value


def as_vector(value, key: str) -> list[float]:
    """Three numbers whose norm is at most ``M``."""
    message = f"{key} must be a 3-vector of numbers with a norm of at most {M:g}, got {value!r}"
    if not (isinstance(value, (list, tuple)) and len(value) == 3):
        raise ValueError(message)
    vector = [as_number(v, key) for v in value]
    if math.hypot(*vector) > M:
        raise ValueError(message)
    return vector


class Key(NamedTuple):
    """One config key: ``kind(value, key, *options)`` resolves its value; ``default``
    is ``...`` for a required key, ``None`` for an optional one, else the value;
    ``help`` is its flag's text, ``None`` for a key with no flag."""

    kind: Callable
    default: object = ...
    help: str | None = None
    options: tuple[str, ...] = ()


_READOUT = {
    "p_plus": Key(as_number, None, "readout fidelity for |+phi>"),
    "p_minus": Key(as_number, None, "readout fidelity for |-phi>"),
    "n_plus": Key(as_number, None, "mean photon number, bright state"),
    "n_minus": Key(as_number, None, "mean photon number, dark state"),
    "n_bar": Key(as_number, None),
    "contrast": Key(as_number, None),
}
_SETTING = {
    "alpha": Key(as_number, 0.1, "measurement rotation magnitude (rad)"),
    "phi": Key(as_number, math.pi / 2, "electron readout azimuth (rad)"),
    **_READOUT,
}
_SYSTEM = {  # preset, then NvParams's fields in its order
    "preset": Key(as_choice, None, "", tuple(PRESETS)),
    "B_gauss": Key(as_number),
    "N_DD": Key(as_count),
    "gamma_n_MHz_per_T": Key(as_number, NvParams.gamma_n_mhz_per_t),
    "A_MHz": Key(as_vector, NvParams.a_mhz),
}
_TAU = {"tau_ns": Key(as_positive, None, "CPMG period (ns)"), "t_DD_ns": Key(as_positive, None)}
_N = Key(as_count, ..., "binary measurements (cycles) per record")
_LAW = Key(as_choice, "exact", "", ("exact", "gaussian"))  # law and threshold_mode

KEYS = {
    "table1": {"preset": _SYSTEM["preset"]},
    "binary-stats": _SETTING,
    "distribution": {**_SETTING, "n": _N, "law": _LAW},
    "fidelity": {**_SETTING, "n": _N, "threshold_mode": _LAW},
    "qnd-solve": {**_SYSTEM, **_TAU},
    "stability": {
        "alpha_vec": Key(as_vector, ..., "measurement rotation vector x,y,z (rad)"),
        "error": Key(as_choice, "systematic", "", ("systematic", "random")),
        "delta_phi": Key(as_number, ..., "error angle or std (rad)"),
        "error_axis": Key(as_vector, (0.0, 0.0, 1.0), "error axis x,y,z"),
        "n_max": Key(as_count, 10_000, "survival-curve horizon"),
        "seed": Key(as_seed, None, "master seed of random errors (systematic ones take none)"),
    },
    "trajectories": {
        **_SETTING,
        "n": _N,
        "n_traj": Key(as_count, 1000, "trajectories"),
        "seed": Key(as_seed, 0, "master seed"),
        "initial": Key(as_choice, "plus", "", ("plus", "minus", "mixed")),
        "cycle_rot": Key(as_vector, (0.0, 0.0, 0.0), "per-cycle rotation vector x,y,z (rad)"),
    },
    "nv-scan": {
        **_SYSTEM,
        **_READOUT,
        "scan.n_tdd": Key(as_count, 256, "sequence-duration grid points"),
        "scan.n_tr": Key(as_count, 256, "waiting-time grid points"),
        "scan.tau_rel_min": Key(as_positive, 0.95),
        "scan.tau_rel_max": Key(as_positive, 1.05),
        "scan.n_max": Key(as_count, 1_000_000, "lifetime iteration cap"),
    },
}

_KNOWN = {key for keys in KEYS.values() for key in keys}


class Inputs:
    """One run's config keys, the values resolved from them, and the rules that join keys.

    ``cfg`` maps each given key (a block's as ``scan.n_tdd``) to its value, and
    ``keys`` declares the subcommand's (``KEYS[command]``).  ``resolve`` checks
    one key and records it in ``params`` under the same name and nesting (the
    manifest's ``parameters``); ``ignored`` lists the given keys not declared.
    """

    def __init__(self, cfg: dict, keys):
        self.cfg, self.keys, self.params = cfg, keys, {}
        self.ignored = sorted(set(cfg) - set(keys))

    @classmethod
    def gather(cls, command: str, path: str | None, flags: dict) -> Inputs:
        """The keys of ``command`` in the config file at ``path`` (if any), each flag
        (a value other than ``None`` under a key's name) laid over the key of its name.

        A readout flag replaces every readout key of the file, and ``tau_ns`` its ``t_DD_ns``.
        """
        keys = KEYS[command]
        cfg = load_config(path) if path else {}
        flags = {key: value for key, value in flags.items() if key in keys and value is not None}
        if flags.keys() & _READOUT.keys():
            cfg = {key: value for key, value in cfg.items() if key not in _READOUT}
        if "tau_ns" in flags:
            cfg.pop("t_DD_ns", None)
        return cls({**cfg, **flags}, keys)

    def check(self, key: str):
        """The given value of ``key``, checked by its kind (``KeyError`` when not given)."""
        spec = self.keys[key]
        return spec.kind(self.cfg[key], key, *spec.options)

    def resolve(self, key: str):
        """The checked value of ``key`` (its default when not given), recorded.

        An optional key (default ``None``) may be ``None``, which passes unchecked.
        """
        spec = self.keys[key]
        value = self.cfg.get(key, spec.default)
        if value is ...:
            raise ValueError(f"{key} is required")
        if value is not None or spec.default is not None:
            value = spec.kind(value, key, *spec.options)
        block, _, leaf = key.rpartition(".")
        (self.params.setdefault(block, {}) if block else self.params)[leaf] = value
        return value

    def nv_params(self) -> NvParams:
        """``preset`` with any of ``B_gauss``, ``N_DD``, ``gamma_n_MHz_per_T`` and
        ``A_MHz`` laid over, or those keys alone; records the four, not the preset."""
        cfg, keys = self.cfg, list(_SYSTEM)[1:]
        if "preset" in cfg:  # the preset's values under the given keys
            for key, value in zip(keys, astuple(PRESETS[self.check("preset")])):
                cfg.setdefault(key, value)
        elif "B_gauss" not in cfg or "N_DD" not in cfg:
            raise ValueError("need either 'preset' or both 'B_gauss' and 'N_DD'")
        b_gauss, n_dd, gamma, a_mhz = map(self.resolve, keys)
        return NvParams(b_gauss, n_dd, gamma, tuple(a_mhz))

    def sequence(self, params: NvParams):
        """CPMG sequence of ``tau_ns`` or ``t_DD_ns`` (default resonant); records ``tau_ns``."""
        if "tau_ns" in self.cfg and "t_DD_ns" in self.cfg:
            raise ValueError("give only one of 'tau_ns' and 't_DD_ns'")
        if "tau_ns" in self.cfg:
            tau = self.check("tau_ns") * 1e-9
        elif "t_DD_ns" in self.cfg:
            tau = self.check("t_DD_ns") * 1e-9 / params.n_dd
        else:
            tau = params.larmor_period_dd
        seq = cpmg(params.n_dd, tau)
        self.params["tau_ns"] = seq.duration / params.n_dd * 1e9
        return seq

    def readout(self, default: ReadoutModel = ReadoutModel()) -> ReadoutModel:
        """Readout model from fidelities or photon statistics, ``default`` where no
        readout key is given; records it as ``p_plus`` and ``p_minus``."""
        cfg, number = self.cfg, self.check
        has_p = "p_plus" in cfg or "p_minus" in cfg
        has_n = "n_plus" in cfg or "n_minus" in cfg
        has_bar = "n_bar" in cfg or "contrast" in cfg
        if sum((has_p, has_n, has_bar)) > 1:
            raise ValueError("give readout as p_+/p_-, n_+/n_-, or n_bar/contrast")
        readout = default
        try:
            if has_p:
                readout = ReadoutModel(number("p_plus"), number("p_minus"))
            elif has_n:
                readout = room_temp_readout(number("n_plus"), number("n_minus"))
            elif has_bar:
                n_bar, contrast = number("n_bar"), number("contrast")
                readout = room_temp_readout(n_bar * (1 + contrast), n_bar * (1 - contrast))
        except KeyError as exc:
            raise ValueError(f"incomplete readout model: missing {exc}") from exc
        self.params.update(p_plus=readout.p_plus, p_minus=readout.p_minus)
        return readout


def load_config(path: str) -> dict:
    """The file's keys, those of its ``scan`` block as ``scan.<key>``; unknown ones are
    refused, and so is a block's key written outside the block."""
    try:
        with open(path, encoding="utf-8") as handle:
            cfg = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    for key in sorted(cfg.keys() & _KNOWN):
        block, dot, _ = key.partition(".")
        if dot:  # not an alias: the block's own value would silently win over it
            raise ValueError(f"config key {key!r} belongs inside its {block!r} block")
    scan = cfg.pop("scan", {})
    if not isinstance(scan, dict):
        raise ValueError("'scan' must be an object")
    cfg.update((f"scan.{key}", value) for key, value in scan.items())
    unknown = set(cfg) - _KNOWN
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return cfg
