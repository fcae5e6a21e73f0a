"""Run configuration: each subcommand's keys and one resolver per kind of value.

Every input of a subcommand is a config key (``KEYS``).  A ``--config``
JSON file gives some, a flag overrides the key of its name, and the
manifest's ``parameters`` record each resolved key under the same name and
nesting, so a manifest replays as a config.  With readout = ``p_plus``,
``p_minus`` | ``n_plus``, ``n_minus`` | ``n_bar``, ``contrast`` and system =
``preset``, ``B_gauss``, ``gamma_n_MHz_per_T``, ``A_MHz``, ``N_DD``:

    table1          preset ("P1" | "P2" | "P3")
    binary-stats    alpha, phi, readout
    distribution    alpha, phi, readout, n, law ("exact" | "gaussian")
    fidelity        alpha, phi, readout, n, threshold_mode ("exact" | "gaussian")
    qnd-solve       system, tau_ns | t_DD_ns
    stability       alpha_vec, error ("systematic" | "random"), delta_phi, error_axis,
                    n_max, seed
    trajectories    alpha, phi, readout, n, n_traj, seed, initial, cycle_rot
    nv-scan         system, readout, scan.{n_tdd, n_tr, tau_rel_min, tau_rel_max, n_max}

Angles are in radians, ``B_gauss`` in gauss, ``A_MHz`` a 3-vector in MHz
(1 MHz = 2*pi*1e6 rad/s), ``tau_ns`` the CPMG period and ``t_DD_ns`` the
sequence duration in ns; ``p_*`` are readout fidelities, ``n_plus`` and
``n_minus`` mean photon numbers.  A key no subcommand reads is refused
before anything runs; one that only other subcommands read is listed in the
manifest's ``ignored_keys``, so one file can serve several subcommands.
A flag's text, parsed as the value it spells, meets the same resolver as
the key's JSON value.  Every refusal is a ``ValueError`` naming the key.
"""

from __future__ import annotations

import json
import math

from .hyperfine import cpmg
from .measurement import ReadoutModel
from .nv import PRESETS, NvParams, room_temp_readout

__all__ = [
    "KEYS",
    "Inputs",
    "as_angle",
    "as_choice",
    "as_count",
    "as_number",
    "as_positive",
    "as_vector",
    "load_config",
    "nv_params_from_config",
    "sequence_from_config",
    "readout_from_config",
]

_READOUT_KEYS = ("p_plus", "p_minus", "n_plus", "n_minus", "n_bar", "contrast")
_SETTING_KEYS = ("alpha", "phi", *_READOUT_KEYS)
_SYSTEM_KEYS = ("preset", "B_gauss", "gamma_n_MHz_per_T", "A_MHz", "N_DD")
_SCAN_KEYS = ("n_tdd", "n_tr", "tau_rel_min", "tau_rel_max", "n_max")

KEYS = {
    "table1": ("preset",),
    "binary-stats": _SETTING_KEYS,
    "distribution": (*_SETTING_KEYS, "n", "law"),
    "fidelity": (*_SETTING_KEYS, "n", "threshold_mode"),
    "qnd-solve": (*_SYSTEM_KEYS, "tau_ns", "t_DD_ns"),
    "stability": ("alpha_vec", "error", "delta_phi", "error_axis", "n_max", "seed"),
    "trajectories": (*_SETTING_KEYS, "n", "n_traj", "seed", "initial", "cycle_rot"),
    "nv-scan": (*_SYSTEM_KEYS, *_READOUT_KEYS, *(f"scan.{key}" for key in _SCAN_KEYS)),
}

_KNOWN = {key for keys in KEYS.values() for key in keys}

# the default of a key that must be given
_REQUIRED = object()


def as_count(value, key: str, least: int = 1) -> int:
    """An integer >= ``least`` (``1e6`` passes, ``2.5`` and ``true`` do not)."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{key} must be >= {least}, got {value}")
    return int(value)


def as_number(value, key: str) -> float:
    """A JSON number (not a boolean); its range is the library's to check."""
    if type(value) not in (int, float):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range reads as json's 1e400 does
        return math.inf if value > 0 else -math.inf


def as_positive(value, key: str) -> float:
    """A positive finite number."""
    if not 0.0 < (value := as_number(value, key)) < math.inf:
        raise ValueError(f"{key} must be positive and finite, got {value}")
    return value


def as_angle(value, key: str) -> float:
    """A number whose square is finite, as a rotation angle's must be."""
    if not math.isfinite((value := as_number(value, key)) * value):
        raise ValueError(f"{key} must be a number whose square is finite, got {value}")
    return value


def as_choice(value, key: str, options) -> str:
    """One of the names in ``options``."""
    if not isinstance(value, str) or value not in options:
        raise ValueError(f"unknown {key} {value!r} (have {sorted(options)})")
    return value


def as_vector(value, key: str) -> list[float]:
    """Three numbers whose squared norm is finite, as a rotation's must be."""
    message = f"{key} must be a 3-vector of finite numbers with finite squared norm, got {value!r}"
    if not (isinstance(value, (list, tuple)) and len(value) == 3):
        raise ValueError(message)
    vector = [as_number(v, key) for v in value]
    if not math.isfinite(sum(v * v for v in vector)):  # nan and inf entries included
        raise ValueError(message)
    return vector


class Inputs:
    """One run's config keys and the values resolved from them.

    ``cfg`` maps each given key (a block's as ``scan.n_tdd``) to its value.
    ``resolve`` checks one key and records the result in ``params`` under
    the same name and nesting: the manifest's ``parameters``.  ``ignored``
    lists the given keys that the subcommand (declaring ``keys``) does not read.
    """

    def __init__(self, cfg: dict, keys):
        self.cfg, self.params = cfg, {}
        self.ignored = sorted(set(cfg) - set(keys))

    def resolve(self, key: str, check, default=_REQUIRED, *extra):
        """``check(value, key, *extra)`` of ``key`` (``default`` when not given), recorded.

        With ``default=None`` the key is optional, and ``None`` passes unchecked.
        """
        value = self.cfg.get(key, default)
        if value is _REQUIRED:
            raise ValueError(f"{key} is required")
        if value is not None or default is not None:
            value = check(value, key, *extra)
        block, _, leaf = key.rpartition(".")
        (self.params.setdefault(block, {}) if block else self.params)[leaf] = value
        return value


def load_config(path: str) -> dict:
    """The file's keys, those of its ``scan`` block as ``scan.<key>``; unknown ones are refused."""
    try:
        with open(path, encoding="utf-8") as handle:
            cfg = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    scan = cfg.pop("scan", {})
    if not isinstance(scan, dict):
        raise ValueError("'scan' must be an object")
    cfg.update((f"scan.{key}", value) for key, value in scan.items())
    unknown = set(cfg) - _KNOWN
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def nv_params_from_config(inputs: Inputs) -> NvParams:
    """``preset`` with any of ``B_gauss``, ``N_DD``, ``gamma_n_MHz_per_T`` and
    ``A_MHz`` laid over, or those keys alone; records the four, not the preset."""
    cfg = inputs.cfg
    if "preset" in cfg:
        base = PRESETS[as_choice(cfg["preset"], "preset", PRESETS)]
    elif "B_gauss" not in cfg or "N_DD" not in cfg:
        raise ValueError("need either 'preset' or both 'B_gauss' and 'N_DD'")
    else:
        base = NvParams(b_gauss=1.0, n_dd=1)
    return NvParams(
        inputs.resolve("B_gauss", as_number, base.b_gauss),
        inputs.resolve("N_DD", as_count, base.n_dd),
        inputs.resolve("gamma_n_MHz_per_T", as_number, base.gamma_n_mhz_per_t),
        tuple(inputs.resolve("A_MHz", as_vector, list(base.a_mhz))),
    )


def sequence_from_config(inputs: Inputs, params: NvParams):
    """CPMG sequence of ``tau_ns`` or ``t_DD_ns`` (default resonant); records ``tau_ns``."""
    cfg = inputs.cfg
    if "tau_ns" in cfg and "t_DD_ns" in cfg:
        raise ValueError("give only one of 'tau_ns' and 't_DD_ns'")
    if "tau_ns" in cfg:
        tau = as_positive(cfg["tau_ns"], "tau_ns") * 1e-9
    elif "t_DD_ns" in cfg:
        tau = as_positive(cfg["t_DD_ns"], "t_DD_ns") * 1e-9 / params.n_dd
    else:
        tau = params.larmor_period_dd
    seq = cpmg(params.n_dd, tau)
    inputs.params["tau_ns"] = seq.duration / params.n_dd * 1e9
    return seq


def readout_from_config(inputs: Inputs, default: ReadoutModel = ReadoutModel()) -> ReadoutModel:
    """Readout model from fidelities or photon statistics, ``default`` where no
    readout key is given; records it as ``p_plus`` and ``p_minus``."""
    cfg = inputs.cfg
    has_p = "p_plus" in cfg or "p_minus" in cfg
    has_n = "n_plus" in cfg or "n_minus" in cfg
    has_bar = "n_bar" in cfg or "contrast" in cfg
    if sum((has_p, has_n, has_bar)) > 1:
        raise ValueError("give readout as p_+/p_-, n_+/n_-, or n_bar/contrast")

    def number(key):
        return as_number(cfg[key], key)

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
    inputs.params.update(p_plus=readout.p_plus, p_minus=readout.p_minus)
    return readout
