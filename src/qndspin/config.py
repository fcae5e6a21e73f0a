"""Run-configuration files: JSON with a fixed key schema.

Top-level keys (all optional unless a subcommand needs them):

    preset              "P1" | "P2" | "P3"
    B_gauss             magnetic field in gauss
    gamma_n_MHz_per_T   nuclear gyromagnetic ratio (default -10.71)
    A_MHz               hyperfine 3-vector in MHz (1 MHz = 2*pi*1e6 rad/s)
    N_DD                number of CPMG periods
    tau_ns | t_DD_ns    CPMG period or total sequence duration (ns)
    p_plus, p_minus     electron readout fidelities, or
    n_plus, n_minus     mean photon numbers (room-temperature mapping), or
    n_bar, contrast     equivalent photon statistics
    phi                 electron readout azimuth (rad)
    alpha               measurement rotation magnitude (rad)
    seed                master seed for stochastic subcommands
    scan                {"n_tdd", "n_tr", "tau_rel_min", "tau_rel_max", "n_max"}

Unknown keys are rejected before any computation runs.  On the command line
a flag overrides the key of its name (``--tau-ns`` is ``tau_ns`` and also
drops ``t_DD_ns``; nv-scan's ``--n-max`` is ``scan.n_max``), and a readout
flag replaces every readout key of the file.
"""

from __future__ import annotations

import json
import math

from .hyperfine import cpmg
from .measurement import ReadoutModel
from .nv import PRESETS, NvParams, room_temp_readout

__all__ = [
    "ConfigError",
    "config_count",
    "load_config",
    "nv_params_from_config",
    "sequence_from_config",
    "readout_from_config",
]

_TOP_KEYS = {
    "preset",
    "B_gauss",
    "gamma_n_MHz_per_T",
    "A_MHz",
    "N_DD",
    "tau_ns",
    "t_DD_ns",
    "p_plus",
    "p_minus",
    "n_plus",
    "n_minus",
    "n_bar",
    "contrast",
    "phi",
    "alpha",
    "seed",
    "scan",
}

_READOUT_KEYS = {"p_plus", "p_minus", "n_plus", "n_minus", "n_bar", "contrast"}

_SCAN_KEYS = {"n_tdd", "n_tr", "tau_rel_min", "tau_rel_max", "n_max"}


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def config_count(value, name: str, least: int = 1) -> int:
    """A count (or, with ``least=0``, a seed) from a config file: an integer
    >= ``least`` (``1e6`` passes, ``2.5`` and ``true`` do not)."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return int(value)


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            cfg = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    scan = cfg.get("scan", {})
    if not isinstance(scan, dict):
        raise ConfigError("'scan' must be an object")
    unknown = set(scan) - _SCAN_KEYS
    if unknown:
        raise ConfigError(f"unknown scan keys: {sorted(unknown)}")
    return cfg


def nv_params_from_config(cfg: dict) -> NvParams:
    if "preset" in cfg:
        name = cfg["preset"]
        if not isinstance(name, str) or name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r} (have {sorted(PRESETS)})")
        base = PRESETS[name]
        b_gauss = cfg.get("B_gauss", base.b_gauss)
        n_dd = cfg.get("N_DD", base.n_dd)
        gamma = cfg.get("gamma_n_MHz_per_T", base.gamma_n_mhz_per_t)
        a_mhz = cfg.get("A_MHz", base.a_mhz)
    else:
        if "B_gauss" not in cfg or "N_DD" not in cfg:
            raise ConfigError("need either 'preset' or both 'B_gauss' and 'N_DD'")
        b_gauss = cfg["B_gauss"]
        n_dd = cfg["N_DD"]
        gamma = cfg.get("gamma_n_MHz_per_T", -10.71)
        a_mhz = cfg.get("A_MHz", NvParams(b_gauss=1.0, n_dd=1).a_mhz)
    if not isinstance(a_mhz, (list, tuple)) or len(a_mhz) != 3:
        raise ConfigError("A_MHz must be a 3-vector")
    try:
        return NvParams(
            b_gauss=float(b_gauss),
            n_dd=config_count(n_dd, "N_DD"),
            gamma_n_mhz_per_t=float(gamma),
            a_mhz=tuple(float(a) for a in a_mhz),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid system parameters: {exc}") from exc


def sequence_from_config(cfg: dict, params: NvParams):
    """CPMG sequence from ``tau_ns`` or ``t_DD_ns`` (default: resonant period)."""
    if "tau_ns" in cfg and "t_DD_ns" in cfg:
        raise ConfigError("give only one of 'tau_ns' and 't_DD_ns'")
    try:
        if "tau_ns" in cfg:
            tau = float(cfg["tau_ns"]) * 1e-9
        elif "t_DD_ns" in cfg:
            tau = float(cfg["t_DD_ns"]) * 1e-9 / params.n_dd
        else:
            tau = params.larmor_period_dd
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid sequence duration: {exc}") from exc
    if not (math.isfinite(tau) and tau > 0.0):
        raise ConfigError(f"sequence duration must be positive and finite, got {tau}")
    return cpmg(params.n_dd, tau)


def readout_from_config(cfg: dict) -> ReadoutModel:
    """Readout model from fidelities or photon statistics (default ideal)."""
    has_p = "p_plus" in cfg or "p_minus" in cfg
    has_n = "n_plus" in cfg or "n_minus" in cfg
    has_bar = "n_bar" in cfg or "contrast" in cfg
    if sum((has_p, has_n, has_bar)) > 1:
        raise ConfigError("give readout as p_+/p_-, n_+/n_-, or n_bar/contrast")
    try:
        if has_p:
            return ReadoutModel(float(cfg["p_plus"]), float(cfg["p_minus"]))
        if has_n:
            return room_temp_readout(float(cfg["n_plus"]), float(cfg["n_minus"]))
        if has_bar:
            n_bar = float(cfg["n_bar"])
            contrast = float(cfg["contrast"])
            return room_temp_readout(n_bar * (1 + contrast), n_bar * (1 - contrast))
    except KeyError as exc:
        raise ConfigError(f"incomplete readout model: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid readout model: {exc}") from exc
    return ReadoutModel()
