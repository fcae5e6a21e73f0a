"""Command-line front end: subcommand dispatch, CSV emission, run manifests.

Conventions: angles in radians, frequencies in MHz, times in nanoseconds at
the interface (seconds internally).  Each subcommand reads its inputs as
config keys from ``_inputs`` (the ``--config`` file, each given flag laid
over the key of its name), validates them, claims its paths with
``_outputs`` (refusing existing ones before any work), computes, and hands
``(header, columns)`` tables to ``_emit``, the one writer: the CSVs, then a
JSON manifest of the resolved inputs, seed, version, wall time, diagnostics
and the digest of the bytes as written.  Only the ``binary-stats`` and
``qnd-solve`` manifests replay as a ``--config`` today (ROADMAP item 15).
Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import astuple

import numpy as np

from . import __version__
from .cascade import (
    critical_n,
    exact_distribution,
    gaussian_distribution,
    optimal_threshold,
    readout_fidelity,
)
from .config import (
    _READOUT_KEYS,
    _SCAN_KEYS,
    _TOP_KEYS,
    ConfigError,
    config_count,
    load_config,
    nv_params_from_config,
    readout_from_config,
    sequence_from_config,
)
from .control import solve_waiting_time
from .hyperfine import exact_dd_evolution, extract_alpha_phi
from .measurement import MeasurementSetting, binary_stats
from .nv import (
    PRESETS,
    SCAN_PHI,
    default_tau_grid,
    default_tr_grid,
    nv_system,
    room_temp_readout,
    scan_2d,
    tolerance_profile,
)
from .rotations import _unit_axis, rotor_exp
from .stability import RotationErrorModel, analytic_survival, survival_curve
from .trajectory import NuclearState, run_ensemble


# rows formatted, written and hashed at a time; bounds the writer's memory
_ROWS = 4096


def _fmt(value) -> str:
    """One CSV cell: floats to 12 significant digits (``inf``, ``-inf``, ``nan`` kept)."""
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _outputs(args, *names: str) -> list[str]:
    """The output paths, manifest last; an existing one needs ``--force``.

    ``--out PREFIX`` gives ``PREFIX.csv`` and ``PREFIX.manifest.json`` in an
    existing directory; with ``--out-dir`` (made here, after validation) they
    are ``names`` and ``manifest.json`` in it.
    """
    if "out_dir" in args:
        try:
            os.makedirs(args.out_dir, exist_ok=True)  # a collision needs it to exist already
        except OSError as exc:  # a file in the way, or no permission
            raise ConfigError(f"cannot create --out-dir {args.out_dir}: {exc.strerror}") from exc
        paths = [os.path.join(args.out_dir, name) for name in (*names, "manifest.json")]
    elif os.path.isdir(os.path.dirname(args.out) or "."):
        paths = [args.out + ".csv", args.out + ".manifest.json"]
    else:
        raise ConfigError(f"--out {args.out}: its directory does not exist")
    for path in paths:
        if os.path.exists(path) and not args.force:
            raise ConfigError(f"output {path} exists (use --force to overwrite)")
    return paths


def _csv_blocks(header, columns):
    """The CSV text of ``header`` and equal-length ``columns``, ``_ROWS`` rows at a time."""
    columns = [np.asarray(column) for column in columns]
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"columns of unequal lengths under {header}")
    yield ",".join(header) + "\n"
    for start in range(0, len(columns[0]), _ROWS):
        block = zip(*(column[start : start + _ROWS].tolist() for column in columns))
        yield "".join(",".join(map(_fmt, row)) + "\n" for row in block)


def _emit(args, paths: list[str], params: dict, tables, diagnostics: dict | None = None) -> None:
    """Write each ``(header, columns)`` table to its path, then the manifest.

    The manifest's ``sha256`` maps each CSV path to the digest of the bytes as written.
    ``diagnostics``, when given, gain ``write_s`` (CSV seconds); ``*_s`` keep 3 decimals.
    """
    written, digests = time.perf_counter(), {}
    for path, (header, columns) in zip(paths, tables):
        digest = hashlib.sha256()
        with open(path, "wb") as handle:
            for text in _csv_blocks(header, columns):
                handle.write(data := text.encode())
                digest.update(data)
        digests[path] = digest.hexdigest()
    manifest = {
        "subcommand": args.command,
        "version": __version__,
        "parameters": params,
        "outputs": paths[:-1],
        "sha256": digests,
        "wall_time_s": round(time.time() - args.started, 3),
    }
    if diagnostics is not None:
        timed = dict(diagnostics, write_s=time.perf_counter() - written)
        seconds = {key: round(value, 3) for key, value in timed.items() if key.endswith("_s")}
        manifest["diagnostics"] = dict(timed, **seconds)
    with open(paths[-1], "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _positive_finite(name: str, value) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{name} must be positive and finite, got {value}")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _vector(text: str) -> np.ndarray:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3 or not all(map(math.isfinite, parts)):
        raise argparse.ArgumentTypeError("expected three comma-separated finite numbers")
    return np.array(parts)


def _inputs(args) -> dict:
    """The ``--config`` file's keys, each given flag laid over the key of its name.

    A readout flag replaces every readout key of the file, ``--tau-ns`` also
    its ``t_DD_ns``, and nv-scan's ``--n-tdd``, ``--n-tr`` and ``--n-max`` go
    into its ``scan`` block.
    """
    cfg = load_config(args.config) if args.config else {}
    flags = {key: value for key, value in vars(args).items() if value is not None}
    if flags.keys() & _READOUT_KEYS:
        cfg = {key: value for key, value in cfg.items() if key not in _READOUT_KEYS}
    if "tau_ns" in flags:
        cfg.pop("t_DD_ns", None)
    scan = {key: flags[key] for key in flags.keys() & _SCAN_KEYS}
    cfg["scan"] = dict(cfg.get("scan", {}), **scan)
    cfg.update((key, flags[key]) for key in flags.keys() & _TOP_KEYS)
    return cfg


def _setting(cfg: dict) -> MeasurementSetting:
    """The measurement setting of ``alpha``, ``phi`` and the readout keys."""
    readout = readout_from_config(cfg)
    try:
        with np.errstate(invalid="ignore"):  # 0 * inf; the setting rejects the nan
            alpha_vec = float(cfg.get("alpha", 0.1)) * np.array([0.0, 0.0, 1.0])
        return MeasurementSetting(alpha_vec, float(cfg.get("phi", math.pi / 2)), readout)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid measurement setting: {exc}") from exc


def _setting_params(setting: MeasurementSetting) -> dict:
    return {
        "alpha": setting.alpha_mag,
        "phi": setting.phi,
        "p_plus": setting.readout.p_plus,
        "p_minus": setting.readout.p_minus,
    }


def _nv_params(params) -> dict:
    return {
        "B_gauss": params.b_gauss,
        "N_DD": params.n_dd,
        "gamma_n_MHz_per_T": params.gamma_n_mhz_per_t,
        "A_MHz": list(params.a_mhz),
    }


# ----------------------------------------------------------------- commands


def _cmd_table1(args) -> None:
    paths = _outputs(args)
    names = [args.preset] if args.preset else sorted(PRESETS)
    presets = [PRESETS[name] for name in names]
    periods = [(p.larmor_period_wait * 1e9, p.larmor_period_dd * 1e9) for p in presets]
    columns = [names, [p.n_dd for p in presets], [p.b_gauss for p in presets], *zip(*periods)]
    for row in zip(*columns):
        print("{}: N_DD={} B={:g} G  T_R={:.0f} ns  T={:.0f} ns".format(*row))
    header = ["preset", "N_DD", "B_gauss", "T_R_ns", "T_ns"]
    _emit(args, paths, {"preset": args.preset}, [(header, columns)])


def _cmd_binary_stats(args) -> None:
    setting = _setting(_inputs(args))
    paths = _outputs(args)
    stats = binary_stats(setting)
    print(
        f"alpha={setting.alpha_mag:g} phi={setting.phi:g}  "
        f"<u>_+ = {stats.mean_plus:.6f}  <u>_- = {stats.mean_minus:.6f}  "
        f"D = {stats.strength_d:.6g}"
    )
    params = _setting_params(setting)
    header = [*params, "mean_plus", "mean_minus", "sigma_plus", "sigma_minus", "D"]
    _emit(args, paths, params, [(header, [[v] for v in (*params.values(), *astuple(stats))])])


def _cmd_distribution(args) -> None:
    setting = _setting(_inputs(args))
    paths = _outputs(args)
    law = gaussian_distribution if args.law == "gaussian" else exact_distribution
    started = time.perf_counter()
    dist = law(setting, args.n)
    diagnostics = {"law_s": time.perf_counter() - started}
    params = dict(_setting_params(setting), n=args.n, law=args.law)
    header = ["u_bar", "p_plus_alpha", "p_minus_alpha"]
    table = (header, [dist.u_grid, dist.probs_plus, dist.probs_minus])
    _emit(args, paths, params, [table], diagnostics)
    print(f"wrote {paths[0]} ({args.n + 1} outcomes, law={args.law})")


def _cmd_fidelity(args) -> None:
    setting = _setting(_inputs(args))
    strength_d = binary_stats(setting).strength_d
    try:
        critical_n(strength_d)  # the cascade's own test for an informative shot
    except ValueError as exc:
        raise ConfigError(f"invalid measurement setting: {exc}") from exc
    paths = _outputs(args)
    started = time.perf_counter()
    dist = exact_distribution(setting, args.n)
    law_s, started = time.perf_counter() - started, time.perf_counter()
    threshold = optimal_threshold(dist, mode=args.threshold_mode)
    report = readout_fidelity(dist, threshold, strength_d)
    diagnostics = {"law_s": law_s, "threshold_s": time.perf_counter() - started}
    print(
        f"n={args.n}  D={strength_d:.6g}  "
        f"u_th={threshold:.6g}  F_bar={report.f_bar:.4f}  (erf: {report.f_erf:.4f})"
    )
    cells = {"n": report.n, "D": strength_d, "DN": report.strength_dn, "u_th": report.u_threshold}
    cells.update(F_plus=report.f_plus, F_minus=report.f_minus)
    cells.update(F_bar=report.f_bar, F_erf=report.f_erf)
    params = dict(_setting_params(setting), n=args.n, threshold_mode=args.threshold_mode)
    _emit(args, paths, params, [(list(cells), [[v] for v in cells.values()])], diagnostics)


def _cmd_qnd_solve(args) -> None:
    cfg = _inputs(args)
    params = nv_params_from_config(cfg)
    seq = sequence_from_config(cfg, params)
    paths = _outputs(args)
    sys_ = nv_system(params)
    alpha_vec, phi_dd = extract_alpha_phi(*exact_dd_evolution(sys_, seq))
    mag = np.linalg.norm(alpha_vec)
    if mag == 0.0:
        raise RuntimeError("measurement vector vanishes for this sequence")
    roots = solve_waiting_time(sys_, phi_dd, alpha_vec / mag, (0.0, sys_.wait_period))
    manifest_params = dict(_nv_params(params), tau_ns=seq.duration / params.n_dd * 1e9)
    times, residuals = np.array(roots).T
    _emit(args, paths, manifest_params, [(["t_R_ns", "residual_rad"], [times * 1e9, residuals])])
    best = min(roots, key=lambda r: r[1])
    print(
        f"{len(roots)} root(s) of the QND condition in [0, T_R]; best residual {best[1]:.3e} rad "
        f"at t_R = {best[0] * 1e9:.3f} ns"
    )


def _cmd_stability(args) -> None:
    if not math.isfinite(args.delta_phi):
        raise ConfigError(f"--delta-phi must be finite, got {args.delta_phi}")
    alpha_mag = float(np.linalg.norm(args.alpha_vec))
    # the measurement axis must exist, and |alpha| is canonical as in MeasurementSetting
    if not 0.0 < alpha_mag <= math.pi + 1e-9:
        raise ConfigError(f"|--alpha-vec| must lie in (0, pi], got {alpha_mag}")
    try:  # a norm that underflows to 0 is refused too
        axis = _unit_axis(args.error_axis, "--error-axis")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.error == "systematic":  # the random model normalizes its axis itself
        error = RotationErrorModel("systematic", delta_phi=args.delta_phi * axis)
    else:
        if args.seed is None:
            raise ConfigError("--seed is required for random errors")
        if args.delta_phi < 0.0:
            raise ConfigError(f"--delta-phi is a standard deviation here, got {args.delta_phi}")
        error = RotationErrorModel(
            "random", std=args.delta_phi, axis=args.error_axis, seed=args.seed
        )
    paths = _outputs(args)
    curve = survival_curve(args.alpha_vec, error, args.n_max)
    steps = np.arange(args.n_max + 1)
    analytic = analytic_survival(args.error, alpha_mag, args.delta_phi, steps)
    params = {
        "alpha_vec": list(map(float, args.alpha_vec)),
        "error": args.error,
        "delta_phi": args.delta_phi,
        "error_axis": list(map(float, args.error_axis)),
        "n_max": args.n_max,
        "seed": args.seed,
    }
    _emit(args, paths, params, [(["N", "S_sim", "S_analytic"], [steps, curve.values, analytic])])
    print(f"lifetime N_L = {curve.lifetime}")


def _cmd_trajectories(args) -> None:
    cfg = _inputs(args)
    setting = _setting(cfg)
    if not setting.readout.is_ideal:
        raise ConfigError("trajectories need ideal readout (p_plus = p_minus = 1)")
    seed = config_count(cfg.get("seed", 0), "seed", 0)
    initial = {
        "plus": NuclearState.eigenstate(setting.alpha_hat, 1),
        "minus": NuclearState.eigenstate(setting.alpha_hat, -1),
        "mixed": NuclearState.mixed(),
    }[args.initial]
    paths = _outputs(args)
    timings = Counter()
    u_bars, finals = run_ensemble(
        setting, rotor_exp(args.cycle_rot), initial, args.n, args.n_traj, seed, diagnostics=timings
    )
    params = {
        "alpha": setting.alpha_mag,
        "phi": setting.phi,
        "n": args.n,
        "n_traj": args.n_traj,
        "master_seed": seed,
        "initial": args.initial,
        "cycle_rot": list(map(float, args.cycle_rot)),
    }
    header = ["seed", "u_bar", "final_bx", "final_by", "final_bz"]
    _emit(args, paths, params, [(header, [np.arange(args.n_traj), u_bars, *finals.T])], timings)
    print(f"wrote {paths[0]} ({args.n_traj} trajectories, <u_bar> = {u_bars.mean():.4f})")


def _cmd_nv_scan(args) -> None:
    cfg = _inputs(args)
    if "phi" in cfg:
        raise ConfigError("nv-scan reads out at phi = pi/2; remove 'phi' from the config")
    params = nv_params_from_config(cfg)
    readout = readout_from_config(cfg)
    if readout.is_ideal:
        readout = room_temp_readout(0.1, 0.07)
    scan_cfg = cfg["scan"]
    n_tdd = config_count(scan_cfg.get("n_tdd", 256), "scan.n_tdd")
    n_tr = config_count(scan_cfg.get("n_tr", 256), "scan.n_tr")
    if n_tr < 2:
        raise ConfigError(f"n_tr must be >= 2 to span a search window, got {n_tr}")
    rel = (
        _positive_finite("scan.tau_rel_min", scan_cfg.get("tau_rel_min", 0.95)),
        _positive_finite("scan.tau_rel_max", scan_cfg.get("tau_rel_max", 1.05)),
    )
    n_max = config_count(scan_cfg.get("n_max", 1_000_000), "scan.n_max")
    paths = _outputs(args, "scan.csv", "tolerance.csv")
    diagnostics = Counter(no_crossing_points=0, bisection_probes=0, kernel_calls=0)
    tau_grid, tr_grid = default_tau_grid(params, n_tdd, rel), default_tr_grid(params, n_tr)
    scan = scan_2d(params, tau_grid, tr_grid, readout, n_max=n_max, diagnostics=diagnostics)
    started = time.perf_counter()
    profile = tolerance_profile(scan, diagnostics)
    diagnostics["tolerance_s"] = time.perf_counter() - started
    per_row = (scan.t_dd_grid * 1e9, scan.alpha_mags, scan.strengths, scan.n_crit)
    t_dd, mag, strength, n_c = (np.repeat(column, n_tr) for column in per_row)
    t_r = np.tile(scan.tr_grid * 1e9, n_tdd)
    scan_columns = [t_dd, t_r, mag, scan.residuals.ravel(), strength, n_c, scan.lifetimes.ravel()]
    tolerance_columns = [*(profile[:, :3] * 1e9).T, profile[:, 3]]
    manifest_params = dict(_nv_params(params), p_plus=readout.p_plus, p_minus=readout.p_minus)
    manifest_params.update(phi=SCAN_PHI, n_tdd=n_tdd, n_tr=n_tr, tau_rel=list(rel), n_max=n_max)
    tables = [
        (["t_DD_ns", "t_R_ns", "alpha_mag", "qnd_residual", "D", "N_c", "N_L"], scan_columns),
        (["t_DD_ns", "dtR_measured_ns", "dtR_worst_case_ns", "Nc"], tolerance_columns),
    ]
    _emit(args, paths, manifest_params, tables, diagnostics)
    finite = scan.lifetimes[np.isfinite(scan.lifetimes)]
    print(
        f"wrote {paths[0]} and {paths[1]}; "
        f"max finite N_L = {int(finite.max()) if finite.size else 0}, "
        f"{int(np.isinf(scan.lifetimes).sum())} divergent points"
    )


# ----------------------------------------------------------------- parser


_CONFIG_HELP = "JSON configuration file; a flag overrides the key of its name"


def _add_readout_args(parser) -> None:
    parser.add_argument("--p-plus", type=float, help="readout fidelity for |+phi>")
    parser.add_argument("--p-minus", type=float, help="readout fidelity for |-phi>")
    parser.add_argument("--n-plus", type=float, help="mean photon number, bright state")
    parser.add_argument("--n-minus", type=float, help="mean photon number, dark state")


def _add_setting_args(parser) -> None:
    parser.add_argument("--alpha", type=float, help="measurement rotation magnitude (rad)")
    parser.add_argument("--phi", type=float, help="electron readout azimuth (rad)")
    _add_readout_args(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qndspin",
        description="Cascaded electron-mediated weak measurements on a nuclear spin",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_out, config=True):
        if config:
            p.add_argument("--config", help=_CONFIG_HELP)
        p.add_argument("--out", default=default_out, help="output path prefix")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")

    p = sub.add_parser("table1", help="Larmor periods of the built-in parameter sets")
    p.add_argument("--preset", choices=sorted(PRESETS))
    common(p, "table1", config=False)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("binary-stats", help="single-measurement moments and strength")
    common(p, "binary_stats")
    _add_setting_args(p)
    p.set_defaults(func=_cmd_binary_stats)

    p = sub.add_parser("distribution", help="conditional laws of the averaged outcome")
    common(p, "distribution")
    _add_setting_args(p)
    p.add_argument("--n", type=_count, required=True, help="number of binary measurements")
    p.add_argument("--law", choices=("exact", "gaussian"), default="exact")
    p.set_defaults(func=_cmd_distribution)

    p = sub.add_parser("fidelity", help="threshold readout fidelity of the cascade")
    common(p, "fidelity")
    _add_setting_args(p)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--threshold-mode", choices=("exact", "gaussian"), default="exact")
    p.set_defaults(func=_cmd_fidelity)

    p = sub.add_parser("qnd-solve", help="waiting times satisfying the QND condition")
    common(p, "qnd_solve")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--tau-ns", type=float, help="CPMG period (ns)")
    p.set_defaults(func=_cmd_qnd_solve)

    p = sub.add_parser("stability", help="survival curve under rotation errors")
    common(p, "stability", config=False)
    p.add_argument("--alpha-vec", type=_vector, required=True, help="x,y,z (rad)")
    p.add_argument("--error", choices=("systematic", "random"), default="systematic")
    p.add_argument("--delta-phi", type=float, required=True, help="error angle or std (rad)")
    p.add_argument("--error-axis", type=_vector, default=np.array([0.0, 0.0, 1.0]))
    p.add_argument("--n-max", type=_count, default=10_000)
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("trajectories", help="stochastic measurement records")
    common(p, "trajectories")
    _add_setting_args(p)
    p.add_argument("--n", type=_count, required=True, help="cycles per trajectory")
    p.add_argument("--n-traj", type=_count, default=1000)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--initial", choices=("plus", "minus", "mixed"), default="plus")
    p.add_argument(
        "--cycle-rot",
        type=_vector,
        default=np.zeros(3),
        help="per-cycle rotation vector x,y,z (rad)",
    )
    p.set_defaults(func=_cmd_trajectories)

    p = sub.add_parser("nv-scan", help="2D (t_DD, t_R) lifetime and tolerance scan")
    p.add_argument("--config", help=_CONFIG_HELP)
    p.add_argument("--preset", choices=sorted(PRESETS))
    _add_readout_args(p)
    p.add_argument("--out-dir", default="nv_scan_out")
    p.add_argument("--force", action="store_true")
    p.add_argument("--n-tdd", type=_count, help="sequence-duration grid points")
    p.add_argument("--n-tr", type=_count, help="waiting-time grid points")
    p.add_argument("--n-max", type=_count, help="lifetime iteration cap")
    p.set_defaults(func=_cmd_nv_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.started = time.time()
    try:
        args.func(args)
    except (ConfigError, argparse.ArgumentTypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
