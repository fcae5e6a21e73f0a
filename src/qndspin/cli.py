"""Command-line front end: subcommand dispatch, CSV emission, run manifests.

Conventions: angles in radians, frequencies in MHz, times in nanoseconds at
the interface (seconds internally).  Each key of ``config.KEYS`` with help
text has a flag named after its last part (``--n-traj`` sets ``n_traj``,
nv-scan's ``--n-tdd`` sets ``scan.n_tdd``), whose text ``_value`` parses as
a config value.  Each subcommand resolves its keys (``Inputs.gather``), claims
its paths with ``_outputs`` (refusing existing ones before any work; a run
that fails removes the directories it made), computes, and hands ``(header,
columns)`` tables to ``_emit``, the one writer: the CSVs, then a JSON manifest
of the resolved keys (``parameters``, which replay as a ``--config``), the
given keys not read, version, wall time, diagnostics and the digest of the
bytes as written.  Exit codes: 0 success, 2 refused input (any
``ValueError``, from a resolver or the library), 1 any other failure.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .config import KEYS, Inputs
from .control import solve_waiting_time
from .hyperfine import exact_dd_evolution, extract_alpha_phi
from .measurement import MeasurementSetting, binary_stats
from .nv import (
    PRESETS,
    default_tau_grid,
    default_tr_grid,
    nv_system,
    room_temp_readout,
    scan_2d,
    tolerance_profile,
)
from .rotations import M, _unit_axis, rotor_exp
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
        path = args.out_dir
        while path and not os.path.exists(path):  # what makedirs makes, leaf first
            args.made.append(path)
            path = os.path.dirname(path)
        try:
            os.makedirs(args.out_dir, exist_ok=True)  # a collision needs it to exist already
        except OSError as exc:  # a file in the way, or no permission
            raise ValueError(f"cannot create --out-dir {args.out_dir}: {exc.strerror}") from exc
        paths = [os.path.join(args.out_dir, name) for name in (*names, "manifest.json")]
    elif os.path.isdir(os.path.dirname(args.out) or "."):
        paths = [args.out + ".csv", args.out + ".manifest.json"]
    else:
        raise ValueError(f"--out {args.out}: its directory does not exist")
    for path in paths:
        if os.path.exists(path) and not args.force:
            raise ValueError(f"output {path} exists (use --force to overwrite)")
    return paths


def _cell_texts(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_fmt`` of each distinct value of ``column``, and each cell's index into them.

    Floats are keyed by their bit pattern, so ``-0.0``, ``0.0`` and every
    nan keep the text of their own bits, and integers by value; any other
    column is formatted cell by cell.
    """
    if column.dtype == np.float64:
        keys = column.view(np.uint64)
    elif column.dtype.kind in "iu":
        keys = column
    else:
        return np.array(list(map(_fmt, column.tolist())), dtype=object), np.arange(len(column))
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    return np.array(list(map(_fmt, column[first].tolist())), dtype=object), index


def _csv_blocks(header, columns):
    """The CSV text of ``header`` and equal-length ``columns``, ``_ROWS`` rows at a time.

    Each column's distinct values are formatted once (``_cell_texts``), so
    every cell reads as ``_fmt`` of its Python scalar.
    """
    columns = [np.asarray(column) for column in columns]
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"columns of unequal lengths under {header}")
    yield ",".join(header) + "\n"
    cells = [_cell_texts(column) for column in columns]
    for start in range(0, len(columns[0]), _ROWS):
        block = [texts[index[start : start + _ROWS]].tolist() for texts, index in cells]
        yield "\n".join(map(",".join, zip(*block))) + "\n"


def _emit(args, paths: list[str], inputs: Inputs, tables, diagnostics: dict | None = None) -> None:
    """Write each ``(header, columns)`` table to its path, then the manifest.

    The manifest's ``parameters`` are the resolved inputs, ``ignored_keys``
    the given keys the subcommand does not read, and ``sha256`` maps each
    CSV path to the digest of the bytes as written.
    The manifest's ``diagnostics`` are the given ones (if any) and ``write_s``
    (CSV seconds); ``*_s`` keep 3 decimals.
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
        "parameters": inputs.params,
        "ignored_keys": inputs.ignored,
        "outputs": paths[:-1],
        "sha256": digests,
        "wall_time_s": round(time.time() - args.started, 3),
    }
    timed = dict(diagnostics or {}, write_s=time.perf_counter() - written)
    seconds = {key: round(value, 3) for key, value in timed.items() if key.endswith("_s")}
    manifest["diagnostics"] = dict(timed, **seconds)
    with open(paths[-1], "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _setting(inputs: Inputs) -> MeasurementSetting:
    """The measurement setting of ``alpha``, ``phi`` and the readout keys."""
    readout = inputs.readout()
    alpha = inputs.resolve("alpha")
    phi = inputs.resolve("phi")
    return MeasurementSetting(alpha * np.array([0.0, 0.0, 1.0]), phi, readout)


# ----------------------------------------------------------------- commands

def _cmd_table1(args, inputs: Inputs) -> None:
    preset = inputs.resolve("preset")
    paths = _outputs(args)
    names = [preset] if preset else sorted(PRESETS)
    presets = [PRESETS[name] for name in names]
    periods = [(p.larmor_period_wait * 1e9, p.larmor_period_dd * 1e9) for p in presets]
    columns = [names, [p.n_dd for p in presets], [p.b_gauss for p in presets], *zip(*periods)]
    for row in zip(*columns):
        print("{}: N_DD={} B={:g} G  T_R={:.0f} ns  T={:.0f} ns".format(*row))
    header = ["preset", "N_DD", "B_gauss", "T_R_ns", "T_ns"]
    _emit(args, paths, inputs, [(header, columns)])


def _cmd_binary_stats(args, inputs: Inputs) -> None:
    setting = _setting(inputs)
    paths = _outputs(args)
    stats = binary_stats(setting)
    print(
        f"alpha={setting.alpha_mag:g} phi={setting.phi:g}  "
        f"<u>_+ = {stats.mean_plus:.6f}  <u>_- = {stats.mean_minus:.6f}  "
        f"D = {stats.strength_d:.6g}"
    )
    header = ["alpha", "phi", "p_plus", "p_minus"]
    header += ["mean_plus", "mean_minus", "sigma_plus", "sigma_minus", "D"]
    cells = (setting.alpha_mag, setting.phi, *astuple(setting.readout), *astuple(stats))
    _emit(args, paths, inputs, [(header, [[v] for v in cells])])


def _cmd_distribution(args, inputs: Inputs) -> None:
    setting = _setting(inputs)
    n, law = map(inputs.resolve, ("n", "law"))
    paths = _outputs(args)
    started = time.perf_counter()
    dist = (gaussian_distribution if law == "gaussian" else exact_distribution)(setting, n)
    diagnostics = {"law_s": time.perf_counter() - started}
    header = ["u_bar", "p_plus_alpha", "p_minus_alpha"]
    table = (header, [dist.u_grid, dist.probs_plus, dist.probs_minus])
    _emit(args, paths, inputs, [table], diagnostics)
    print(f"wrote {paths[0]} ({n + 1} outcomes, law={law})")


def _cmd_fidelity(args, inputs: Inputs) -> None:
    setting = _setting(inputs)
    n, mode = map(inputs.resolve, ("n", "threshold_mode"))
    strength_d = binary_stats(setting).strength_d
    critical_n(strength_d)  # the cascade's own test for an informative shot
    paths = _outputs(args)
    started = time.perf_counter()
    dist = exact_distribution(setting, n)
    law_s, started = time.perf_counter() - started, time.perf_counter()
    threshold = optimal_threshold(dist, mode=mode)
    report = readout_fidelity(dist, threshold, strength_d)
    diagnostics = {"law_s": law_s, "threshold_s": time.perf_counter() - started}
    print(
        f"n={n}  D={strength_d:.6g}  "
        f"u_th={threshold:.6g}  F_bar={report.f_bar:.4f}  (erf: {report.f_erf:.4f})"
    )
    cells = {"n": report.n, "D": strength_d, "DN": report.strength_dn, "u_th": report.u_threshold}
    cells.update(F_plus=report.f_plus, F_minus=report.f_minus)
    cells.update(F_bar=report.f_bar, F_erf=report.f_erf)
    _emit(args, paths, inputs, [(list(cells), [[v] for v in cells.values()])], diagnostics)


def _cmd_qnd_solve(args, inputs: Inputs) -> None:
    params = inputs.nv_params()
    seq = inputs.sequence(params)
    paths = _outputs(args)
    sys_ = nv_system(params)
    alpha_vec, phi_dd = extract_alpha_phi(*exact_dd_evolution(sys_, seq))
    mag = np.linalg.norm(alpha_vec)
    if mag == 0.0:
        raise ValueError(
            "tau_ns, B_gauss, N_DD, gamma_n_MHz_per_T and A_MHz must give a nonzero measurement "
            f"vector alpha_vec, got |alpha_vec| = 0 at tau_ns = {float(inputs.params['tau_ns'])!r}"
        )
    roots = solve_waiting_time(sys_, phi_dd, alpha_vec / mag, (0.0, sys_.wait_period))
    times, residuals = np.array(roots).T
    _emit(args, paths, inputs, [(["t_R_ns", "residual_rad"], [times * 1e9, residuals])])
    best = min(roots, key=lambda r: r[1])
    print(
        f"{len(roots)} root(s) of the QND condition in [0, T_R]; best residual {best[1]:.3e} rad "
        f"at t_R = {best[0] * 1e9:.3f} ns"
    )


def _cmd_stability(args, inputs: Inputs) -> None:
    keys = ("alpha_vec", "error", "delta_phi", "error_axis", "n_max", "seed")
    alpha_vec, kind, delta_phi, error_axis, n_max, seed = map(inputs.resolve, keys)
    alpha_mag = float(np.linalg.norm(alpha_vec))
    # the measurement axis divides by |alpha|, which is canonical as in MeasurementSetting
    if not 1.0 / M <= alpha_mag <= math.pi + 1e-9:
        raise ValueError(f"alpha_vec must have a magnitude in [{1.0 / M:g}, pi], got {alpha_mag}")
    if kind == "systematic":
        axis = _unit_axis(error_axis, "error_axis")
        error = RotationErrorModel(kind, delta_phi=delta_phi * axis, seed=seed)  # refuses a seed
    else:  # the random model normalizes its axis itself
        error = RotationErrorModel("random", std=delta_phi, axis=error_axis, seed=seed)
    paths = _outputs(args)
    started = time.perf_counter()
    curve = survival_curve(alpha_vec, error, n_max)
    diagnostics = {"curve_s": time.perf_counter() - started}
    steps = np.arange(n_max + 1)
    analytic = analytic_survival(kind, alpha_mag, delta_phi, steps)
    table = (["N", "S_sim", "S_analytic"], [steps, curve.values, analytic])
    _emit(args, paths, inputs, [table], diagnostics)
    print(f"lifetime N_L = {curve.lifetime}")


def _cmd_trajectories(args, inputs: Inputs) -> None:
    setting = _setting(inputs)  # run_ensemble refuses a non-ideal readout before any draw
    n, n_traj, seed, initial = map(inputs.resolve, ("n", "n_traj", "seed", "initial"))
    branch = {"plus": 1, "minus": -1}.get(initial)
    state = NuclearState.eigenstate(setting.alpha_hat, branch) if branch else NuclearState.mixed()
    cycle_rot = rotor_exp(inputs.resolve("cycle_rot"))
    paths = _outputs(args)
    timings = Counter()
    u_bars, finals = run_ensemble(setting, cycle_rot, state, n, n_traj, seed, diagnostics=timings)
    header = ["seed", "u_bar", "final_bx", "final_by", "final_bz"]
    _emit(args, paths, inputs, [(header, [np.arange(n_traj), u_bars, *finals.T])], timings)
    print(f"wrote {paths[0]} ({n_traj} trajectories, <u_bar> = {u_bars.mean():.4f})")


def _cmd_nv_scan(args, inputs: Inputs) -> None:
    if "phi" in inputs.cfg:
        raise ValueError("phi must not be given: nv-scan reads out at pi/2; remove 'phi'")
    params = inputs.nv_params()
    readout = inputs.readout(room_temp_readout(0.1, 0.07))
    n_tdd, n_tr = map(inputs.resolve, ("scan.n_tdd", "scan.n_tr"))
    if n_tr < 2:
        raise ValueError(f"scan.n_tr must be >= 2 to span a search window, got {n_tr}")
    rel = (inputs.resolve("scan.tau_rel_min"), inputs.resolve("scan.tau_rel_max"))
    n_max = inputs.resolve("scan.n_max")
    tau_grid, tr_grid = default_tau_grid(params, n_tdd, rel), default_tr_grid(params, n_tr)
    paths = _outputs(args, "scan.csv", "tolerance.csv")
    diagnostics = Counter(no_crossing_points=0, bisection_probes=0, kernel_calls=0)
    scan = scan_2d(params, tau_grid, tr_grid, readout, n_max=n_max, diagnostics=diagnostics)
    started = time.perf_counter()
    profile = tolerance_profile(scan, diagnostics)
    diagnostics["tolerance_s"] = time.perf_counter() - started
    per_row = (scan.t_dd_grid * 1e9, scan.alpha_mags, scan.strengths, scan.n_crit)
    t_dd, mag, strength, n_c = (np.repeat(column, n_tr) for column in per_row)
    t_r = np.tile(scan.tr_grid * 1e9, n_tdd)
    scan_columns = [t_dd, t_r, mag, scan.residuals.ravel(), strength, n_c, scan.lifetimes.ravel()]
    tolerance_columns = [*(profile[:, :3] * 1e9).T, profile[:, 3]]
    tables = [
        (["t_DD_ns", "t_R_ns", "alpha_mag", "qnd_residual", "D", "N_c", "N_L"], scan_columns),
        (["t_DD_ns", "dtR_measured_ns", "dtR_worst_case_ns", "Nc"], tolerance_columns),
    ]
    _emit(args, paths, inputs, tables, diagnostics)
    finite = scan.lifetimes[np.isfinite(scan.lifetimes)]
    print(
        f"wrote {paths[0]} and {paths[1]}; "
        f"max finite N_L = {int(finite.max()) if finite.size else 0}, "
        f"{int(np.isinf(scan.lifetimes).sum())} divergent points"
    )


# ----------------------------------------------------------------- parser


def _value(text: str):
    """A flag's text as the config value it spells: an integer, a float,
    comma-separated floats, or else the text.  The key's resolver checks it."""
    for parse in (int, float, lambda given: [float(part) for part in given.split(",")]):
        with contextlib.suppress(ValueError):
            return parse(text)
    return text


def _help(spec) -> str:
    """A flag's help: a choice's names, the key's text, and its default if it has one."""
    text = " ".join(filter(None, ("|".join(spec.options), spec.help)))
    values = spec.default if isinstance(spec.default, tuple) else (spec.default,)
    spelled = ",".join(f"{v:g}" if isinstance(v, float) else str(v) for v in values)
    return text if spec.default is None or spec.default is ... else f"{text} (default {spelled})"


_COMMANDS = {
    "table1": (_cmd_table1, "Larmor periods of the built-in parameter sets"),
    "binary-stats": (_cmd_binary_stats, "single-measurement moments and strength"),
    "distribution": (_cmd_distribution, "conditional laws of the averaged outcome"),
    "fidelity": (_cmd_fidelity, "threshold readout fidelity of the cascade"),
    "qnd-solve": (_cmd_qnd_solve, "waiting times satisfying the QND condition"),
    "stability": (_cmd_stability, "survival curve under rotation errors"),
    "trajectories": (_cmd_trajectories, "stochastic measurement records"),
    "nv-scan": (_cmd_nv_scan, "2D (t_DD, t_R) lifetime and tolerance scan"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """One subparser per subcommand: the paths, and a flag per key of ``KEYS`` with help.

    With ``command``, only its subparser is built; the usage still names
    every subcommand, so its help and error texts are those of the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="qndspin",
        description="Cascaded electron-mediated weak measurements on a nuclear spin",
    )
    parser.add_argument("--version", action="version", version=__version__)
    metavar = "{" + ",".join(_COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (func, text) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON configuration file; a flag overrides its key")
        if name == "nv-scan":
            p.add_argument("--out-dir", default="nv_scan_out", help="output directory")
        else:
            p.add_argument("--out", default=name.replace("-", "_"), help="output path prefix")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        for key, spec in KEYS[name].items():
            if spec.help is not None:
                flag = "--" + key.rpartition(".")[2].replace("_", "-")
                p.add_argument(flag, type=_value, dest=key, help=_help(spec))
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named subcommand needs only its own parser; anything else gets the full one
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.started, args.made = time.time(), []
    try:
        args.func(args, Inputs.gather(args.command, args.config, vars(args)))
        return 0
    except ValueError as exc:  # refused input, wherever it was found
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except Exception as exc:  # any other failure
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    for path in args.made:  # the failed run's new directories; one holding a file stays
        with contextlib.suppress(OSError):
            os.rmdir(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
