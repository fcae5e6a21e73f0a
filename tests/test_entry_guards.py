"""One table of the library's entry guards.

Every count, seed, 3-vector, axis and number that enters the library
through an ``__all__`` entry point is refused, when bad or beyond the domain
of the ``rotations`` docstring, with a ``ValueError`` whose message starts
with the argument's name, before any random draw, kernel loop or law is
computed; at the domain's edges each call runs, or is refused by name, with
no warning.  The list of entry points comes
from each module's ``__all__`` (and the public methods of its classes) through
``inspect.signature``: a parameter with a guarded name that has no row in
the table fails ``test_every_guarded_parameter_has_rows``.
"""

import importlib
import inspect
import math
import pkgutil
import re
import types

import numpy as np
import pytest
import scipy.special

import qndspin
from qndspin import cascade, control, hyperfine, measurement, nv, rotations, stability, trajectory
from qndspin.rotations import M, Rotor

# parameter names that must pass one of the shared guards wherever they appear
GUARDED = frozenset(
    {
        "n",
        "n_max",
        "n_traj",
        "n_seeds",
        "n_periods",
        "n_dd",
        "order",
        "n_repeats",
        "master_seed",
        "alpha_vec",
        "alpha_hat",
        "axis",
    }
)

# result records: the library builds them after its own guards
RECORDS = {
    "cascade.FidelityReport": "built by readout_fidelity from a checked distribution",
    "nv.ScanResult": "built by scan_2d after its guards",
}

# the name a message starts with, where it is not the parameter's
MESSAGE_NAMES = {"master_seed": "master seed"}

NAN, INF = math.nan, math.inf
_NON_FINITE = {"nan": NAN, "inf": INF, "-inf": -INF}
_COUNT = {"0": 0, "-1": -1, "2.5": 2.5, "True": True, **_NON_FINITE}
_NON_FINITE_ROWS = {"nan": [NAN, 0.0, 1.0], "inf": [0.0, INF, 0.0], "-inf": [-INF, 0.0, 0.0]}
_BAD_AXIS_ROWS = {"zero": [0.0, 0.0, 0.0], **_NON_FINITE_ROWS}
_WRONG_SHAPES = {"two entries": [1.0, 0.0], "scalar": 0.5, "two rows": np.eye(3)[:2]}

# Beyond the domain of the rotations docstring: a magnitude above M (1e75), as a
# number, as a 3-vector's entry or norm; what the library divides or normalizes
# by (a frequency, a period, a strength, an axis's norm) is also refused below 1/M.
_ABOVE = {
    "1.0001 M": 1.0001 * M,
    "-1.0001 M": -1.0001 * M,
    "1e150": 1e150,
    "1e154": 1e154,
    "1e160": 1e160,
    "1e291": 1e291,
    "1e300": 1e300,
    "1.7e308": 1.7e308,
}
_BELOW = {"0.9999 / M": 0.9999 / M, "2e-200": 2e-200, "1e-300": 1e-300, "1e-320": 1e-320}
_ABOVE_ROWS = {case: [value, 0.0, 0.0] for case, value in _ABOVE.items()}
_ABOVE_ROWS["norm 1.4 M"] = [M, M, 0.0]
_BELOW_ROWS = {case: [value, 0.0, 0.0] for case, value in _BELOW.items()}
_PERIODS = {"0": 0.0, "-1": -1.0, **_NON_FINITE, **_ABOVE, **_BELOW}


def _nan_state():
    state = trajectory.NuclearState.mixed()
    state.bloch = np.array([NAN, 0.0, 0.0])  # past the constructor's check
    return state


# a wait field omega + A/2 of zero, which the waiting-time closed forms divide by
_NO_WAIT = hyperfine.SpinSystem.from_vectors([0.0, 0.0, 1.0], [0.0, 0.0, -2.0])

# bad values per kind of argument
BAD = {
    "count": _COUNT,
    "count >= 2": {**_COUNT, "1": 1},
    # first_crossing's horizon is an int64
    "horizon count": {**_COUNT, "2**63": 2**63},
    "seed": {"-1": -1, "2.5": 2.5, "True": True, **_NON_FINITE},
    "number": {**_NON_FINITE, **_ABOVE},
    "vector": {**_NON_FINITE_ROWS, **_WRONG_SHAPES, **_ABOVE_ROWS},
    "rows": {**_NON_FINITE_ROWS, "two entries": [1.0, 0.0], "scalar": 0.5, **_ABOVE_ROWS},
    "axis": {**_BAD_AXIS_ROWS, **_WRONG_SHAPES, **_ABOVE_ROWS, **_BELOW_ROWS},
    # solve_waiting_time refuses shapes jointly for phi_dd and alpha_hat (tests/test_control.py)
    "finite rows": {**_NON_FINITE_ROWS, **_ABOVE_ROWS},
    "axis rows": {**_BAD_AXIS_ROWS, **_ABOVE_ROWS, **_BELOW_ROWS},
    "bloch": {**_WRONG_SHAPES, **_NON_FINITE_ROWS, **_ABOVE_ROWS},
    "grid": {"nan": [1e-7, NAN], "inf": [0.0, INF], **{c: [0.0, v] for c, v in _ABOVE.items()}},
    # CPMG periods
    "period grid": {c: [1e-6, v] for c, v in _PERIODS.items()},
    "std": {"nan": NAN, "inf": INF, "-1": -1.0, **_ABOVE},
    "rotor": {
        "nan": Rotor(NAN, np.zeros(3)),
        "inf": Rotor(1.0, np.array([0.0, INF, 0.0])),
        "1e300": Rotor(1.0, np.array([0.0, 1e300, 0.0])),
    },
    "state": {"nan": _nan_state()},
    # a divisor, or a projective inf
    "strength": {"nan": NAN, "0": 0.0, "-1": -1.0, "-inf": -INF, **_ABOVE, **_BELOW},
    "tolerance": {"nan": NAN, "-1": -1.0, **_ABOVE},
    "curve": {"nan": [1.0, NAN, 0.1], "inf": [1.0, INF, 0.1], "1e300": [1.0, 1e300, 0.1]},
    "maps": {
        "nan": [[[NAN, 0, 0], [0, 1, 0], [0, 0, 1]]] * 2,
        "1e300": [[[1e300, 0, 0], [0, 1, 0], [0, 0, 1]]] * 2,
        "one map": np.eye(3),
        "maps of two": np.zeros((2, 2, 2)),
        "fewer maps": np.eye(3)[None],
    },
    "axes": {
        "nan": [[NAN, 0, 1], [0, 0, 1]],
        "1e300": [[1e300, 0, 1], [0, 0, 1]],
        "zero": np.zeros((2, 3)),
        "one axis": [0, 0, 1],
    },
    "horizon": {
        "2.5": 2.5,
        "True": True,
        "nan": NAN,
        "floats": [9.0, 9.5],
        "3 for 2 points": np.array([9, 9, 9]),
        "2**63": 2**63,
        "uint64 2**63": np.full(2, 2**63, dtype=np.uint64),
    },
    # the systematic laws divide by tan(alpha_mag / 2)**2
    "half angle": {**_NON_FINITE, "0": 0.0, "-0": -0.0, "2e-200": 2e-200, **_ABOVE},
    # a frequency, which the filter functions divide by
    "frequency": {**_NON_FINITE, "0": 0.0, "-1": -1.0, **_ABOVE, **_BELOW},
    # a positive field whose omega_n does not round away against A/2 in the wait field
    "field": {**_NON_FINITE, "0": 0.0, "-1": -1.0, **_ABOVE, "1e-60": 1e-60},
    # omega_n = gamma B is a frequency: gamma = 0 gives none
    "gyromagnetic ratio": {**_NON_FINITE, "0": 0.0, **_ABOVE},
    # |A| in rad/s lies in the domain too, although it is given in MHz
    "hyperfine MHz": {**_NON_FINITE_ROWS, **_WRONG_SHAPES, **_ABOVE_ROWS, "1e70": [1e70, 0, 0]},
    "period": {**_PERIODS, "[1, 1.7e308]": [1.0, 1.7e308], "[1, 1e-300]": [1.0, 1e-300]},
    "scalar period": _PERIODS,
    # a pure state lies along +alpha_hat or -alpha_hat; 0 or 0.5 would be mixed
    "branch": {"0": 0, "0.5": 0.5, "2": 2, "nan": NAN},
    # one 5e74 s interval turns by about 1e81 rad, beyond the domain
    "sequence": {"tau 1e75": hyperfine.cpmg(1, 1e75)},
    # a filter function is one number per sequence
    "one sequence": {"batch of 2": hyperfine.cpmg(2, [1e-6, 2e-6])},
    "setting vector": {
        **_NON_FINITE_ROWS,
        **_WRONG_SHAPES,
        **_ABOVE_ROWS,
        "1e160 along z": [0.0, 0.0, 1e160],
        "beyond pi": [0.0, 0.0, 4.0],
    },
    "ideal setting": {
        "p 0.9": measurement.MeasurementSetting(
            [0.0, 0.0, 0.3], 1.0, measurement.ReadoutModel(0.9, 0.9)
        ),
    },
    "given": {"None": None},
    "wait field": {"zero": _NO_WAIT},
}

EZ = np.array([0.0, 0.0, 1.0])
_SETTING = measurement.MeasurementSetting(0.3 * EZ, 1.0)
_TRAJECTORY = {
    "setting": _SETTING,
    "cycle_rotation": Rotor(1.0, np.zeros(3)),
    "initial": trajectory.NuclearState.mixed(),
    "n": 5,
}
_P2 = nv.PRESETS["P2"]
_HALF = np.array([0.5, 0.5])

# entry point: (callable, valid arguments, {parameter: kind of bad values})
ENTRIES = {
    "rotations.rotor_exp": (rotations.rotor_exp, {"theta": 0.3 * EZ}, {"theta": "rows"}),
    "cascade.critical_n": (cascade.critical_n, {"strength_d": 0.1}, {"strength_d": "strength"}),
    "cascade.OutcomeDistribution": (
        cascade.OutcomeDistribution,
        {"n": 1, "probs_plus": _HALF, "probs_minus": _HALF},
        {"n": "count"},
    ),
    "cascade.exact_distribution": (
        cascade.exact_distribution,
        {"setting": _SETTING, "n": 4},
        {"n": "count"},
    ),
    "cascade.gaussian_distribution": (
        cascade.gaussian_distribution,
        {"setting": _SETTING, "n": 4},
        {"n": "count"},
    ),
    "control.qnd_residual": (
        control.qnd_residual,
        {"total": Rotor(1.0, np.zeros(3)), "alpha_hat": EZ},
        {"alpha_hat": "axis"},
    ),
    "control.solve_waiting_time": (
        control.solve_waiting_time,
        {
            "sys": hyperfine.SpinSystem.from_vectors([0.1, 0.0, 0.9], [0.2, -0.1, 0.05]),
            "phi_dd": [0.1, 0.2, 0.3],
            "alpha_hat": EZ,
            "window": (0.0, 1.0),
        },
        {"alpha_hat": "axis rows", "phi_dd": "finite rows", "sys": "wait field"},
    ),
    "control.concatenated_dd": (
        control.concatenated_dd,
        {"order": 2, "base_tau": 1.0, "n_repeats": 1},
        {"order": "count", "n_repeats": "count"},
    ),
    "hyperfine.SpinSystem": (
        hyperfine.SpinSystem,
        {"omega_n": 1.0, "a_plus": np.zeros(3), "a_minus": np.zeros(3)},
        {"omega_n": "number", "a_plus": "vector", "a_minus": "vector"},
    ),
    "hyperfine.SpinSystem.from_vectors": (
        hyperfine.SpinSystem.from_vectors,
        {"omega": [0.1, 0.0, 0.9], "hyperfine": [0.2, -0.1, 0.05]},
        {"omega": "vector", "hyperfine": "vector"},
    ),
    "hyperfine.exact_dd_evolution": (
        hyperfine.exact_dd_evolution,
        {"sys": nv.nv_system(_P2), "seq": hyperfine.cpmg(6, 1e-6)},
        {"seq": "sequence"},
    ),
    "hyperfine.cpmg": (
        hyperfine.cpmg,
        {"n_periods": 2, "tau": 1.0},
        {"n_periods": "count", "tau": "period"},
    ),
    "hyperfine.cpmg_filter_closed_form": (
        hyperfine.cpmg_filter_closed_form,
        {"n_periods": 2, "tau": 1.0, "omega_mag": 1.0},
        {"n_periods": "count", "tau": "scalar period", "omega_mag": "frequency"},
    ),
    "hyperfine.filter_function": (
        hyperfine.filter_function,
        {"seq": hyperfine.cpmg(2, 1e-6), "omega_mag": 1.0},
        {"seq": "one sequence", "omega_mag": "frequency"},
    ),
    "hyperfine.match_alpha_branch": (
        hyperfine.match_alpha_branch,
        {"alpha_vec": 0.3 * EZ, "reference": 0.2 * EZ},
        {"alpha_vec": "vector"},
    ),
    "measurement.MeasurementSetting": (
        measurement.MeasurementSetting,
        {"alpha_vec": 0.3 * EZ, "phi": 1.0},
        {"alpha_vec": "setting vector", "phi": "number"},
    ),
    "nv.NvParams": (
        nv.NvParams,
        {"b_gauss": 305.0, "n_dd": 6},
        {
            "n_dd": "count",
            "b_gauss": "field",
            "gamma_n_mhz_per_t": "gyromagnetic ratio",
            "a_mhz": "hyperfine MHz",
        },
    ),
    "nv.scan_2d": (
        nv.scan_2d,
        {
            "params": _P2,
            "tau_grid": nv.default_tau_grid(_P2, 2),
            "tr_grid": nv.default_tr_grid(_P2, 3),
            "readout": nv.room_temp_readout(0.1, 0.07),
            "n_max": 50,
        },
        {"n_max": "horizon count", "tau_grid": "period grid", "tr_grid": "grid"},
    ),
    "stability.RotationErrorModel": (
        stability.RotationErrorModel,
        {"kind": "random", "std": 0.1, "axis": EZ, "seed": 1},
        {"axis": "axis", "std": "std", "seed": "given"},
    ),
    "stability.RotationErrorModel systematic": (
        stability.RotationErrorModel,
        {"kind": "systematic", "delta_phi": 0.01 * EZ},
        {"delta_phi": "vector"},
    ),
    "stability.dephasing_map": (
        stability.dephasing_map,
        {"alpha_vec": 0.3 * EZ},
        {"alpha_vec": "rows"},
    ),
    "stability.first_crossing": (
        stability.first_crossing,
        {
            "maps": np.stack([np.diag([0.5, 0.5, 0.9])] * 2),
            "axes": np.tile(EZ, (2, 1)),
            "horizon": 9,
        },
        {"maps": "maps", "axes": "axes", "horizon": "horizon"},
    ),
    "stability.survival_curve": (
        stability.survival_curve,
        {
            "alpha_vec": 0.3 * EZ,
            "error": stability.RotationErrorModel("systematic", delta_phi=[0.01, 0.0, 0.0]),
            "n_max": 10,
        },
        {"alpha_vec": "vector", "n_max": "count"},
    ),
    "stability.survival_ensemble": (
        stability.survival_ensemble,
        {
            "alpha_vec": 0.3 * EZ,
            "std": 0.1,
            "axis": EZ,
            "n_max": 10,
            "n_seeds": 4,
            "master_seed": 1,
        },
        {
            "alpha_vec": "vector",
            "std": "std",
            "axis": "axis",
            "n_max": "count",
            "n_seeds": "count >= 2",
            "master_seed": "seed",
        },
    ),
    "stability.lifetime": (stability.lifetime, {"values": [1.0, 0.5, 0.1]}, {"values": "curve"}),
    "stability.analytic_survival": (
        stability.analytic_survival,
        {"kind": "random", "alpha_mag": 0.5, "delta_phi": 0.1, "n": np.arange(4)},
        {"n": "number", "alpha_mag": "number", "delta_phi": "number"},
    ),
    "stability.analytic_survival systematic": (
        stability.analytic_survival,
        {"kind": "systematic", "alpha_mag": 2.5, "delta_phi": 0.1, "n": np.arange(4)},
        {"alpha_mag": "half angle", "delta_phi": "number"},
    ),
    "stability.tolerance": (
        stability.tolerance,
        {"strength_d": 0.1, "alpha_mag": 0.5, "kind": "systematic"},
        {"strength_d": "strength", "alpha_mag": "half angle"},
    ),
    "stability.tolerance_time": (
        stability.tolerance_time,
        {"delta_phi_tol": 0.1, "sys": nv.nv_system(_P2)},
        {"delta_phi_tol": "tolerance", "sys": "wait field"},
    ),
    "trajectory.NuclearState": (trajectory.NuclearState, {"bloch": EZ}, {"bloch": "bloch"}),
    "trajectory.NuclearState.eigenstate": (
        trajectory.NuclearState.eigenstate,
        {"alpha_hat": EZ, "branch": 1},
        {"alpha_hat": "axis", "branch": "branch"},
    ),
    "trajectory.run": (
        trajectory.run,
        {**_TRAJECTORY, "seed": 0},
        {"setting": "ideal setting", "n": "count", "cycle_rotation": "rotor", "initial": "state"},
    ),
    "trajectory.run_ensemble": (
        trajectory.run_ensemble,
        {**_TRAJECTORY, "n_traj": 4, "master_seed": 0},
        {
            "setting": "ideal setting",
            "n": "count",
            "n_traj": "count",
            "master_seed": "seed",
            "cycle_rotation": "rotor",
            "initial": "state",
        },
    ),
}

ROWS = [
    pytest.param(entry, parameter, value, id=f"{entry} {parameter} {case}")
    for entry, (_, _, kinds) in ENTRIES.items()
    for parameter, kind in kinds.items()
    for case, value in BAD[kind].items()
]


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


@pytest.fixture
def no_work(monkeypatch):
    """Every draw and kernel an entry point could reach fails the test."""
    monkeypatch.setattr(np.random, "default_rng", _refuse)
    monkeypatch.setattr(scipy.special, "gammaln", _refuse)
    monkeypatch.setattr(cascade, "_gaussian_law", _refuse)
    monkeypatch.setattr(nv, "exact_dd_evolution", _refuse)
    monkeypatch.setattr(nv, "first_crossing", _refuse)
    for module in (trajectory, stability):
        monkeypatch.setattr(module, "_streams", _refuse)
        monkeypatch.setattr(module, "_slices", _refuse)
    monkeypatch.setattr(stability, "_survival_values", _refuse)


@pytest.mark.parametrize("entry, parameter, value", ROWS)
def test_bad_arguments_are_refused_by_name_before_any_work(no_work, entry, parameter, value):
    call, valid, _ = ENTRIES[entry]
    name = MESSAGE_NAMES.get(parameter, parameter)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must "):
        call(**{**valid, parameter: value})


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_valid_arguments_pass_the_guards(entry):
    """Each row changes one argument of a call that runs as given."""
    call, valid, _ = ENTRIES[entry]
    call(**valid)


_M_ROWS = {"M": [M, 0.0, 0.0], "-M": [0.0, -M, 0.0]}
_M_AXES = {"M": [M, 0.0, 0.0], "1/M": [0.0, 0.0, 1.0 / M]}
_M_DIVISOR = {"M": M, "1/M": 1.0 / M}
# the domain's edges per kind of argument: M in magnitude, and 1/M for a divisor
# (maps have none: first_crossing raises a map to powers, which only a
# contraction keeps in range)
EDGES = {
    "number": {"M": M, "-M": -M},
    "half angle": {"M": M, "-M": -M},
    "gyromagnetic ratio": {"M": M, "-M": -M},
    "std": {"M": M},
    "tolerance": {"M": M},
    "field": {"M": M},
    "frequency": _M_DIVISOR,
    "strength": _M_DIVISOR,
    "scalar period": _M_DIVISOR,
    "period": _M_DIVISOR,
    "vector": _M_ROWS,
    "rows": _M_ROWS,
    "finite rows": _M_ROWS,
    "setting vector": _M_ROWS,
    "hyperfine MHz": _M_ROWS,
    "bloch": _M_ROWS,
    "axis": _M_AXES,
    "axis rows": _M_AXES,
    "grid": {"M": [0.0, M], "-M": [-M, 0.0]},
    "period grid": {"M": [1e-6, M], "1/M": [1.0 / M, 1e-6]},
    "curve": {"M": [1.0, M, 0.1]},
    "axes": {"M": [[M, 0, 1], [0, 0, 1]], "1/M": [[1.0 / M, 0, 0], [0, 0, 1]]},
    "horizon": {"2**63 - 1": 2**63 - 1},
}
# where a product of the edge and the other arguments leaves the domain, the
# check of that product answers, by the name it guards
ANSWERED_BY = {
    ("hyperfine.cpmg", "tau"): "duration",
    ("hyperfine.cpmg_filter_closed_form", "tau"): "duration",
    ("nv.scan_2d", "tau_grid"): "duration",
}
EDGE_ROWS = [
    pytest.param(entry, parameter, value, id=f"{entry} {parameter} {case}")
    for entry, (_, _, kinds) in ENTRIES.items()
    for parameter, kind in kinds.items()
    for case, value in EDGES.get(kind, {}).items()
]


@pytest.mark.parametrize("entry, parameter, value", EDGE_ROWS)
def test_the_domain_edges_run_or_are_refused_by_name(entry, parameter, value):
    """A float argument at the domain's edge, the others valid: the call returns,
    or raises a ``ValueError`` naming the argument; a warning is an error here."""
    call, valid, _ = ENTRIES[entry]
    name = ANSWERED_BY.get((entry.split(" ")[0], parameter), parameter)
    try:
        call(**{**valid, parameter: value})
    except ValueError as exc:
        assert name in str(exc)


def _entry_points():
    """``(dotted name, callable)`` for every ``__all__`` entry and its public methods."""
    for info in pkgutil.iter_modules(qndspin.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"qndspin.{info.name}")
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if callable(obj):
                yield f"{info.name}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    methods = (classmethod, staticmethod, types.FunctionType)
                    if not attr.startswith("_") and isinstance(member, methods):
                        yield f"{info.name}.{name}.{attr}", getattr(obj, attr)


def test_every_guarded_parameter_has_rows():
    """A new entry point taking a guarded name fails here until the table covers it."""
    covered = {}
    for entry, (_, _, kinds) in ENTRIES.items():
        covered.setdefault(entry.split(" ")[0], set()).update(kinds)
    seen, missing = set(), []
    for dotted, obj in _entry_points():
        try:
            parameters = set(inspect.signature(obj).parameters)
        except (TypeError, ValueError):  # builtins such as exception classes
            continue
        seen.add(dotted)
        if dotted not in RECORDS:
            uncovered = (parameters & GUARDED) - covered.get(dotted, set())
            missing += [f"{dotted}({name})" for name in sorted(uncovered)]
    assert missing == []
    assert set(RECORDS) <= seen and set(covered) <= seen  # neither list names a stale entry
