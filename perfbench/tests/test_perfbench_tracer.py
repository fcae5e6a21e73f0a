"""Tracer: self-time arithmetic, span parents, and removal of the wrappers."""

import importlib
import inspect
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import tracer as tracing  # noqa: E402


def _bindings():
    """Every function bound in a qndspin module, by (module, name)."""
    out = {}
    for short in ("__init__",) + tuple(tracing.LAYER_OF_MODULE):
        name = "qndspin" if short == "__init__" else f"qndspin.{short}"
        module = importlib.import_module(name)
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj):
                out[(name, attr)] = obj
    return out


def test_self_time_of_synthetic_nested_calls():
    # outer [0, 10] -> a [1, 4] -> c [2, 3]; outer -> b [5, 7]; a second
    # root d [11, 12]; a recursive e [20, 30] -> e [21, 25].
    spans = [
        ["nv.outer", "nv", 0.0, 10.0, -1],
        ["control.a", "control", 1.0, 4.0, 0],
        ["rotations.c", "rotations", 2.0, 3.0, 1],
        ["control.b", "control", 5.0, 7.0, 0],
        ["nv.d", "nv", 11.0, 12.0, -1],
        ["stability.e", "stability", 20.0, 30.0, -1],
        ["stability.e", "stability", 21.0, 25.0, 5],
    ]
    s = tracing.summarize(spans)
    assert s["layer_self"]["nv"] == pytest.approx((10 - 3 - 2) + 1)
    assert s["layer_self"]["control"] == pytest.approx((3 - 1) + 2)
    assert s["layer_self"]["rotations"] == pytest.approx(1)
    assert s["layer_self"]["stability"] == pytest.approx(10)
    assert s["layer_calls"] == {"nv": 2, "control": 2, "rotations": 1, "stability": 2}
    # inclusive time counts the outermost call of a recursive function once
    assert s["fn_total"]["stability.e"] == pytest.approx(10)
    assert s["fn_calls"]["stability.e"] == 2
    assert s["root_s"] == pytest.approx(10 + 1 + 10)
    assert sum(s["layer_self"].values()) == pytest.approx(s["root_s"])
    assert s["spans"] == len(spans)


def test_traced_call_records_cross_module_children():
    import numpy as np

    import qndspin.stability as stability

    with tracing.Tracer() as tr:
        matrix = stability.dephasing_map(np.array([0.0, 0.0, 0.3]))
    assert np.allclose(np.diag(matrix), [math.cos(0.3), math.cos(0.3), 1.0])
    names = [span[0] for span in tr.spans]
    assert names[0] == "stability.dephasing_map"
    children = [span for span in tr.spans if span[4] == 0]
    assert sorted(span[0] for span in children) == [
        "rotations.rotor_exp",
        "rotations.rotor_exp",
        "rotations.so3_from_rotor",
        "rotations.so3_from_rotor",
    ]
    assert all(span[2] <= span[3] for span in tr.spans)


def test_wrappers_are_installed_at_every_import_site_and_removed():
    import qndspin.control as control
    import qndspin.nv as nv
    import qndspin.rotations as rotations

    before = _bindings()
    tr = tracing.Tracer()
    tr.install()
    try:
        original = before[("qndspin.rotations", "rotor_exp")]
        assert rotations.rotor_exp is not original
        assert control.rotor_exp.__wrapped__ is original
        assert nv.solve_waiting_time.__wrapped__ is before[("qndspin.control", "solve_waiting_time")]
        # private helpers are left alone
        assert nv._batched_lifetimes is before[("qndspin.nv", "_batched_lifetimes")]
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_wrappers_are_removed_when_the_traced_call_raises():
    import qndspin.stability as stability

    before = _bindings()
    with pytest.raises(ValueError):
        with tracing.Tracer() as tr:
            stability.analytic_survival("no-such-kind", 1.0, 0.1, 3)
    assert tr.spans[0][0] == "stability.analytic_survival"
    assert tr.spans[0][3] >= tr.spans[0][2]
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
