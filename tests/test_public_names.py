"""Public names stay resolvable, so a refactor cannot silently break the benchmark.

``perfbench/`` imports ``qndspin`` modules, calls their functions and traces
them by name; a rename there would only show up as a failed or empty
benchmark run.  These tests fail first.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import qndspin

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# The names ROADMAP lists under "perfbench is coupled to public names", plus
# the import-site bindings perfbench's tracer tests pin.
COUPLED_NAMES = [
    "nv.scan_2d",
    "nv.tolerance_profile",
    "stability.dephasing_map",
    "stability.survival_curve",
    "stability.survival_ensemble",
    "stability.RotationErrorModel",
    "control.solve_waiting_time",
    "control.concatenated_dd",
    "rotations.rotor_exp",
    "hyperfine.exact_dd_evolution",
    "hyperfine.extract_alpha_phi",
    "hyperfine.SpinSystem.from_vectors",
    "trajectory.run",
    "trajectory.run_ensemble",
    "trajectory.NuclearState.mixed",
    "control.rotor_exp",
    "nv.solve_waiting_time",
    "nv._batched_lifetimes",
]

MODULES = sorted(m.name for m in pkgutil.iter_modules(qndspin.__path__) if m.name != "__main__")


def _resolve(dotted: str):
    """The object ``qndspin.<dotted>`` names, or ``None``."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"qndspin.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return obj


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"qndspin.{module}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("dotted", COUPLED_NAMES)
def test_names_coupled_to_the_benchmark_exist(dotted):
    assert callable(_resolve(dotted))


def _perfbench_uses():
    """``module.attr`` for every ``qndspin`` module attribute perfbench's code reads."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("qndspin.") and alias.asname:
                        aliases[alias.asname] = alias.name.split(".", 1)[1]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qndspin."):
                for alias in node.names:
                    yield f"{node.module.split('.', 1)[1]}.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    yield f"{aliases[node.value.id]}.{node.attr}"


def test_names_perfbench_reads_exist():
    uses = set(_perfbench_uses())
    assert len(uses) > 10  # the scan sees perfbench's imports
    assert not sorted(dotted for dotted in uses if _resolve(dotted) is None)
