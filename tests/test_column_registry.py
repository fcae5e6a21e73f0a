"""Every CSV column of every subcommand, and the test that ties it to physics.

``COLUMNS`` has one row per column of each CSV a subcommand writes.  A row
names the tier-1 tests that tie the column's values to an independent check,
and what kind of check that is:
- ``closed form``: a formula of the paper, evaluated apart from the code path;
- ``oracle``: a second, slower computation (a time-stepping loop, a dense scan,
  a naive first-crossing loop);
- ``invariant``: a symmetry or identity the values must keep;
- ``statistical``: a test against a law with a stated false-alarm rate;
- ``reference``: a number the paper reports.

A column that only restates an input, or whose values no test ties to anything
but this code's own earlier bytes (``tests/cli_golden.json``), has the kind
``None`` and, in place of tests, the reason.  A header with no row, or a row
with no header, fails here.
"""

import ast
import json
import os
import pathlib

import pytest
from test_cli import GOLDEN_CASES

from qndspin.cli import main
from qndspin.config import KEYS

KINDS = {"closed form", "oracle", "invariant", "statistical", "reference"}

ECHO = "restates an input"

# (table, column): (kind, tests), or (None, reason).  A table is the subcommand,
# and for nv-scan, which writes two CSVs, the subcommand and the file name.
COLUMNS = {
    ("table1", "preset"): (None, ECHO),
    ("table1", "N_DD"): (None, "a preset constant; no test restates the paper's table"),
    ("table1", "B_gauss"): (None, "a preset constant; no test restates the paper's table"),
    ("table1", "T_R_ns"): (
        "reference",
        (
            "test_acceptance.py::test_criterion_01_larmor_periods",
            "test_nv.py::test_larmor_periods_reproduce_reference_values",
        ),
    ),
    ("table1", "T_ns"): (
        "reference",
        (
            "test_acceptance.py::test_criterion_01_larmor_periods",
            "test_nv.py::test_larmor_periods_reproduce_reference_values",
        ),
    ),
    ("binary-stats", "alpha"): (None, ECHO),
    ("binary-stats", "phi"): (None, ECHO + ", reduced to (-pi, pi]"),
    ("binary-stats", "p_plus"): ("closed form", ("test_nv.py::test_room_temperature_mapping",)),
    ("binary-stats", "p_minus"): ("closed form", ("test_nv.py::test_room_temperature_mapping",)),
    ("binary-stats", "mean_plus"): (
        "closed form",
        ("test_measurement.py::test_moments_match_probability_moments",),
    ),
    ("binary-stats", "mean_minus"): (
        "closed form",
        ("test_measurement.py::test_moments_match_probability_moments",),
    ),
    ("binary-stats", "sigma_plus"): (
        "closed form",
        ("test_measurement.py::test_moments_match_probability_moments",),
    ),
    ("binary-stats", "sigma_minus"): (
        "closed form",
        ("test_measurement.py::test_moments_match_probability_moments",),
    ),
    ("binary-stats", "D"): (
        "closed form",
        (
            "test_measurement.py::test_ideal_strength_reduces_to_min_tangent",
            "test_measurement.py::test_room_temperature_strength_scale",
        ),
    ),
    ("distribution", "u_bar"): (
        "closed form",
        ("test_cascade.py::test_distribution_moments_match_binary_stats",),
    ),
    ("distribution", "p_plus_alpha"): (
        "oracle",
        (
            "test_cascade.py::test_exact_distribution_equals_the_direct_formula_bit_for_bit",
            "test_cascade.py::test_gaussian_matches_exact_at_large_n",
        ),
    ),
    ("distribution", "p_minus_alpha"): (
        "oracle",
        (
            "test_cascade.py::test_exact_distribution_equals_the_direct_formula_bit_for_bit",
            "test_cascade.py::test_gaussian_matches_exact_at_large_n",
        ),
    ),
    ("fidelity", "n"): (None, ECHO),
    ("fidelity", "D"): (
        "closed form",
        ("test_measurement.py::test_ideal_strength_reduces_to_min_tangent",),
    ),
    ("fidelity", "DN"): ("closed form", ("test_cascade.py::test_report_mean_consistency",)),
    ("fidelity", "u_th"): (
        "oracle",
        ("test_cascade.py::test_threshold_equals_the_loop_oracle_on_binomial_laws",),
    ),
    ("fidelity", "F_plus"): (
        "invariant",
        ("test_cascade.py::test_negating_phi_swaps_the_two_laws",),
    ),
    ("fidelity", "F_minus"): (
        "invariant",
        ("test_cascade.py::test_negating_phi_swaps_the_two_laws",),
    ),
    ("fidelity", "F_bar"): (
        "reference",
        (
            "test_acceptance.py::test_criterion_02_fidelity_anchors",
            "test_cascade.py::test_report_mean_consistency",
        ),
    ),
    ("fidelity", "F_erf"): ("oracle", ("test_acceptance.py::test_criterion_03_universal_curve",)),
    ("qnd-solve", "t_R_ns"): ("oracle", ("test_cli.py::test_qnd_solve_writes_one_row_per_root",)),
    ("qnd-solve", "residual_rad"): (
        "oracle",
        (
            "test_cli.py::test_qnd_solve_writes_one_row_per_root",
            "test_control.py::test_solve_matches_dense_oracle",
        ),
    ),
    ("stability", "N"): (None, "the cycle count 0 .. n_max"),
    ("stability", "S_sim"): (
        "oracle",
        (
            "test_first_crossing.py::test_systematic_curve_matches_naive_loop",
            "test_stability.py::test_fixed_axis_kernel_matches_rodrigues_oracle",
        ),
    ),
    ("stability", "S_analytic"): (
        "oracle",
        (
            "test_acceptance.py::test_criterion_07_stability_laws",
            "test_stability.py::test_survival_cos_zero_special_case",
            "test_stability.py::test_survival_echo_special_case",
        ),
    ),
    ("trajectories", "seed"): (None, "the trajectory's index under the master seed"),
    ("trajectories", "u_bar"): (
        "oracle",
        (
            "test_trajectory.py::test_run_matches_step_oracle",
            "test_trajectory.py::test_ensemble_rows_are_runs_bit_for_bit",
            "test_trajectory.py::test_qnd_ensemble_reproduces_exact_distribution",
        ),
    ),
    **{
        ("trajectories", f"final_b{axis}"): (
            "oracle",
            (
                "test_trajectory.py::test_run_matches_step_oracle",
                "test_trajectory.py::test_ensemble_rows_are_runs_bit_for_bit",
            ),
        )
        for axis in "xyz"
    },
    ("nv-scan scan.csv", "t_DD_ns"): (None, "the scan's duration grid, from the preset"),
    ("nv-scan scan.csv", "t_R_ns"): (
        "invariant",
        ("test_scan_invariants.py::test_first_and_last_t_r_columns_are_one_period_apart",),
    ),
    ("nv-scan scan.csv", "alpha_mag"): (
        "oracle",
        (
            "test_hyperfine.py::test_against_time_stepping_oracle",
            "test_acceptance.py::test_criterion_06_weak_coupling_scaling",
        ),
    ),
    ("nv-scan scan.csv", "qnd_residual"): (
        "invariant",
        (
            "test_scan_invariants.py::test_first_and_last_t_r_columns_are_one_period_apart",
            "test_scan_invariants.py::test_turning_the_hyperfine_vector_about_e_z_changes_nothing",
            "test_nv.py::test_qnd_root_is_lifetime_divergent",
        ),
    ),
    ("nv-scan scan.csv", "D"): (
        "closed form",
        ("test_measurement.py::test_room_temperature_strength_scale",),
    ),
    ("nv-scan scan.csv", "N_c"): (
        "closed form",
        ("test_nv.py::test_n_crit_follows_the_cascade_rule_row_by_row",),
    ),
    ("nv-scan scan.csv", "N_L"): (
        "invariant",
        (
            "test_scan_invariants.py::test_first_and_last_t_r_columns_are_one_period_apart",
            "test_scan_invariants.py::test_turning_the_hyperfine_vector_about_e_z_changes_nothing",
            "test_first_crossing.py::test_many_points_agree_with_the_naive_loop",
        ),
    ),
    ("nv-scan tolerance.csv", "t_DD_ns"): (None, "the scan's duration grid, from the preset"),
    ("nv-scan tolerance.csv", "dtR_measured_ns"): (
        "oracle",
        ("test_nv.py::test_measured_width_matches_a_fine_brute_force_scan",),
    ),
    ("nv-scan tolerance.csv", "dtR_worst_case_ns"): (
        "closed form",
        (
            "test_nv.py::test_lockstep_bisection_matches_row_by_row_probes",
            "test_acceptance.py::test_criterion_10_nv_scan_structure",
        ),
    ),
    ("nv-scan tolerance.csv", "Nc"): (
        "closed form",
        ("test_nv.py::test_n_crit_follows_the_cascade_rule_row_by_row",),
    ),
}


def written_headers(tmp_path, monkeypatch):
    """``{(table, column)}`` over the CSVs of each subcommand's first golden case."""
    cases = {}
    for case in GOLDEN_CASES:
        cases.setdefault(case[1][0], case)
    assert sorted(cases) == sorted(KEYS)  # every subcommand has a case
    columns = set()
    for command, (name, argv, cfg) in sorted(cases.items()):
        run_dir = tmp_path / name.replace(" ", "_")
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        if cfg is not None:
            (run_dir / "run.json").write_text(json.dumps(cfg))
        assert main(argv) == 0
        csvs = sorted(run_dir.rglob("*.csv"))
        for path in csvs:
            table = command if len(csvs) == 1 else f"{command} {path.name}"
            header = path.read_text(encoding="utf-8").splitlines()[0]
            columns |= {(table, column) for column in header.split(",")}
    return columns


def test_every_column_has_one_row(tmp_path, monkeypatch):
    columns = written_headers(tmp_path, monkeypatch)
    assert sorted(columns - set(COLUMNS)) == []  # a header with no row
    assert sorted(set(COLUMNS) - columns) == []  # a row with no header


def _test_functions(file_name):
    tree = ast.parse((pathlib.Path(__file__).parent / file_name).read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("table, column", list(COLUMNS), ids=[" ".join(key) for key in COLUMNS])
def test_each_row_names_tests_that_exist_or_a_reason(table, column):
    kind, where = COLUMNS[table, column]
    if kind is None:
        assert isinstance(where, str) and where
        return
    assert kind in KINDS and where
    for test in where:
        file_name, function = test.split("::")
        assert os.path.exists(pathlib.Path(__file__).parent / file_name), test
        assert function.startswith("test_") and function in _test_functions(file_name), test
