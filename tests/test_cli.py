import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import qndspin
from qndspin import cli
from qndspin.cli import main
from qndspin.config import KEYS, Inputs, load_config
from qndspin.hyperfine import cpmg, exact_dd_evolution, extract_alpha_phi
from qndspin.nv import PRESETS, nv_system


def read_csv(path):
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    return header, rows


def test_table1_preset(tmp_path, capsys):
    out = str(tmp_path / "t1")
    assert main(["table1", "--preset", "P1", "--out", out]) == 0
    header, rows = read_csv(out + ".csv")
    assert header == ["preset", "N_DD", "B_gauss", "T_R_ns", "T_ns"]
    assert rows[0][0] == "P1"
    assert float(rows[0][3]) == pytest.approx(1351, abs=1)
    assert float(rows[0][4]) == pytest.approx(1088, abs=1)
    assert "T_R=1351 ns" in capsys.readouterr().out


def test_fidelity_anchor(tmp_path):
    out = str(tmp_path / "fid")
    code = main(
        ["fidelity", "--alpha", "0.1", "--phi", "1.5707963", "--n", "200", "--out", out]
    )
    assert code == 0
    header, rows = read_csv(out + ".csv")
    assert header == ["n", "D", "DN", "u_th", "F_plus", "F_minus", "F_bar", "F_erf"]
    assert float(rows[0][6]) == pytest.approx(0.92, abs=0.01)


def test_readout_manifests_time_their_stages(tmp_path):
    common = ["--alpha", "0.1", "--phi", "1.4", "--n", "50"]
    for command, stages in (
        ("distribution", {"law_s", "write_s"}),
        ("fidelity", {"law_s", "threshold_s", "write_s"}),
    ):
        out = str(tmp_path / command)
        assert main([command, *common, "--out", out]) == 0
        timings = json.load(open(out + ".manifest.json"))["diagnostics"]
        assert set(timings) == stages
        assert all(seconds >= 0.0 for seconds in timings.values())


@pytest.mark.parametrize(
    "argv",
    [["table1"], ["binary-stats", "--alpha", "0.1"], ["qnd-solve", "--preset", "P2"]],
    ids=["table1", "binary-stats", "qnd-solve"],
)
def test_short_manifests_time_their_write(tmp_path, argv):
    out = str(tmp_path / argv[0])
    assert main([*argv, "--out", out]) == 0
    timings = json.load(open(out + ".manifest.json"))["diagnostics"]
    assert set(timings) == {"write_s"} and timings["write_s"] >= 0.0


@pytest.mark.parametrize("kind, flags", [("systematic", []), ("random", ["--seed", "4"])])
def test_stability_manifest_times_its_stages(tmp_path, kind, flags):
    out = str(tmp_path / kind)
    argv = [*STABILITY_Z, "--error", kind, *flags, "--out", out]
    assert main(argv) == 0
    timings = json.load(open(out + ".manifest.json"))["diagnostics"]
    assert set(timings) == {"curve_s", "write_s"}
    assert all(seconds >= 0.0 for seconds in timings.values())


def test_nv_scan_keeps_an_explicit_ideal_readout(tmp_path, monkeypatch):
    """The scan's room-temperature default replaced a given ideal readout."""
    monkeypatch.chdir(tmp_path)
    argv = [*NV_SCAN, "--n-tdd", "2", "--n-tr", "3", "--n-max", "10"]
    ideal, ideal_outputs = _run(argv + ["--p-plus", "1", "--p-minus", "1"], "ideal")
    default, default_outputs = _run(argv, "default")
    assert (ideal["p_plus"], ideal["p_minus"]) == (1.0, 1.0)
    assert (default["p_plus"], default["p_minus"]) != (1.0, 1.0)
    assert ideal_outputs[0] != default_outputs[0]


def test_distribution_normalized(tmp_path):
    out = str(tmp_path / "dist")
    assert main(["distribution", "--alpha", "0.1", "--phi", "1.4", "--n", "50", "--out", out]) == 0
    header, rows = read_csv(out + ".csv")
    assert header == ["u_bar", "p_plus_alpha", "p_minus_alpha"]
    assert len(rows) == 51
    for col in (1, 2):
        assert sum(float(r[col]) for r in rows) == pytest.approx(1.0, abs=1e-9)


def test_binary_stats_csv(tmp_path):
    out = str(tmp_path / "bs")
    assert main(["binary-stats", "--alpha", "0.1", "--phi", "1.5707963", "--out", out]) == 0
    _, rows = read_csv(out + ".csv")
    assert float(rows[0][-1]) == pytest.approx(math.tan(0.1), abs=1e-6)


def test_qnd_solve(tmp_path):
    out = str(tmp_path / "roots")
    assert main(["qnd-solve", "--preset", "P2", "--out", out]) == 0
    header, rows = read_csv(out + ".csv")
    assert header == ["t_R_ns", "residual_rad"]
    assert min(float(r[1]) for r in rows) < 1e-9


def test_qnd_solve_writes_one_row_per_root(tmp_path):
    out = str(tmp_path / "roots")
    assert main(["qnd-solve", "--preset", "P2", "--out", out]) == 0
    _, rows = read_csv(out + ".csv")
    # independent count: interior local minima of a dense scipy-built scan
    params = PRESETS["P2"]
    sys_ = nv_system(params)
    seq = cpmg(params.n_dd, params.larmor_period_dd)
    alpha_vec, phi_dd = extract_alpha_phi(*exact_dd_evolution(sys_, seq))
    alpha_hat = alpha_vec / np.linalg.norm(alpha_vec)
    times = np.linspace(0.0, sys_.wait_period, 20_001)
    m = Rotation.from_rotvec(phi_dd).apply(alpha_hat)
    moved = Rotation.from_rotvec(np.outer(times, sys_.wait_field)).apply(m)
    res = 2.0 * np.arcsin(np.minimum(0.5 * np.linalg.norm(moved - alpha_hat, axis=1), 1.0))
    dips = np.flatnonzero((res[1:-1] < res[:-2]) & (res[1:-1] < res[2:])) + 1
    assert len(rows) == len(dips) == 1
    assert all(float(r[1]) < 1e-9 for r in rows)
    assert abs(float(rows[0][0]) * 1e-9 - times[dips[0]]) <= times[1]


def test_stability_csv(tmp_path):
    out = str(tmp_path / "stab")
    code = main(
        [
            "stability",
            "--alpha-vec",
            "0.0,0.0,0.5",
            "--error",
            "systematic",
            "--delta-phi",
            "0.01",
            "--error-axis",
            "1,0,0",
            "--n-max",
            "200",
            "--out",
            out,
        ]
    )
    assert code == 0
    header, rows = read_csv(out + ".csv")
    assert header == ["N", "S_sim", "S_analytic"]
    assert len(rows) == 201
    assert float(rows[0][1]) == 1.0


def test_trajectories_deterministic(tmp_path):
    args = [
        "trajectories",
        "--alpha", "0.1", "--phi", "1.4",
        "--n", "20", "--n-traj", "50", "--seed", "7",
        "--cycle-rot", "0,0,0.7",
    ]
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", out_a]) == 0
    assert main(args + ["--out", out_b]) == 0
    with open(out_a + ".csv", "rb") as fa, open(out_b + ".csv", "rb") as fb:
        assert fa.read() == fb.read()
    manifest = json.load(open(out_a + ".manifest.json"))
    timings = manifest["diagnostics"]
    assert set(timings) == {"stream_s", "kernel_s", "fixed_point_rows", "write_s"}
    assert all(seconds >= 0.0 for seconds in timings.values())
    assert timings["fixed_point_rows"] == 50  # the plus eigenstate under a turn about e_z


def test_nv_scan_outputs(tmp_path):
    out_dir = str(tmp_path / "scan")
    code = main(
        [
            "nv-scan", "--preset", "P2",
            "--n-tdd", "6", "--n-tr", "12", "--n-max", "2000",
            "--out-dir", out_dir,
        ]
    )
    assert code == 0
    header, rows = read_csv(os.path.join(out_dir, "scan.csv"))
    assert header == ["t_DD_ns", "t_R_ns", "alpha_mag", "qnd_residual", "D", "N_c", "N_L"]
    assert len(rows) == 6 * 12
    header, tol_rows = read_csv(os.path.join(out_dir, "tolerance.csv"))
    assert header == ["t_DD_ns", "dtR_measured_ns", "dtR_worst_case_ns", "Nc"]
    assert len(tol_rows) == 6
    manifest = json.load(open(os.path.join(out_dir, "manifest.json")))
    assert manifest["subcommand"] == "nv-scan"
    assert manifest["parameters"]["N_DD"] == 6
    diagnostics = manifest["diagnostics"]
    assert diagnostics["no_crossing_points"] == sum(row[6] == "inf" for row in rows)
    # one kernel call for the scan plus one per lockstep bisection round
    assert diagnostics["kernel_calls"] >= 1
    assert diagnostics["bisection_probes"] >= diagnostics["kernel_calls"] - 1
    # criterion 9 over the whole scan: CPMG reaches the QND condition in every row
    assert 0.0 <= diagnostics["worst_row_qnd_residual"] < 1e-9
    assert 0.0 <= diagnostics["worst_alpha_phi_error"] < 1e-10
    for stage in ("geometry_s", "lifetimes_s", "tolerance_s", "write_s"):
        assert diagnostics[stage] >= 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["nv-scan", "--preset", "P2", "--n-tdd", "4", "--n-tr", "4", "--n-max", "0"],
        ["nv-scan", "--preset", "P2", "--n-tdd", "0", "--n-tr", "4", "--n-max", "10"],
        ["nv-scan", "--preset", "P2", "--n-tdd", "4", "--n-tr", "0", "--n-max", "10"],
        ["stability", "--alpha-vec", "0,0,0.5", "--delta-phi", "0.01", "--n-max", "0"],
        ["fidelity", "--n", "0", "--alpha", "0.1"],
        ["distribution", "--n", "0", "--alpha", "0.1"],
        ["trajectories", "--n", "10", "--n-traj", "0", "--alpha", "0.1"],
        ["trajectories", "--n", "0", "--n-traj", "10", "--alpha", "0.1"],
    ],
    ids=[
        "nv-scan --n-max",
        "nv-scan --n-tdd",
        "nv-scan --n-tr",
        "stability --n-max",
        "fidelity --n",
        "distribution --n",
        "trajectories --n-traj",
        "trajectories --n",
    ],
)
def test_iteration_caps_below_one_are_config_errors(tmp_path, capsys, argv):
    out = str(tmp_path / "out")
    target = ["--out-dir", out] if argv[0] == "nv-scan" else ["--out", out]
    assert main(argv + target) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "argv",
    [
        ["binary-stats", "--alpha", "nan"],
        ["binary-stats", "--alpha", "inf"],
        ["binary-stats", "--alpha", "0.1", "--phi", "nan"],
        ["fidelity", "--n", "10", "--alpha", "0.1", "--p-plus", "nan", "--p-minus", "0.9"],
        ["fidelity", "--n", "10", "--alpha", "0.1", "--n-plus", "inf", "--n-minus", "0.1"],
        ["qnd-solve", "--preset", "P2", "--tau-ns", "nan"],
        ["qnd-solve", "--preset", "P2", "--tau-ns", "inf"],
        ["stability", "--alpha-vec", "nan,0,0.5", "--delta-phi", "0.01"],
        ["stability", "--alpha-vec", "0,0,0.5", "--delta-phi", "nan"],
        ["trajectories", "--n", "5", "--alpha", "0.1", "--cycle-rot", "nan,0,0"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_non_finite_inputs_are_config_errors(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "error" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


# the message of a config number beyond the domain, between the key and the value
_BEYOND = "must be a number of magnitude at most 1e+75, got"


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"scan": {"tau_rel_min": math.nan}}, "scan.tau_rel_"),
        ({"scan": {"tau_rel_max": math.inf}}, "scan.tau_rel_"),
        ({"scan": {"tau_rel_min": 0.0}}, "scan.tau_rel_"),
        ({"scan": {"tau_rel_max": -1.05}}, "scan.tau_rel_"),
        ({"scan": {"tau_rel_min": "wide"}}, "scan.tau_rel_"),
        ({"A_MHz": [0.2, math.nan, 0.3]}, f"A_MHz {_BEYOND} nan"),
        ({"B_gauss": math.nan}, f"B_gauss {_BEYOND} nan"),
        ({"gamma_n_MHz_per_T": math.inf}, f"gamma_n_MHz_per_T {_BEYOND} inf"),
        ({"N_DD": 2.5}, "N_DD must be an integer"),
        ({"scan": {"n_tdd": 2.7}}, "scan.n_tdd must be an integer"),
        ({"scan": {"n_tdd": True}}, "scan.n_tdd must be an integer"),
        ({"scan": {"n_tr": 3.5}}, "scan.n_tr must be an integer"),
        ({"scan": {"n_max": False}}, "scan.n_max must be an integer"),
        ({"scan": {"n_tr": 1}}, "n_tr must be >= 2"),
        ({"phi": 1.0}, "'phi'"),
        ({"p_plus": [0.9], "p_minus": 0.9}, f"p_plus {_BEYOND} [0.9]"),
        ({"preset": ["P1"]}, "unknown preset ['P1']"),
        ({"preset": {"a": 1}}, "unknown preset {'a': 1}"),
        ({"preset": "P9"}, "unknown preset 'P9'"),
        ({"A_MHz": 1.0}, "A_MHz must be a 3-vector"),
        ({"A_MHz": None}, "A_MHz must be a 3-vector"),
        ({"A_MHz": [0.2, 0.3]}, "A_MHz must be a 3-vector"),
        ({"scan": {"n_typo": 3}}, "unknown config keys: ['scan.n_typo']"),
        ({"A_MHz": [1e200, 0.0, 0.0]}, f"A_MHz {_BEYOND} 1e+200"),
        ({"gamma_n_MHz_per_T": 1e300}, f"gamma_n_MHz_per_T {_BEYOND} 1e+300"),
        ({"gamma_n_MHz_per_T": 0.0}, "gamma_n_mhz_per_t must give with b_gauss an |omega_n| in"),
        ({"A_MHz": [1e150, 0.0, 0.0]}, f"A_MHz {_BEYOND} 1e+150"),
        ({"scan": {"tau_rel_max": 1e300}}, f"scan.tau_rel_max {_BEYOND} 1e+300"),
        ({"scan": {"tau_rel_min": 1e300}}, f"scan.tau_rel_min {_BEYOND} 1e+300"),
        ({"A_MHz": [1e75, 1e75, 0.0]}, "A_MHz must be a 3-vector of numbers with a norm of"),
        ({"gamma_n_MHz_per_T": 1e75}, "gamma_n_mhz_per_t must give with b_gauss an |omega_n| in"),
        ({"A_MHz": [1e70, 0.0, 0.0]}, "a_mhz must give |A| of at most 1e+75 rad/s"),
        ({"scan": {"tau_rel_max": 1e75}}, "seq must have turns |omega +- A/2| * width"),
        ({"scan": {"tau_rel_min": 1e75, "tau_rel_max": 1e75}}, "seq must have turns"),
        ({"B_gauss": 1e-60}, "b_gauss must give with the other fields a wait field"),
        ({"B_gauss": 1e-300, "gamma_n_MHz_per_T": 1e154}, f"gamma_n_MHz_per_T {_BEYOND} 1e+154"),
        ({"B_gauss": 1e-40, "gamma_n_MHz_per_T": 1e-20}, "b_gauss must give with the other"),
        ({"scan.n_tdd": 3}, "config key 'scan.n_tdd' belongs inside its 'scan' block"),
    ],
    ids=[
        "min nan",
        "max inf",
        "min zero",
        "max negative",
        "min not a number",
        "A_MHz nan",
        "B_gauss nan",
        "gamma inf",
        "N_DD fractional",
        "n_tdd fractional",
        "n_tdd bool",
        "n_tr fractional",
        "n_max bool",
        "n_tr one",
        "phi key",
        "p_plus a list",
        "preset a list",
        "preset an object",
        "preset unknown",
        "A_MHz a number",
        "A_MHz null",
        "A_MHz two entries",
        "unknown scan key",
        "A_MHz overflowing",
        "gamma overflowing",
        "gamma zero",
        "A_MHz overflowing in rad/s",
        "max turns overflowing",
        "min turns overflowing",
        "A_MHz norm beyond the domain",
        "omega_n beyond the domain",
        "A beyond the domain in rad/s",
        "max turns beyond the domain",
        "min turns beyond the domain",
        "wait field rounding to zero",
        "B_gauss and gamma whose product is 0 in the wait field",
        "a pair of small fields rounding to zero",
        "block key outside its block",
    ],
)
def test_nv_scan_bad_tau_span_is_config_error(tmp_path, capsys, cfg, message):
    """Bad scan spans, system parameters, counts and keys in an nv-scan config."""
    scan = {"n_tdd": 2, "n_tr": 3, "n_max": 10, **cfg.get("scan", {})}
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({"preset": "P2", **cfg, "scan": scan}))
    out_dir = tmp_path / "out"
    assert main(["nv-scan", "--config", str(path), "--out-dir", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"preset": ["P1"]}, "unknown preset ['P1']"),
        ({"preset": {"a": 1}}, "unknown preset {'a': 1}"),
        ({"preset": "P2", "A_MHz": 1.0}, "A_MHz must be a 3-vector"),
        ({"preset": "P2", "A_MHz": None}, "A_MHz must be a 3-vector"),
        ({"preset": "P2", "tau_ns": "abc"}, "tau_ns must be a number"),
        ({"preset": "P2", "t_DD_ns": [1]}, "t_DD_ns must be a number"),
        ([1, 2], "config must be a JSON object"),
        ({"preset": "P2", "scan": 3}, "'scan' must be an object"),
        ({"B_gauss": 500.0}, "need either 'preset' or both 'B_gauss' and 'N_DD'"),
        ({"B_gauss": 500.0, "N_DD": 8, "A_MHz": [1, 2, 3, 4]}, "A_MHz must be a 3-vector"),
        ({"preset": "P2", "tau_ns": 1000.0, "t_DD_ns": 8000.0}, "give only one of 'tau_ns' and 't_DD_ns'"),
        ({"preset": "P2", "tau_ns": 1e300}, f"tau_ns {_BEYOND} 1e+300"),
        ({"preset": "P2", "A_MHz": [1e150, 0.0, 0.0]}, f"A_MHz {_BEYOND} 1e+150"),
        ({"preset": "P2", "B_gauss": 1e30, "tau_ns": 1e75}, "seq must have turns |omega +- A/2|"),
        ({"preset": "P2", "A_MHz": [1e70, 0.0, 0.0]}, "a_mhz must give |A| of at most 1e+75 rad/s"),
        ({"preset": "P2", "B_gauss": 1e-60}, "b_gauss must give with the other fields a wait"),
    ],
    ids=[
        "preset a list",
        "preset an object",
        "A_MHz a number",
        "A_MHz null",
        "tau_ns a string",
        "t_DD_ns a list",
        "not an object",
        "scan not an object",
        "no preset, no N_DD",
        "A_MHz four entries",
        "tau_ns and t_DD_ns",
        "turns overflowing",
        "A_MHz overflowing in rad/s",
        "turns beyond the domain",
        "A beyond the domain in rad/s",
        "wait field rounding to zero",
    ],
)
def test_qnd_solve_bad_config_is_config_error(tmp_path, capsys, cfg, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert main(["qnd-solve", "--config", str(path), "--out", str(tmp_path / "q")]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out
    assert os.listdir(tmp_path) == ["run.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["stability", "--alpha-vec", "0,0,0.5", "--error", "random", "--delta-phi", "-0.1", "--seed", "1"],
        ["stability", "--alpha-vec", "0,0,0.5", "--error", "random", "--delta-phi", "0.1", "--seed", "-1"],
        ["stability", "--alpha-vec", "0,0,0.5", "--error", "random", "--delta-phi", "0.1", "--seed", "1",
         "--error-axis", "0,0,0"],
        ["stability", "--alpha-vec", "0,0,0.5", "--error", "random", "--delta-phi", "0.1", "--seed", "1",
         "--error-axis", "1e-170,0,0"],
        ["stability", "--alpha-vec", "0,0,0.5", "--delta-phi", "0.1", "--error-axis", "1e-170,0,0"],
        ["stability", "--alpha-vec", "0,0,0", "--delta-phi", "0.1"],
        ["stability", "--alpha-vec", "0,0,0.5", "--error", "random", "--delta-phi", "0.1"],
        ["stability", "--alpha-vec", "7,0,0", "--delta-phi", "0.1"],
        ["trajectories", "--n", "5", "--alpha", "0.1", "--seed", "-1"],
        ["trajectories", "--n", "5", "--alpha", "0.1", "--p-plus", "0.9", "--p-minus", "0.9"],
        ["trajectories", "--n", "5", "--alpha", "0.1", "--n-plus", "0.1", "--n-minus", "0.07"],
        ["nv-scan", "--preset", "P2", "--n-tdd", "2", "--n-tr", "1", "--n-max", "10"],
        ["fidelity", "--n", "10", "--alpha", "0"],
        ["fidelity", "--n", "10", "--alpha", "0.1", "--p-plus", "0.5", "--p-minus", "0.5"],
        ["binary-stats", "--p-plus", "0.9", "--p-minus", "0.9",
         "--n-plus", "0.1", "--n-minus", "0.07"],
        ["stability", "--config", "no/such/run.json",
         "--alpha-vec", "0,0,0.5", "--delta-phi", "0.01"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_out_of_range_inputs_are_config_errors(tmp_path, capsys, argv):
    out = str(tmp_path / "out")
    assert main(argv + (["--out-dir", out] if argv[0] == "nv-scan" else ["--out", out])) == 2
    captured = capsys.readouterr()
    assert "error" in captured.err and not captured.out
    assert not os.listdir(tmp_path)


UNUSABLE_OUTPUT_CASES = [
    ["table1"],
    ["binary-stats", "--alpha", "0.1"],
    ["distribution", "--n", "10", "--alpha", "0.1"],
    ["fidelity", "--n", "10", "--alpha", "0.1"],
    ["qnd-solve", "--preset", "P2"],
    ["stability", "--alpha-vec", "0,0,0.5", "--delta-phi", "0.01"],
    ["trajectories", "--n", "1000", "--n-traj", "100000", "--alpha", "0.1", "--seed", "1"],
    ["nv-scan", "--preset", "P2", "--n-tdd", "2", "--n-tr", "3", "--n-max", "10"],
]


@pytest.mark.parametrize("argv", UNUSABLE_OUTPUT_CASES, ids=lambda argv: argv[0])
def test_unusable_output_paths_are_config_errors(tmp_path, monkeypatch, capsys, argv):
    """A missing --out directory, or an --out-dir that is a file, exits 2 before any work."""
    for name in ("scan_2d", "run_ensemble", "survival_curve", "exact_distribution"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("work started"))
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    if argv[0] == "nv-scan":
        target, message = ["--out-dir", str(blocker)], "cannot create --out-dir"
    else:
        target, message = ["--out", str(tmp_path / "no" / "such" / "x")], "does not exist"
    assert main(argv + target) == 2
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out
    assert os.listdir(tmp_path) == ["blocker"] and blocker.read_text() == "keep"


@pytest.mark.parametrize("argv", UNUSABLE_OUTPUT_CASES, ids=lambda argv: argv[0])
def test_a_missing_config_file_is_a_config_error(tmp_path, monkeypatch, capsys, argv):
    """Every subcommand reads --config, so a missing file exits 2."""
    for name in ("scan_2d", "run_ensemble", "survival_curve", "exact_distribution"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("work started"))
    out = str(tmp_path / "out")
    target = ["--out-dir", out] if argv[0] == "nv-scan" else ["--out", out]
    assert main(argv + ["--config", str(tmp_path / "missing.json")] + target) == 2
    captured = capsys.readouterr()
    assert "cannot read config" in captured.err and not captured.out
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "flags, cfg, missing",
    [
        (["--p-plus", "0.9"], None, "'p_minus'"),
        (["--n-minus", "0.07"], None, "'n_plus'"),
        (["--p-plus", "0.9"], {"p_plus": 0.8, "p_minus": 0.9}, "'p_minus'"),
    ],
    ids=["p_plus", "n_minus", "p_plus over a file pair"],
)
def test_half_a_readout_pair_names_the_missing_key(tmp_path, capsys, flags, cfg, missing):
    """A readout flag replaces every readout key of the file, so its partner must be a flag too."""
    argv = ["binary-stats", *flags, "--out", str(tmp_path / "out")]
    if cfg is not None:
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        argv += ["--config", str(tmp_path / "run.json")]
    assert main(argv) == 2
    assert f"incomplete readout model: missing {missing}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == (["run.json"] if cfg else [])


# rotations beyond the domain (a number or a norm above 1e75), each refused as its key is resolved
_NORM = "must be a 3-vector of numbers with a norm of at most 1e+75, got"
OVERFLOWING_ROTATIONS = {
    "cycle_rot": (
        ["trajectories", "--n", "5", "--alpha", "0.1", "--cycle-rot", "1e200,0,0"],
        f"cycle_rot {_BEYOND} 1e+200",
    ),
    "delta_phi": (
        ["stability", "--alpha-vec", "0,0,1", "--delta-phi", "1e200"],
        f"delta_phi {_BEYOND} 1e+200",
    ),
    "random delta_phi": (
        ["stability", "--alpha-vec", "0,0,1", "--error", "random", "--seed", "1"]
        + ["--delta-phi", "1e200"],
        f"delta_phi {_BEYOND} 1e+200",
    ),
    "alpha_vec": (
        ["stability", "--alpha-vec", "1e200,0,0", "--delta-phi", "0.1"],
        f"alpha_vec {_BEYOND} 1e+200",
    ),
    "error_axis": (
        ["stability", "--alpha-vec", "0,0,1", "--delta-phi", "0.1", "--error-axis", "0,1e200,0"],
        f"error_axis {_BEYOND} 1e+200",
    ),
    "alpha": (
        ["binary-stats", "--alpha", "1e200"],
        f"alpha {_BEYOND} 1e+200",
    ),
    "cycle_rot norm": (
        ["trajectories", "--n", "5", "--alpha", "0.1", "--cycle-rot", "1e75,1e75,0"],
        f"cycle_rot {_NORM} [1e+75, 1e+75, 0.0]",
    ),
    "error_axis norm": (
        ["stability", "--alpha-vec", "0,0,1", "--delta-phi", "0.1", "--error-axis", "0,1e75,1e75"],
        f"error_axis {_NORM} [0.0, 1e+75, 1e+75]",
    ),
}


@pytest.mark.parametrize(
    "argv, message", OVERFLOWING_ROTATIONS.values(), ids=list(OVERFLOWING_ROTATIONS)
)
def test_rotations_whose_squared_norm_overflows_are_refused_by_name(
    tmp_path, capsys, argv, message
):
    """Refused before numpy squares them (a warning is an error in this suite)."""
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {message}") and not captured.out
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "alpha_vec, got",
    [("0,0,0", "0.0"), ("0,0,1e-170", "0.0"), ("0,0,9.999e-76", "9.999e-76")],
    ids=["zero", "underflowing", "below the domain"],
)
def test_stability_refuses_an_alpha_vec_below_the_domain(tmp_path, capsys, alpha_vec, got):
    """The measurement axis divides by ``|alpha_vec|``, so it is at least 1/M (1e-75)."""
    argv = ["stability", "--alpha-vec", alpha_vec, "--delta-phi", "0.1"]
    assert main(argv + ["--out", str(tmp_path / "s")]) == 2
    message = f"config error: alpha_vec must have a magnitude in [1e-75, pi], got {got}\n"
    assert capsys.readouterr().err == message
    assert not os.listdir(tmp_path)


# refusals raised by the library, each reaching the user under its argument's name
LIBRARY_REFUSALS = {
    "canonical alpha": (["binary-stats", "--alpha", "4"], None, "alpha_vec must have a canonical"),
    "field": (["qnd-solve"], {"B_gauss": -1.0, "N_DD": 4}, "b_gauss must be positive"),
    "photon numbers": (
        ["binary-stats", "--n-plus", "0.1", "--n-minus", "0.2"],
        None,
        "n_plus and n_minus must satisfy 0 <= n_minus <= n_plus <= 1",
    ),
    "no information": (
        ["fidelity", "--n", "10", "--alpha", "0.1", "--p-plus", "0.5", "--p-minus", "0.5"],
        None,
        "strength_d must be positive: D = 0",
    ),
    "ideal readout": (
        ["trajectories", "--n", "5", "--alpha", "0.1", "--p-plus", "0.9", "--p-minus", "0.9"],
        None,
        "setting must have ideal readout",
    ),
    "random seed": (
        ["stability", "--alpha-vec", "0,0,0.5", "--error", "random", "--delta-phi", "0.1"],
        None,
        "seed must be given for random errors",
    ),
    "systematic seed": (
        ["stability", "--alpha-vec", "0,0,2.5", "--error", "systematic", "--delta-phi", "0.05"]
        + ["--n-max", "30", "--seed", "4"],
        None,
        "systematic errors take no std or seed",
    ),
    "vanishing measurement vector": (
        ["qnd-solve", "--preset", "P2", "--tau-ns", "1e-60"],
        None,
        "tau_ns, B_gauss, N_DD, gamma_n_MHz_per_T and A_MHz must give a nonzero measurement",
    ),
    "period below the domain": (
        ["qnd-solve", "--preset", "P2", "--tau-ns", "1e-300"],
        None,
        "tau must lie in [1e-75, 1e+75], got 1e-309",
    ),
}


@pytest.mark.parametrize(
    "argv, cfg, message", LIBRARY_REFUSALS.values(), ids=list(LIBRARY_REFUSALS)
)
def test_library_refusals_reach_the_user_by_name(tmp_path, monkeypatch, capsys, argv, cfg, message):
    monkeypatch.chdir(tmp_path)
    if cfg is not None:
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        argv = argv + ["--config", "run.json"]
    assert main(argv + ["--out", "out"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {message}") and not captured.out
    assert os.listdir(tmp_path) == (["run.json"] if cfg else [])


def test_a_lifetime_horizon_beyond_int64_is_refused_by_name(tmp_path, capsys):
    """An ``n_max`` of 1e19 wrapped below 0 as an int64 horizon: every point read
    as never crossing, and the run exited 0."""
    argv = ["nv-scan", "--preset", "P2", "--n-tdd", "3", "--n-tr", "4", "--n-max", "1e19"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    message = "config error: n_max must be at most 2**63 - 1, got 10000000000000000000\n"
    assert capsys.readouterr().err == message
    assert not os.listdir(tmp_path)


def test_a_value_error_from_deep_in_the_library_exits_2(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise ValueError("uniforms must be refused here")

    monkeypatch.setattr(qndspin.trajectory, "_evolve", refuse)
    assert main([*TRAJECTORIES, "--n-traj", "4", "--out", str(tmp_path / "tr")]) == 2
    assert capsys.readouterr().err == "config error: uniforms must be refused here\n"
    assert not os.listdir(tmp_path)


def test_any_other_failure_exits_1(tmp_path, monkeypatch, capsys):
    def fail(setting):
        raise RuntimeError("moments diverged")

    monkeypatch.setattr(cli, "binary_stats", fail)
    assert main(["binary-stats", "--alpha", "0.1", "--out", str(tmp_path / "bs")]) == 1
    assert capsys.readouterr().err == "error: moments diverged\n"
    assert not os.listdir(tmp_path)


SMALL_SCAN = ["nv-scan", "--preset", "P2", "--n-tdd", "2", "--n-tr", "3", "--n-max", "10"]


def _failing(error):
    def fail(*args, **kwargs):
        raise error("the scan failed")

    return fail


@pytest.mark.parametrize("out", ["out", "a/b/out"])
@pytest.mark.parametrize(
    "error, code",
    [(MemoryError, 1), (RuntimeError, 1), (ValueError, 2)],
    ids=["MemoryError", "RuntimeError", "ValueError"],
)
def test_a_failed_run_removes_the_directories_it_made(
    tmp_path, monkeypatch, capsys, out, error, code
):
    monkeypatch.setattr(cli, "scan_2d", _failing(error))
    assert main([*SMALL_SCAN, "--out-dir", str(tmp_path / out)]) == code
    assert capsys.readouterr().err.endswith("the scan failed\n")
    assert os.listdir(tmp_path) == []  # tmp_path itself stays


@pytest.mark.parametrize("contents", [[], ["notes.txt"]], ids=["empty", "holding a file"])
def test_a_failed_run_keeps_an_out_dir_that_existed(tmp_path, monkeypatch, contents):
    out = tmp_path / "out"
    out.mkdir()
    for name in contents:
        (out / name).write_text("keep")
    monkeypatch.setattr(cli, "scan_2d", _failing(RuntimeError))
    assert main([*SMALL_SCAN, "--out-dir", str(out)]) == 1
    assert sorted(os.listdir(out)) == contents


def test_a_failed_run_keeps_the_files_it_wrote(tmp_path, monkeypatch):
    """A failure after the CSVs are written leaves them, and so their directory."""
    monkeypatch.setattr(cli, "json", mock.Mock(dump=_failing(RuntimeError)))
    out = tmp_path / "a" / "out"
    assert main([*SMALL_SCAN, "--out-dir", str(out)]) == 1
    assert sorted(os.listdir(out)) == ["manifest.json", "scan.csv", "tolerance.csv"]


def _outputs_of(manifest_path):
    """The manifest and the bytes of each output it names."""
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    outputs = []
    for path in manifest["outputs"]:
        with open(path, "rb") as handle:
            outputs.append(handle.read())
    return manifest, outputs


def _run(argv, name):
    """Run in the current directory; the manifest's parameters and each output's bytes."""
    scan = argv[0] == "nv-scan"
    assert main(argv + (["--out-dir", name] if scan else ["--out", name])) == 0
    path = os.path.join(name, "manifest.json") if scan else name + ".manifest.json"
    manifest, outputs = _outputs_of(path)
    return manifest["parameters"], outputs


def _outcome(argv, name, capsys):
    """Run in the current directory; the exit code, stderr, and what ``_run`` returns
    when the run succeeds (``None`` when it writes nothing)."""
    scan = argv[0] == "nv-scan"
    code = main(argv + (["--out-dir", name] if scan else ["--out", name]))
    err = capsys.readouterr().err
    if code:
        return code, err, None if os.listdir() == ["run.json"] else os.listdir()
    path = os.path.join(name, "manifest.json") if scan else name + ".manifest.json"
    manifest, outputs = _outputs_of(path)
    return code, err, (manifest["parameters"], outputs)


NV_SCAN = ["nv-scan", "--preset", "P2"]
TRAJECTORIES = ["trajectories", "--alpha", "0.2", "--n", "20", "--seed", "3"]
STABILITY = ["stability", "--alpha-vec", "0.3,0.2,1.1", "--delta-phi", "0.05"]
STABILITY_Z = ["stability", "--alpha-vec", "0,0,2.5", "--delta-phi", "0.05", "--n-max", "50"]

# (subcommand argv, flags, the same input as config keys)
FLAG_KEY_CASES = {
    "alpha": (["binary-stats"], ["--alpha", "0.3"], {"alpha": 0.3}),
    "phi": (["binary-stats"], ["--phi", "1.2"], {"phi": 1.2}),
    "p_plus/p_minus": (
        ["fidelity", "--n", "30"],
        ["--p-plus", "0.95", "--p-minus", "0.9"],
        {"p_plus": 0.95, "p_minus": 0.9},
    ),
    "n_plus/n_minus": (
        ["distribution", "--n", "30"],
        ["--n-plus", "0.1", "--n-minus", "0.07"],
        {"n_plus": 0.1, "n_minus": 0.07},
    ),
    "preset": (["qnd-solve"], ["--preset", "P1"], {"preset": "P1"}),
    "tau_ns": (["qnd-solve", "--preset", "P1"], ["--tau-ns", "1100"], {"tau_ns": 1100.0}),
    "seed": (
        ["trajectories", "--alpha", "0.2", "--n", "20", "--n-traj", "8"],
        ["--seed", "5"],
        {"seed": 5},
    ),
    "n_tdd": (
        NV_SCAN + ["--n-tr", "4", "--n-max", "200"], ["--n-tdd", "3"], {"scan": {"n_tdd": 3}}
    ),
    "n_tr": (NV_SCAN + ["--n-tdd", "2", "--n-max", "200"], ["--n-tr", "5"], {"scan": {"n_tr": 5}}),
    "n_max": (
        NV_SCAN + ["--n-tdd", "2", "--n-tr", "4"], ["--n-max", "300"], {"scan": {"n_max": 300}}
    ),
    "table1 preset": (["table1"], ["--preset", "P3"], {"preset": "P3"}),
    "n": (["distribution", "--alpha", "0.2"], ["--n", "25"], {"n": 25}),
    "law": (["distribution", "--n", "30"], ["--law", "gaussian"], {"law": "gaussian"}),
    "threshold_mode": (
        ["fidelity", "--n", "30"], ["--threshold-mode", "gaussian"], {"threshold_mode": "gaussian"}
    ),
    "n_traj": (TRAJECTORIES, ["--n-traj", "6"], {"n_traj": 6}),
    "initial": (TRAJECTORIES, ["--initial", "mixed"], {"initial": "mixed"}),
    "cycle_rot": (TRAJECTORIES, ["--cycle-rot", "0.1,-0.2,0.3"], {"cycle_rot": [0.1, -0.2, 0.3]}),
    "alpha_vec": (
        ["stability", "--delta-phi", "0.05", "--n-max", "50"],
        ["--alpha-vec", "0,0,2.5"],
        {"alpha_vec": [0.0, 0.0, 2.5]},
    ),
    "delta_phi": (
        ["stability", "--alpha-vec", "0,0,2.5", "--n-max", "50"],
        ["--delta-phi", "0.1"],
        {"delta_phi": 0.1},
    ),
    "error": (STABILITY_Z + ["--seed", "4"], ["--error", "random"], {"error": "random"}),
    "error_axis": (
        STABILITY + ["--n-max", "50"],
        ["--error-axis", "0.3,-0.5,0.8"],
        {"error_axis": [0.3, -0.5, 0.8]},
    ),
    "stability n_max": (STABILITY, ["--n-max", "70"], {"n_max": 70}),
    "stability seed": (STABILITY_Z + ["--error", "random"], ["--seed", "4"], {"seed": 4}),
    # a flag's text parses as the config value it spells; the key's resolver
    # then accepts or refuses it alike
    "n 1e3": (["distribution", "--alpha", "0.2"], ["--n", "1e3"], {"n": 1e3}),
    "n 2.5": (["distribution", "--alpha", "0.2"], ["--n", "2.5"], {"n": 2.5}),
    "n true": (["distribution", "--alpha", "0.2"], ["--n", "true"], {"n": "true"}),
    "n abc": (["distribution", "--alpha", "0.2"], ["--n", "abc"], {"n": "abc"}),
    "seed 1e1": (TRAJECTORIES[:-2] + ["--n-traj", "4"], ["--seed", "1e1"], {"seed": 10}),
    "alpha 1e200": (["binary-stats"], ["--alpha", "1e200"], {"alpha": 1e200}),
    "alpha_vec a number": (
        ["stability", *STABILITY_Z[3:]], ["--alpha-vec", "0.5"], {"alpha_vec": 0.5}
    ),
    "cycle_rot two entries": (TRAJECTORIES, ["--cycle-rot", "0,1"], {"cycle_rot": [0.0, 1.0]}),
    "preset 2": (["table1"], ["--preset", "2"], {"preset": 2}),
    # an integer beyond the float range reads as inf, which the library refuses
    "phi 1e400 as an integer": (["binary-stats"], ["--phi", "1" + "0" * 400], {"phi": 10**400}),
}

REFUSED_FLAG_KEY_CASES = {"n 2.5", "n true", "n abc", "alpha 1e200", "alpha_vec a number"}
REFUSED_FLAG_KEY_CASES |= {"cycle_rot two entries", "preset 2", "phi 1e400 as an integer"}


@pytest.mark.parametrize(
    "argv, flags, keys, refused",
    [(*case, name in REFUSED_FLAG_KEY_CASES) for name, case in FLAG_KEY_CASES.items()],
    ids=list(FLAG_KEY_CASES),
)
def test_a_flag_and_the_config_key_of_its_name_agree(
    tmp_path, monkeypatch, capsys, argv, flags, keys, refused
):
    """Same exit code, stderr, parameters and bytes, refused or not; a refusal writes nothing."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps(keys))
    flag = _outcome(argv + flags, "flag", capsys)
    assert flag == _outcome(argv + ["--config", "run.json"], "key", capsys)
    code, err, written = flag
    if refused:
        assert code == 2 and err.startswith("config error: ") and written is None
    else:
        assert code == 0 and not err


_PATHS = {"help", "config", "out", "out_dir", "force"}


def test_every_flag_sets_a_config_key_of_its_subcommand(tmp_path):
    """Each non-path flag's dest is a declared key, and load_config accepts every declared key."""
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(KEYS)
    for name, parser in sub.choices.items():
        dests = {action.dest for action in parser._actions} - _PATHS
        assert dests <= set(KEYS[name]), name
        assert "--config" in parser._option_string_actions, name
        cfg = {}
        for key in KEYS[name]:
            block, _, leaf = key.rpartition(".")
            (cfg.setdefault(block, {}) if block else cfg)[leaf] = 1
        (tmp_path / "all.json").write_text(json.dumps(cfg))
        assert set(load_config(str(tmp_path / "all.json"))) == set(KEYS[name])


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["qnd-solve", "--preset", "P1", "--tau-ns", "1100"], {"t_DD_ns": 8000.0}),
        (["binary-stats", "--p-plus", "0.9", "--p-minus", "0.8"], {"n_bar": 0.1, "contrast": 0.2}),
    ],
    ids=["tau_ns over t_DD_ns", "p_plus/p_minus over n_bar/contrast"],
)
def test_a_flag_beats_the_file(tmp_path, monkeypatch, argv, cfg):
    """``--tau-ns`` replaces the file's ``t_DD_ns``, a readout flag the file's readout."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    assert _run(argv + ["--config", "run.json"], "both") == _run(argv, "flag")


@pytest.mark.parametrize(
    "seed, message",
    [(2.5, "seed must be an integer"), (-1, "seed must be >= 0"), (True, "seed must be an integer")],
    ids=["fractional", "negative", "bool"],
)
def test_trajectories_bad_config_seed_is_config_error(tmp_path, capsys, seed, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"alpha": 0.1, "seed": seed}))
    out = tmp_path / "out"
    assert main(["trajectories", "--config", str(path), "--n", "5", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out
    assert os.listdir(tmp_path) == ["run.json"]


@pytest.mark.parametrize("kind", ["systematic", "random"])
def test_error_axis_is_normalized_for_both_kinds(tmp_path, kind):
    outputs = []
    for axis in ("2,0,0", "1,0,0"):
        out = str(tmp_path / f"{kind}-{axis[0]}")
        argv = ["stability", "--alpha-vec", "0,0,2.5", "--error", kind, "--delta-phi", "0.05"]
        argv += ["--error-axis", axis, "--n-max", "2000", "--out", out]
        argv += ["--seed", "3"] if kind == "random" else []  # systematic errors refuse a seed
        assert main(argv) == 0
        with open(out + ".csv", "rb") as handle:
            outputs.append(handle.read())
    assert outputs[0] == outputs[1]


# Each case runs in its own directory with relative output paths, so stdout
# and the manifests' "outputs" are reproducible.  The digests, parameters and
# outputs in cli_golden.json were recorded before the subcommands shared one
# emit path; any change to them must be deliberate.
GOLDEN_CASES = [
    ("table1", ["table1", "--out", "t1"], None),
    ("table1 P3", ["table1", "--preset", "P3", "--out", "t1"], None),
    (
        "binary-stats",
        ["binary-stats", "--alpha", "0.3", "--phi", "1.2", "--p-plus", "0.9", "--p-minus", "0.8"]
        + ["--out", "bs"],
        None,
    ),
    (
        "binary-stats config",
        ["binary-stats", "--config", "run.json", "--out", "bs"],
        {"alpha": 0.2, "phi": 1.3, "n_bar": 0.1, "contrast": 0.3},
    ),
    (
        "distribution",
        ["distribution", "--alpha", "0.2", "--phi", "1.1", "--n", "40", "--out", "d"],
        None,
    ),
    (
        "distribution gaussian",
        ["distribution", "--alpha", "0.25", "--phi", "1.0", "--n", "60", "--law", "gaussian"]
        + ["--n-plus", "0.1", "--n-minus", "0.07", "--out", "d"],
        None,
    ),
    (
        "fidelity",
        ["fidelity", "--alpha", "0.1", "--phi", "1.5707963", "--n", "200", "--out", "f"],
        None,
    ),
    (
        "fidelity gaussian",
        ["fidelity", "--alpha", "0.3", "--phi", "1.2", "--n", "50", "--threshold-mode", "gaussian"]
        + ["--p-plus", "0.95", "--p-minus", "0.9", "--out", "f"],
        None,
    ),
    ("qnd-solve", ["qnd-solve", "--preset", "P2", "--out", "q"], None),
    ("qnd-solve tau", ["qnd-solve", "--preset", "P1", "--tau-ns", "1100", "--out", "q"], None),
    (
        "qnd-solve config",
        ["qnd-solve", "--config", "run.json", "--out", "q"],
        {"B_gauss": 500.0, "N_DD": 4, "A_MHz": [0.1, 0.2, 0.3], "t_DD_ns": 8000.0},
    ),
    (
        "stability systematic",
        ["stability", "--alpha-vec", "0,0,2.5", "--delta-phi", "0.05", "--error-axis", "1,0,0"]
        + ["--n-max", "300", "--out", "s"],
        None,
    ),
    (
        "stability random tilted",
        ["stability", "--alpha-vec", "0.3,0.2,1.1", "--error", "random", "--delta-phi", "0.05"]
        + ["--error-axis", "0.3,-0.5,0.8", "--seed", "4", "--n-max", "300", "--out", "s"],
        None,
    ),
    (
        "trajectories tilted",
        ["trajectories", "--alpha", "0.2", "--phi", "1.3", "--n", "30", "--n-traj", "40"]
        + ["--seed", "5", "--initial", "mixed", "--cycle-rot", "0.1,-0.2,0.3", "--out", "tr"],
        None,
    ),
    (
        "trajectories config",
        ["trajectories", "--config", "run.json", "--n", "20", "--n-traj", "10", "--out", "tr"],
        {"alpha": 0.1, "phi": 1.4, "seed": 9},
    ),
    (
        "nv-scan",
        ["nv-scan", "--preset", "P2", "--n-tdd", "6", "--n-tr", "12", "--n-max", "2000"]
        + ["--out-dir", "scan"],
        None,
    ),
    (
        "nv-scan config",
        ["nv-scan", "--config", "run.json", "--out-dir", "scan"],
        {
            "preset": "P1",
            "n_plus": 0.12,
            "n_minus": 0.05,
            "scan": {"n_tdd": 6, "n_tr": 12, "n_max": 2000}
            | {"tau_rel_min": 0.97, "tau_rel_max": 1.02},
        },
    ),
]


@pytest.mark.parametrize("name, argv, cfg", GOLDEN_CASES, ids=[case[0] for case in GOLDEN_CASES])
def test_golden_manifests_replay_as_configs(tmp_path, monkeypatch, name, argv, cfg):
    """A manifest's parameters, fed back as --config, give the same CSV bytes."""
    monkeypatch.chdir(tmp_path)
    if cfg is not None:
        (tmp_path / "run.json").write_text(json.dumps(cfg))
    assert main(argv) == 0
    scan = argv[0] == "nv-scan"
    manifest, outputs = _outputs_of("scan/manifest.json" if scan else argv[-1] + ".manifest.json")
    assert manifest["ignored_keys"] == []
    (tmp_path / "replay.json").write_text(json.dumps(manifest["parameters"]))
    assert _run([argv[0], "--config", "replay.json"], "replay") == (manifest["parameters"], outputs)


def test_keys_a_subcommand_does_not_read_are_listed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = NV_SCAN[:1] + ["--n-tdd", "2", "--n-tr", "3", "--n-max", "50", "--config", "run.json"]
    runs = []
    for cfg in ({"preset": "P2", "seed": 3}, {"preset": "P2"}):
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        assert main(argv + ["--out-dir", f"run{len(runs)}"]) == 0
        runs.append(_outputs_of(f"run{len(runs)}/manifest.json"))
    (seeded, seeded_outputs), (plain, plain_outputs) = runs
    assert seeded["ignored_keys"] == ["seed"] and plain["ignored_keys"] == []
    assert seeded["parameters"] == plain["parameters"] and seeded_outputs == plain_outputs


@pytest.mark.parametrize("name, argv, cfg", GOLDEN_CASES, ids=[case[0] for case in GOLDEN_CASES])
def test_outputs_match_golden_bytes(tmp_path, monkeypatch, capsys, name, argv, cfg):
    golden_path = os.path.join(os.path.dirname(__file__), "cli_golden.json")
    with open(golden_path, encoding="utf-8") as handle:
        golden = json.load(handle)[name]
    monkeypatch.chdir(tmp_path)
    if cfg is not None:
        (tmp_path / "run.json").write_text(json.dumps(cfg))
    assert main(argv) == 0
    digests, manifests, recorded = {}, {}, {}
    for root, _, files in os.walk("."):
        for name in files:
            path = os.path.relpath(os.path.join(root, name))
            if path.endswith(".csv"):
                with open(path, "rb") as handle:
                    digests[path] = hashlib.sha256(handle.read()).hexdigest()
            elif path.endswith("manifest.json"):
                with open(path, encoding="utf-8") as handle:
                    manifest = json.load(handle)
                manifests[path] = {key: manifest[key] for key in ("parameters", "outputs")}
                recorded[path] = manifest["sha256"]
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == golden["stdout"]
    assert digests == golden["csv"]
    assert manifests == golden["manifests"]
    for path, manifest in manifests.items():  # each manifest digests its own outputs
        assert sorted(recorded[path]) == sorted(manifest["outputs"])
        for output, digest in recorded[path].items():
            assert digests[os.path.relpath(output)] == digest


@pytest.mark.parametrize("name, rows", [("trajectories config", 10), ("trajectories tilted", 0)])
def test_trajectories_manifest_counts_fixed_point_rows(tmp_path, monkeypatch, name, rows):
    """The plus eigenstate under the identity skips the kernel; a mixed start never does."""
    _, argv, cfg = next(case for case in GOLDEN_CASES if case[0] == name)
    monkeypatch.chdir(tmp_path)
    if cfg is not None:
        (tmp_path / "run.json").write_text(json.dumps(cfg))
    assert main(argv) == 0
    manifest = json.load(open("tr.manifest.json"))
    assert manifest["diagnostics"]["fixed_point_rows"] == rows


# sha256 of the perfbench ``scan`` workload's outputs, as recorded in
# perfbench/reference/reference.json
BENCHMARK_GRID_SHA256 = {
    "scan.csv": "9f92002bb4a7790e601ac255290746446954b24a0fbceafda279e41feb6c0aa4",
    "tolerance.csv": "5953eab4e5b1eac7ee961e6b033bb6a88241c9c995e3722857efdd20346687ee",
}


def scan_digests_and_diagnostics(out_dir, *flags, preset="P2"):
    """Run nv-scan for ``preset`` with ``flags``; the CSV digests and the diagnostics."""
    assert main(["nv-scan", "--preset", preset, *flags, "--out-dir", str(out_dir)]) == 0
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("scan.csv", "tolerance.csv")
    }
    return digests, json.loads((out_dir / "manifest.json").read_text())["diagnostics"]


def test_benchmark_grid_bytes(tmp_path):
    flags = ["--n-tdd", "25", "--n-tr", "64", "--n-max", "100000"]
    digests, diagnostics = scan_digests_and_diagnostics(tmp_path, *flags)
    assert digests == BENCHMARK_GRID_SHA256
    assert (diagnostics["kernel_calls"], diagnostics["bisection_probes"]) == (16, 750)


# sha256 of nv-scan's outputs for preset P2 on three more grids, and the
# tolerance probes each run asks
RECORDED_GRIDS = {
    "defaults": (
        [],
        "a8e4ab62d8f555a1b5fc72a6bae5cd8909138392bb53942d44e56a9ba4aeef91",
        "f82b9cbe75aca0a7a2e6903352375c8bb53901e2ce5c4593fe14d2ba6e079256",
        7680,
    ),
    "64x128, n_max 1e6": (
        ["--n-tdd", "64", "--n-tr", "128", "--n-max", "1000000"],
        "9aff92ccb1d47ee5f981448bc126ada393d76ec4081dfb9eb104464b4289c59e",
        "47480145e628bbfead8694533fd55da8a84a30f76f56d456cb565a2a31d79f07",
        1920,
    ),
    "101x200, n_max 3e5": (
        ["--n-tdd", "101", "--n-tr", "200", "--n-max", "300000"],
        "f9079498f7389ee75f11a1dfe7c617c7bd8f2be618a517d6376f27bcae9c5032",
        "0a4c9f1d0b1d6ef5bea6d8618f00c318965a4f4687089e2eb29c89951f9633db",
        3030,
    ),
}


@pytest.mark.parametrize(
    "flags, scan, tolerance, probes", RECORDED_GRIDS.values(), ids=list(RECORDED_GRIDS)
)
def test_recorded_grid_bytes(tmp_path, flags, scan, tolerance, probes):
    digests, diagnostics = scan_digests_and_diagnostics(tmp_path, *flags)
    assert digests == {"scan.csv": scan, "tolerance.csv": tolerance}
    assert (diagnostics["kernel_calls"], diagnostics["bisection_probes"]) == (16, probes)
    assert diagnostics["certified_points"] > 0 <= diagnostics["fallback_points"]
    assert diagnostics["rows_capped_by_n_max"] == 0
    # the bisected widths sit 5-8 % above 2 D |tan(alpha/2)| / |omega + A/2|
    low, high = diagnostics["closed_form_width_ratio"]
    assert 1.0 < low <= high < 1.1


# sha256 of nv-scan's outputs for presets P1 and P3 at the defaults, the
# kernel calls and tolerance probes each run makes, and its rows with
# N_c - 1 > n_max.  The step walk decides most of these points, so the bytes
# check the certificate rather than trust it.
RECORDED_PRESETS = {
    "P1": (
        "7e728c5159f75485200b836b60806dd5f948fc6a1ce9c0380edcb1bbb089bc82",
        "dca23204f05512acf9c99b653a9cd09392c8ec7c4d4c696efcbc6416b77361a1",
        16,
        7680,
        0,
    ),
    "P3": (
        "08da02978fdb0c18cea4fa011f18a4c930250df3c37cd36e734ac4b6fee23d76",
        "771d0c970ecd2d8d9c97da2f7a482b2688f3e79323d75996441494bc8d1aae57",
        17,
        7893,
        8,
    ),
}


@pytest.mark.parametrize(
    "preset, scan, tolerance, calls, probes, capped",
    [(preset, *pins) for preset, pins in RECORDED_PRESETS.items()],
    ids=list(RECORDED_PRESETS),
)
def test_recorded_preset_bytes(tmp_path, preset, scan, tolerance, calls, probes, capped):
    digests, diagnostics = scan_digests_and_diagnostics(tmp_path, preset=preset)
    assert digests == {"scan.csv": scan, "tolerance.csv": tolerance}
    assert (diagnostics["kernel_calls"], diagnostics["bisection_probes"]) == (calls, probes)
    assert diagnostics["certified_points"] > 0 < diagnostics["fallback_points"]
    assert diagnostics["rows_capped_by_n_max"] == capped
    # criterion 10's structure: the worst case never exceeds the measured width, which is never 0
    measured, worst = np.loadtxt(
        tmp_path / "tolerance.csv", delimiter=",", skiprows=1, usecols=(1, 2), unpack=True
    )
    assert not (worst > measured).any() and not (measured == 0.0).any()


def test_capped_rows_are_the_tolerance_rows_with_n_c_beyond_n_max(tmp_path):
    # N_c runs 685-841 and one row has N_c - 1 == n_max, which is not capped
    flags = ["--n-tdd", "25", "--n-tr", "64", "--n-max", "725"]
    _, diagnostics = scan_digests_and_diagnostics(tmp_path, *flags)
    n_c = np.loadtxt(tmp_path / "tolerance.csv", delimiter=",", skiprows=1, usecols=3)
    assert (n_c == 726).sum() == 1
    capped = int((np.isfinite(n_c) & (n_c - 1 > 725)).sum())
    assert 0 < capped < np.isfinite(n_c).sum()
    assert diagnostics["rows_capped_by_n_max"] == capped


def test_fmt_keeps_the_sign_of_infinities():
    values = (math.inf, -math.inf, 0.1 + 0.2, np.float64(-2.5e-7), 3)
    assert [cli._fmt(v) for v in values] == ["inf", "-inf", "0.3", "-2.5e-07", "3"]


CELLS = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -1e-310]),
    st.integers(-(2**63), 2**63 - 1),
    st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(value=CELLS, as_array=st.booleans())
def test_a_written_cell_is_fmt_of_the_python_scalar(value, as_array):
    column = np.array([value]) if as_array else [value]
    assert "".join(cli._csv_blocks(["v"], [column])) == f"v\n{cli._fmt(value)}\n"


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_emit_writes_the_row_by_row_text_and_its_digest(tmp_path, offset):
    rows = cli._ROWS + offset
    rng = np.random.default_rng(rows)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
    floats[:5] = [math.inf, -math.inf, math.nan, -0.0, 5e-324]
    labels = [f"r{i}" for i in range(rows)]
    paths = [str(tmp_path / "t.csv"), str(tmp_path / "t.manifest.json")]
    args = argparse.Namespace(command="test", started=time.time())
    table = (["i", "x", "label"], [np.arange(rows), floats, labels])
    cli._emit(args, paths, Inputs({}, ()), [table])
    body = zip(range(rows), floats.tolist(), labels)
    expected = "i,x,label\n" + "".join(",".join(map(cli._fmt, row)) + "\n" for row in body)
    written = (tmp_path / "t.csv").read_bytes()
    assert written == expected.encode()
    with open(paths[1], encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest["sha256"] == {paths[0]: hashlib.sha256(written).hexdigest()}


# floats whose text is easy to get wrong, and a signalling nan with a payload
EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -1e-310, 1.0]
EDGE_FLOATS.append(np.array([0x7FF0000000000001], dtype=np.uint64).view(float)[0].item())


@settings(max_examples=200, deadline=None)
@given(
    floats=st.lists(st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)), min_size=1, max_size=6),
    ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=6),
    picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=40),
    block=st.integers(1, 9),
)
def test_csv_blocks_equal_the_row_by_row_fmt_text(floats, ints, picks, block):
    """Columns with repeats: each distinct value is formatted once, every cell
    still reads as ``_fmt`` of its own Python scalar, across block ends."""
    x = np.array([floats[i % len(floats)] for i, _ in picks], dtype=float)
    n = np.array([ints[j % len(ints)] for _, j in picks], dtype=np.int64)
    columns = [x, n, -x, np.abs(n) > 3]
    rows = zip(*(column.tolist() for column in columns))
    expected = "x,n,y,b\n" + "".join(",".join(map(cli._fmt, row)) + "\n" for row in rows)
    with mock.patch.object(cli, "_ROWS", block):
        assert "".join(cli._csv_blocks(["x", "n", "y", "b"], columns)) == expected


def test_emit_refuses_columns_of_unequal_lengths():
    with pytest.raises(ValueError, match="unequal lengths"):
        list(cli._csv_blocks(["a", "b"], [[1.0, 2.0], [3.0]]))


@pytest.fixture
def built_parsers(monkeypatch):
    """The ``command`` of each ``build_parser`` call that ``main`` makes."""
    built, build = [], cli.build_parser

    def recorded(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", recorded)
    return built


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_a_subcommand_is_parsed_by_its_own_parser_alone(name, capsys, built_parsers):
    """``main`` builds only the named subparser; its help and errors read as the full parser's."""
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    full_help = sub.choices[name].format_help()
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([name, "--bogus"])
    full_error = capsys.readouterr().err
    built_parsers.clear()
    assert main([name, "--help"]) == 0
    assert capsys.readouterr().out == full_help
    assert main([name, "--bogus"]) == 2
    assert capsys.readouterr().err == full_error
    assert built_parsers == [name, name]


@pytest.mark.parametrize(
    "argv, code, text",
    [
        ([], 2, "the following arguments are required: command"),
        (["bogus"], 2, "argument command: invalid choice: 'bogus'"),
        (["--help"], 0, "2D (t_DD, t_R) lifetime and tolerance scan"),
        (["--version"], 0, qndspin.__version__),
    ],
    ids=["empty", "unknown command", "help", "version"],
)
def test_anything_but_a_subcommand_gets_the_full_parser(argv, code, text, capsys, built_parsers):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert text in captured.out + captured.err
    assert built_parsers == [None]


def test_python_dash_m_entry_point():
    src = os.path.dirname(os.path.dirname(qndspin.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "qndspin", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert "stability" in done.stdout


def test_cli_import_leaves_scipy_special_unloaded():
    src = os.path.dirname(os.path.dirname(qndspin.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, qndspin.cli, qndspin.nv; print('scipy.special' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_output_collision_refused(tmp_path):
    out = str(tmp_path / "t")
    assert main(["table1", "--out", out]) == 0
    assert main(["table1", "--out", out]) == 2
    assert main(["table1", "--out", out, "--force"]) == 0


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"preset": "P2", "typo_key": 1}))
    out = str(tmp_path / "x")
    assert main(["qnd-solve", "--config", str(cfg), "--out", out]) == 2
    assert not os.path.exists(out + ".csv")


def test_config_file_drives_run(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps({"preset": "P2", "n_plus": 0.1, "n_minus": 0.07, "alpha": 0.1, "phi": 1.5707963})
    )
    out = str(tmp_path / "bs")
    assert main(["binary-stats", "--config", str(cfg), "--out", out]) == 0
    _, rows = read_csv(out + ".csv")
    assert float(rows[0][2]) == pytest.approx(0.1)  # p_plus = n_plus
    assert float(rows[0][3]) == pytest.approx(0.93)


def test_manifest_reproduces_output(tmp_path):
    out = str(tmp_path / "d1")
    assert main(["distribution", "--alpha", "0.2", "--phi", "1.1", "--n", "30", "--out", out]) == 0
    manifest = json.load(open(out + ".manifest.json"))
    params = manifest["parameters"]
    out2 = str(tmp_path / "d2")
    assert (
        main(
            [
                "distribution",
                "--alpha", str(params["alpha"]),
                "--phi", str(params["phi"]),
                "--p-plus", str(params["p_plus"]),
                "--p-minus", str(params["p_minus"]),
                "--n", str(params["n"]),
                "--law", params["law"],
                "--out", out2,
            ]
        )
        == 0
    )
    with open(out + ".csv", "rb") as fa, open(out2 + ".csv", "rb") as fb:
        assert fa.read() == fb.read()


def test_unknown_subcommand_exits_2():
    assert main(["no-such-command"]) == 2


def test_missing_required_flag_exits_2():
    assert main(["fidelity"]) == 2
