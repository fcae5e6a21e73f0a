import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import qndspin
from qndspin.cli import main
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
    assert set(timings) == {"stream_s", "kernel_s", "write_s"}
    assert all(seconds >= 0.0 for seconds in timings.values())


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


@pytest.mark.parametrize(
    "scan",
    [
        {"tau_rel_min": math.nan},
        {"tau_rel_max": math.inf},
        {"tau_rel_min": 0.0},
        {"tau_rel_max": -1.05},
        {"tau_rel_min": "wide"},
    ],
    ids=["min nan", "max inf", "min zero", "max negative", "min not a number"],
)
def test_nv_scan_bad_tau_span_is_config_error(tmp_path, capsys, scan):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"preset": "P2", "scan": scan}))
    out_dir = tmp_path / "out"
    argv = ["nv-scan", "--config", str(cfg), "--out-dir", str(out_dir)]
    assert main(argv + ["--n-tdd", "2", "--n-tr", "3", "--n-max", "10"]) == 2
    assert "scan.tau_rel_" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["stability", "--alpha-vec", "0,0,0.5", "--error", "random", "--delta-phi", "-0.1", "--seed", "1"],
        ["stability", "--alpha-vec", "0,0,0.5", "--error", "random", "--delta-phi", "0.1", "--seed", "-1"],
        ["stability", "--alpha-vec", "0,0,0.5", "--error", "random", "--delta-phi", "0.1", "--seed", "1",
         "--error-axis", "0,0,0"],
        ["stability", "--alpha-vec", "0,0,0", "--delta-phi", "0.1"],
        ["stability", "--alpha-vec", "7,0,0", "--delta-phi", "0.1"],
        ["trajectories", "--n", "5", "--alpha", "0.1", "--seed", "-1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_out_of_range_inputs_are_config_errors(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "error" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_python_dash_m_entry_point():
    src = os.path.dirname(os.path.dirname(qndspin.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "qndspin", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert "stability" in done.stdout


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
