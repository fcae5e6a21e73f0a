"""Each declared config key against its kind's extreme values, sizes that cannot be
allocated, and the README's key table."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest
from test_cli import GOLDEN_CASES

import qndspin
from qndspin import cli, config
from qndspin.cli import main
from qndspin.config import KEYS

# the domain's ends (the rotations docstring) and one float beyond each
DOMAIN = [1e-75, 1e75, math.nextafter(1e-75, 0.0), math.nextafter(1e75, math.inf)]
# the extremes of each kind; a choice gets its own names and two it does not have
NUMBERS = [0, -0.0, -1, 5e-324, 1e-300, 1e-12, 3, 1e12, 1e154, 1e300, *DOMAIN]
EXTREMES = {
    config.as_count: [0, -1, 2.5],
    config.as_seed: [0, -1, 2.5],
    config.as_number: NUMBERS,
    config.as_positive: NUMBERS,
    config.as_vector: [[0, 0, 0], [1e-300, 0, 0], [1e150, 0, 0], [1e154, 0, 0], [4, 0, 0]]
    + [[1e-160, 1e-160, 0]]
    + [[value, 0, 0] for value in DOMAIN],
}

# a readout key is given with the other key of its pair, in place of the base's readout
PARTNERS = {
    "p_plus": ("p_minus", 0.9),
    "p_minus": ("p_plus", 0.9),
    "n_plus": ("n_minus", 0.0),
    "n_minus": ("n_plus", 1.0),
    "n_bar": ("contrast", 0.3),
    "contrast": ("n_bar", 0.1),
}


def extremes(spec):
    return [*spec.options, "", 1] if spec.options else EXTREMES[spec.kind]


def golden_bases(command):
    """The keys of each golden case of ``command`` (its file's, its flags laid over), flat."""
    for _, argv, cfg in GOLDEN_CASES:
        if argv[0] == command:
            flat = dict(cfg or {})
            flat.update((f"scan.{key}", value) for key, value in flat.pop("scan", {}).items())
            flags = vars(cli.build_parser(command).parse_args(argv)).items()
            yield flat | {k: v for k, v in flags if k in KEYS[command] and v is not None}


def nested(flat):
    """A config file's object for ``flat`` keys: ``scan.<key>`` inside its block."""
    cfg = {}
    for key, value in flat.items():
        block, _, leaf = key.rpartition(".")
        (cfg.setdefault(block, {}) if block else cfg)[leaf] = value
    return cfg


ROWS = [(command, key) for command, keys in KEYS.items() for key in keys]


def test_every_declared_key_has_a_row():
    """A key whose kind has no extremes, or a subcommand with no golden case, fails here."""
    kinds = [(c, k) for c, k in ROWS if not (KEYS[c][k].options or KEYS[c][k].kind in EXTREMES)]
    assert kinds == []
    assert [command for command in KEYS if not list(golden_bases(command))] == []


def with_partners(base, keys):
    """``base`` with, for each readout key among ``keys``, the base's readout
    replaced by the other key of its pair (unless that is among ``keys`` too)."""
    readout = [key for key in keys if key in PARTNERS]
    if not readout:
        return base
    base = {k: v for k, v in base.items() if k not in PARTNERS}
    return base | dict(PARTNERS[key] for key in readout if PARTNERS[key][0] not in keys)


def run_clean_or_refused(tmp_path, capsys, command, cfg, runs):
    """``None`` if ``command`` on the config ``cfg`` exits 0 with no ``nan`` cell in
    any CSV, or exits 2 with ``config error:`` and nothing written; else what it did."""
    path, run = tmp_path / f"{runs}.json", tmp_path / str(runs)
    path.write_text(json.dumps(nested(cfg)))
    run.mkdir()
    out = ["--out-dir", str(run / "out")] if command == "nv-scan" else ["--out", str(run / "o")]
    code = main([command, "--config", str(path), *out])
    err, written = capsys.readouterr().err, list(run.rglob("*"))
    csvs = [p.read_text().replace(",", "\n").split("\n") for p in written if p.suffix == ".csv"]
    if code == 0 and any("nan" in cells for cells in csvs):
        return cfg, "nan written"
    if code != 0 and not (code == 2 and err.startswith("config error: ") and not written):
        return cfg, code, err, [p.name for p in written]
    return None


@pytest.mark.parametrize("command, key", ROWS, ids=[f"{c} {k}" for c, k in ROWS])
def test_each_extreme_runs_clean_or_is_refused_with_nothing_written(tmp_path, capsys, command, key):
    """Exit 0 with no ``nan`` cell in any CSV, or exit 2 with nothing written; never exit 1.

    Each extreme replaces ``key`` in every golden case of ``command``.
    """
    bad, runs = [], 0
    for base in golden_bases(command):
        base = with_partners(base, [key])
        for value in extremes(KEYS[command][key]):
            runs += 1
            bad.append(run_clean_or_refused(tmp_path, capsys, command, base | {key: value}, runs))
    assert [found for found in bad if found] == []


# the keys whose values are floats, at each end of the domain (vectors along x)
ENDS = {config.as_number: [1e-75, 1e75], config.as_positive: [1e-75, 1e75]}
ENDS[config.as_vector] = [[1e-75, 0, 0], [1e75, 0, 0]]
PAIRS = [
    (command, first, second)
    for command, keys in KEYS.items()
    for i, first in enumerate(keys)
    for second in list(keys)[i + 1 :]
    if keys[first].kind in ENDS and keys[second].kind in ENDS
]


@pytest.mark.parametrize("command, first, second", PAIRS, ids=[" ".join(p) for p in PAIRS])
def test_each_pair_of_domain_ends_runs_clean_or_is_refused(
    tmp_path, capsys, command, first, second
):
    """The single-key rule for every pair of float keys, each at 1e-75 and at 1e75,
    in the first golden case of ``command``: products of two keys stay in range."""
    keys = KEYS[command]
    base = with_partners(next(golden_bases(command)), [first, second])
    bad, runs = [], 0
    for one in ENDS[keys[first].kind]:
        for other in ENDS[keys[second].kind]:
            runs += 1
            cfg = base | {first: one, second: other}
            bad.append(run_clean_or_refused(tmp_path, capsys, command, cfg, runs))
    assert [found for found in bad if found] == []


# one run per size key whose arrays a 2 GiB address space cannot hold
UNALLOCATABLE = {
    "n": ["distribution", "--n", "1e15", "--out", "out/d"],
    "n_traj": ["trajectories", "--n", "10", "--n-traj", "1e12", "--out", "out/t"],
    "n_max": ["stability", "--alpha-vec", "0,0,1", "--delta-phi", "0.1", "--n-max", "1e15"]
    + ["--out", "out/s"],
    "scan.n_tdd": ["nv-scan", "--preset", "P2", "--n-tdd", "1e9", "--n-tr", "3", "--n-max", "10"]
    + ["--out-dir", "out/scan"],
}

CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from qndspin.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_limited(tmp_path, argv):
    """``main(argv)`` in a child process whose address space is limited to 2 GiB."""
    src = str(pathlib.Path(qndspin.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    (tmp_path / "out").mkdir()
    command = [sys.executable, "-c", CHILD, *argv]
    return subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", UNALLOCATABLE.values(), ids=list(UNALLOCATABLE))
def test_a_size_that_cannot_be_allocated_exits_1_with_nothing_written(tmp_path, argv):
    result = run_limited(tmp_path, argv)
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("error: Unable to allocate") and not result.stdout
    assert os.listdir(tmp_path / "out") == []


def test_an_iteration_cap_allocates_nothing_of_its_size(tmp_path):
    """``scan.n_max`` caps the lifetime search; no array has its size, so 1e15 runs."""
    argv = ["nv-scan", "--preset", "P2", "--n-tdd", "6", "--n-tr", "12", "--n-max", "1e15"]
    result = run_limited(tmp_path, [*argv, "--out-dir", "out/scan"])
    assert result.returncode == 0, result.stderr
    assert sorted(os.listdir(tmp_path / "out" / "scan")) == [
        "manifest.json",
        "scan.csv",
        "tolerance.csv",
    ]


def readme_key_table():
    """``{(subcommand, key): (kind, default)}`` from the README's "Configuration files" table."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("### Configuration files")[1].split("### CSV schemas")[0]
    rows = re.findall(r"^\| `([\w.]+)` \| (.+?) \| (.+?) \| (.+?) \|$", section, re.M)
    return {
        (command, key): (kind, default)
        for key, kind, default, commands in rows
        for command in re.findall(r"`([\w-]+)`", commands)
    }


def test_the_readme_table_names_each_key_with_its_declaration():
    """Each subcommand's keys exactly, each with its kind and the default ``--help`` shows."""
    table = readme_key_table()
    assert sorted(table) == sorted(ROWS)
    for (command, key), (kind, default) in table.items():
        spec = KEYS[command][key]
        names = ", ".join(f"`{name}`" for name in spec.options)
        assert kind == (names or spec.kind.__name__.removeprefix("as_")), (command, key)
        if spec.default is ...:
            assert default == "required", (command, key)
        elif spec.default is None:
            assert default == "none", (command, key)
        else:
            assert cli._help(spec).endswith(f"(default {default})"), (command, key)
