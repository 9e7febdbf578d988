import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import pytest

from lazyqec.cli import main
from lazyqec.code_model import CheckBasis, build_rotated_surface_code, build_schedule
from lazyqec.graph import build_decoding_graph
from lazyqec.noise import NoiseParams

ROOT = Path(__file__).resolve().parents[1]
SUBCOMMANDS = {"simulate", "requirements", "benchmark", "bandwidth", "graph-dump"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_json(capsys):
    code, out, _ = run(
        capsys, "simulate", "--p", "1e-3", "--d", "3",
        "--trials", "200", "--seed", "1", "--out", "json",
    )
    assert code == 0
    (row,) = json.loads(out)
    assert row["quantity"] == "p_fail"
    assert row["trials"] == 200
    assert 0.0 <= row["point"] <= 1.0


def test_simulate_logical_decoder(capsys):
    code, out, _ = run(
        capsys, "simulate", "--decoder", "lazy+uf", "--mode", "perfect",
        "--p", "0.05", "--d", "4", "--trials", "200", "--out", "json",
    )
    assert code == 0
    (row,) = json.loads(out)
    assert row["quantity"] == "p_logical[lazy+uf]"


def test_requirements_table(capsys):
    code, out, _ = run(
        capsys, "requirements", "--p", "1e-4", "--k", "100",
        "--trials", "200", "--out", "table",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "bw required" in lines[0]
    assert " 15 " in f" {lines[1]} " or "  15" in lines[1]


def test_requirements_csv(capsys):
    code, out, _ = run(
        capsys, "requirements", "--p", "1e-4", "--k", "100,1000",
        "--trials", "200", "--out", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert rows[0]["d"] == "15"
    assert {"p", "K", "p_fail", "bw_required", "savings_fraction"} <= set(rows[0])


def test_requirements_infeasible_exit_2(capsys):
    code, _, err = run(
        capsys, "requirements", "--p", "1e-2", "--k", "100", "--trials", "10",
    )
    assert code == 2
    assert "infeasible" in err


def test_bandwidth_csv(capsys):
    code, out, _ = run(
        capsys, "bandwidth", "--p", "1e-3", "--d", "3,5",
        "--trials", "300", "--out", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["d"] for r in rows] == ["3", "5"]
    for r in rows:
        assert float(r["bw_with"]) <= float(r["bw_without"])


def test_benchmark_json(capsys):
    code, out, _ = run(
        capsys, "benchmark", "--p", "0.01", "--d", "6",
        "--trials", "50", "--decoder", "uf,lazy+uf", "--out", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["decoder"] for r in rows] == ["uf", "lazy+uf"]
    for r in rows:
        assert r["mean_s"] >= 0.0


def test_graph_dump(capsys):
    code, out, _ = run(capsys, "graph-dump", "--d", "3", "--rounds", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["rounds"] == 3
    assert doc["edges"]
    code, out, _ = run(capsys, "graph-dump", "--code", "toric", "--d", "4",
                       "--mode", "perfect")
    assert code == 0
    doc = json.loads(out)
    assert doc["rounds"] == 1


def test_graph_dump_reports_graph_diagnostics(capsys):
    code, out, _ = run(capsys, "graph-dump", "--d", "3", "--rounds", "3")
    assert code == 0
    doc = json.loads(out)
    lay = build_rotated_surface_code(3)
    graph = build_decoding_graph(lay, build_schedule(lay), 3, NoiseParams(1e-3), CheckBasis.X)
    assert doc["obs_conflicts"] == graph.obs_conflicts
    assert doc["invisible_obs_faults"] == graph.invisible_obs_faults
    kinds = [e.kind for e in (*graph.edges, *graph.half_edges)]
    assert doc["edge_counts"] == {k: kinds.count(k) for k in doc["edge_counts"]}
    assert set(doc["edge_counts"]) == {"space", "time", "diagonal", "boundary", "time_boundary"}
    assert sum(doc["edge_counts"].values()) == len(doc["edges"])


def test_usage_error_exit_1(capsys):
    assert run(capsys, "simulate", "--decoder", "nope")[0] == 1
    assert run(capsys, "no-such-command")[0] == 1


def test_bad_value_exit_1(capsys):
    code, _, err = run(capsys, "simulate", "--p", "2.0", "--trials", "10")
    assert code == 1
    assert "error" in err


def _assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    # The help text quotes the module docstring, which names every
    # subcommand, so read the registered subparsers from the usage line.
    usage = re.search(r"\Ausage: lazyqec .*?\{([^}]*)\}", proc.stdout, re.S)
    assert usage is not None, proc.stdout
    assert set(usage.group(1).split(",")) == SUBCOMMANDS


def test_console_script_installed():
    """The `lazyqec` command that pyproject.toml declares runs `--help`.

    The declared target is run from the source tree the way pip's generated
    launcher runs it, so the check needs no install. Where the package is
    installed, the installed entry point must match the declaration and the
    `lazyqec` executable on PATH must pass the same check.
    """
    try:
        import tomllib
    except ModuleNotFoundError:         # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as f:
        pyproject = tomllib.load(f)
    target = pyproject["project"]["scripts"]["lazyqec"]
    (where,) = pyproject["tool"]["setuptools"]["packages"]["find"]["where"]

    module, func = target.split(":")
    launcher = f"import sys\nfrom {module} import {func}\nsys.exit({func}())"
    path = [str(ROOT / where), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    _assert_help(subprocess.run([sys.executable, "-c", launcher, "--help"],
                                capture_output=True, text=True, env=env))

    dist = next(iter(metadata.distributions(name="lazyqec")), None)
    if dist is not None:
        (entry,) = dist.entry_points.select(group="console_scripts", name="lazyqec")
        assert entry.value == target
        exe = shutil.which("lazyqec")
        assert exe is not None
        _assert_help(subprocess.run([exe, "--help"], capture_output=True, text=True))
