import json
import subprocess
import sys

import pytest

from gptlab import statespace as ss
from gptlab.report import validate_report
from gptlab.statespace import space_to_json


def run_cli(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "gptlab", *args],
        capture_output=True, text=True, cwd=cwd,
    )
    return proc


@pytest.fixture()
def gbit_json(tmp_path):
    path = tmp_path / "gbit.json"
    path.write_text(json.dumps(space_to_json(ss.gbit())))
    return path


@pytest.fixture()
def d1_json(tmp_path):
    path = tmp_path / "d1.json"
    path.write_text(json.dumps(space_to_json(ss.simplex(1))))
    return path


def test_run_demo_json_exit_zero():
    proc = run_cli("--json", "run", "--demo")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    validate_report(data)
    assert all(c["verdict"] in ("pass", "inapplicable") for c in data["checks"])


def test_run_missing_file_exit_two():
    proc = run_cli("run", "missing.gpt")
    assert proc.returncode == 2
    assert "file not found" in proc.stderr


def test_run_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.gpt"
    bad.write_text("space A = blorp(3)\n")
    proc = run_cli("run", str(bad))
    assert proc.returncode == 2
    assert "1:11" in proc.stderr


def test_run_zero_denominator_exit_two(tmp_path):
    bad = tmp_path / "zero.gpt"
    bad.write_text("space A = vertices [[1/0, 1]] unit [0, 1]\n")
    proc = run_cli("run", str(bad))
    assert proc.returncode == 2
    assert "1:22" in proc.stderr


def test_run_failing_check_exit_one(tmp_path):
    scen = tmp_path / "failing.gpt"
    scen.write_text(
        "space G = gbit()\nspace GG = product(G, G)\nmap SW = swap(G, G)\n"
        "check lri SW on GG\n"
    )
    proc = run_cli("run", str(scen))
    assert proc.returncode == 1


def test_group_subcommand_prints_order_and_matrices(gbit_json):
    proc = run_cli("group", str(gbit_json))
    assert proc.returncode == 0
    assert "order 8" in proc.stdout
    assert proc.stdout.count("perm (") == 8


def test_group_subcommand_json(gbit_json):
    proc = run_cli("--json", "group", str(gbit_json))
    data = json.loads(proc.stdout)
    assert data["order"] == 8
    assert len(data["matrices"]) == 8


def test_decompose_subcommand(d1_json):
    proc = run_cli("decompose", str(d1_json))
    assert proc.returncode == 0
    assert "2 components" in proc.stdout


def test_transitive_subcommand(gbit_json):
    proc = run_cli("transitive", str(gbit_json))
    assert proc.returncode == 0
    assert "transitive" in proc.stdout


def test_lri_subcommand(tmp_path, d1_json):
    from gptlab.interactions import cnot_map
    from gptlab.report import mat_to_json

    map_path = tmp_path / "cnot.json"
    map_path.write_text(json.dumps({"matrix": mat_to_json(cnot_map(ss.simplex(1)))}))
    proc = run_cli("lri", str(d1_json), str(d1_json), str(map_path))
    assert proc.returncode == 0
    assert "nontrivial" in proc.stdout


def test_verify_subcommand(gbit_json, d1_json):
    proc = run_cli("verify", str(gbit_json), str(gbit_json))
    assert proc.returncode == 0
    assert "pass" in proc.stdout
    proc = run_cli("verify", str(d1_json), str(d1_json))
    assert proc.returncode == 0
    assert "inapplicable" in proc.stdout


def test_usage_error_exit_two():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


_ZERO_DENOMINATOR = dict(space_to_json(ss.simplex(1)), vertices=[["1/0", "0"], ["0", "1"]])


@pytest.mark.parametrize("text", ["[1,2]", json.dumps(_ZERO_DENOMINATOR)],
                         ids=["top-level-array", "zero-denominator"])
def test_group_rejects_malformed_space(tmp_path, text):
    path = tmp_path / "space.json"
    path.write_text(text)
    proc = run_cli("group", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_exceeded_group_budget_exits_two(gbit_json, monkeypatch, capsys):
    from gptlab import cli
    from gptlab.config import Budgets

    monkeypatch.setattr(cli, "DEFAULT_BUDGETS", Budgets(group_nodes=3))
    assert cli.main(["group", str(gbit_json)]) == 2
    assert capsys.readouterr().err.startswith("error: symmetry search exceeded")
