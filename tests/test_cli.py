import json
import re
import subprocess
import sys
from pathlib import Path

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


def test_golden_report_is_byte_identical(capsys):
    """tests/data/golden.gpt runs every check kind; its ``--json`` report with
    each ``millis`` zeroed must equal the stored golden.json byte for byte."""
    from gptlab import cli
    from gptlab.checks import CHECKS

    data = Path(__file__).parent / "data"
    assert cli.main(["--json", "run", str(data / "golden.gpt")]) == 0
    out = re.sub(r'("millis": )[-0-9.eE+]+', r"\g<1>0", capsys.readouterr().out)
    assert {c["kind"] for c in json.loads(out)["checks"]} == set(CHECKS)
    assert out == (data / "golden.json").read_text(encoding="utf-8")


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


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("flags, suffix", [([], "txt"), (["--json"], "json")], ids=["text", "json"])
def test_group_subcommand_output_is_pinned(gbit_json, capsys, mode, flags, suffix):
    """The group subcommand prints the certificate of ``run_kind("group")``;
    its output for gbit is stored byte for byte in tests/data."""
    from gptlab import cli

    assert cli.main(["--mode", mode, *flags, "group", str(gbit_json)]) == 0
    pinned = Path(__file__).parent / "data" / f"group_gbit_{mode}.{suffix}"
    assert capsys.readouterr().out == pinned.read_text(encoding="utf-8")


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


def test_verify_over_budget_exits_two(gbit_json, capsys):
    from gptlab import cli

    # the gbit group search takes 28 nodes, the gbit x gbit interaction search 944
    assert cli.main(["--budget", "100", "verify", str(gbit_json), str(gbit_json)]) == 2
    assert "budget_exceeded" in capsys.readouterr().out


@pytest.mark.parametrize("expect, code", [("", 2), (" expect budget_exceeded", 0)],
                         ids=["no-expect", "expect-budget-exceeded"])
def test_run_over_budget_exits_two_unless_expected(tmp_path, capsys, expect, code):
    from gptlab import cli

    scen = tmp_path / "budget.gpt"
    scen.write_text(f"space G = gbit()\ncheck theorem2 G G{expect}\n")
    assert cli.main(["--budget", "10", "run", str(scen)]) == code
    assert "c01-theorem2" in capsys.readouterr().out


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_a_usage_error(gbit_json, capsys, budget):
    from gptlab import cli

    assert cli.main(["--budget", budget, "verify", str(gbit_json), str(gbit_json)]) == 2
    assert "--budget: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["group", "run"])
def test_float_mode_rejects_non_finite_or_non_positive_eps(gbit_json, capsys, eps, command):
    from gptlab import cli

    args = [str(gbit_json)] if command == "group" else ["--demo"]
    assert cli.main(["--mode", "float", "--eps", eps, command, *args]) == 2
    assert capsys.readouterr().err.startswith("error: float mode needs a finite positive epsilon")


def test_lri_subcommand_rejects_singular_map(tmp_path, d1_json):
    map_path = tmp_path / "singular.json"
    map_path.write_text(json.dumps({"matrix": [[0, 1, 1, 0], [0, 0, 0, 0],
                                              [0, 0, 0, 0], [1, 0, 0, 1]]}))
    proc = run_cli("lri", str(d1_json), str(d1_json), str(map_path))
    assert proc.returncode == 1
    assert "no witness" in proc.stdout


@pytest.mark.parametrize("text, loc, message", [
    ("space G = gbit()\nspace B = cube(0)\n", "2:1", "cube(n) needs n >= 1"),
    ("space D = simplex(1)\nspace G = gbit()\nmap I = identity(G)\n"
     "map C = ctrl(D, G, I, I, I)\n", "4:1", "2 classical values, got 3 maps"),
    ("space X = point()\nspace D = dsum(X, X)\nspace Q = gbit()\nmap I = identity(X)\n"
     "map T = ctrl(D, Q, I, I)\n", "5:1", "map 0 is 1x1, but the system 'Q' needs 3x3"),
    ("space G = gbit(3)\n", "1:11", "gbit takes 0 argument(s), found 1"),
    ("space G = simplex(1, 2)\n", "1:11", "simplex takes 1 argument(s), found 2"),
    ("space G = point(1)\n", "1:11", "point takes 0 argument(s), found 1"),
    ("space G = cube()\n", "1:11", "cube takes 1 argument(s), found 0"),
    ("space G = gbit()\ncheck theorem1 G expect maybe\n", "2:25", "unknown outcome 'maybe'"),
    ("space G = gbit()\ncheck group G expect 0\n", "2:22", "unknown outcome '0'"),
    ("space G = gbit()\ncheck group G expect -8\n", "2:22", "unknown outcome '-8'"),
], ids=["builder-argument", "ctrl-map-count", "ctrl-map-shape", "gbit-3", "simplex-1-2",
        "point-1", "cube-empty", "expect-maybe", "expect-order-zero", "expect-order-negative"])
def test_run_evaluation_error_has_location(tmp_path, text, loc, message):
    bad = tmp_path / "bad.gpt"
    bad.write_text(text)
    proc = run_cli("run", str(bad))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {loc}: ")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_group_order_with_leading_zero_passes(tmp_path, capsys):
    from gptlab import cli

    scen = tmp_path / "order.gpt"
    scen.write_text("space G = gbit()\ncheck group G expect 08\n")
    assert cli.main(["run", str(scen)]) == 0
    assert "c01-group" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["run"], ["--json", "decompose"]], ids=["run", "decompose"])
def test_directory_path_exits_two(tmp_path, capsys, argv):
    from gptlab import cli

    assert cli.main([*argv, str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


_D1 = space_to_json(ss.simplex(1))


@pytest.mark.parametrize("data, message", [
    (dict(_D1, vertices=[[1.0, 0], [0, 1]]), "not a rational coordinate: 1.0"),
    (dict(_D1, vertices=[[True, False], [False, True]]), "not a rational coordinate: True"),
    ({k: v for k, v in _D1.items() if k != "ambient_dim"}, "'ambient_dim' (an integer)"),
], ids=["float", "boolean", "missing-ambient-dim"])
def test_exact_space_file_rejects_non_rational_json(tmp_path, capsys, data, message):
    from gptlab import cli

    path = tmp_path / "space.json"
    path.write_text(json.dumps(data))
    assert cli.main(["decompose", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_float_mode_reads_json_floats(tmp_path):
    from gptlab import cli

    path = tmp_path / "space.json"
    path.write_text(json.dumps(dict(_D1, vertices=[[1.0, 0.0], [0.0, 1.0]], unit_effect=[1.0, 1.0])))
    assert cli.main(["--mode", "float", "decompose", str(path)]) == 0
