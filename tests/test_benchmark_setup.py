"""The benchmark's set-up must succeed: ``benchmark/run.py --setup-only``
imports the library from ``src/``, generates the first cycle and runs the
checked warm-up ops of its workload, and exits 1 if any of them fails."""

import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "benchmark" / "run.py"


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["lri-exhaust", "polytope-faces", "scenario-cli"])
def test_benchmark_setup_exits_zero(workload, seed):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--setup-only"], capture_output=True, text=True, timeout=150)
    assert proc.returncode == 0, proc.stderr


def _check_cycles(name, seed, tmp_path, monkeypatch):
    """Cycles 0 and 1 of a workload, generated, run and checked in-process as
    the timed ops are: a wrong answer or a failure to build an input shows
    here, not only in a benchmark run."""
    monkeypatch.syspath_prepend(str(RUN.parent))
    import inputs

    workload = inputs.WORKLOADS[name](seed, tmp_path)
    for cycle in (0, 1):
        for inst in workload.make_cycle(cycle):
            assert workload.check(inst, workload.run(inst)) == "", (cycle, inst.kind)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lri_exhaust_timed_ops_answer_correctly(seed, tmp_path, monkeypatch):
    _check_cycles("lri-exhaust", seed, tmp_path, monkeypatch)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scenario_cli_timed_ops_answer_correctly(seed, tmp_path, monkeypatch):
    """Each scenario-cli op checks the 128 group matrices the symmetry search feeds."""
    _check_cycles("scenario-cli", seed, tmp_path, monkeypatch)
