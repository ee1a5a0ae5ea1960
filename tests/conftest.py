import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py
# CLI tests run `python -m gptlab` in child processes; point them at src/ too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

from gptlab import statespace


@pytest.fixture(scope="session")
def d1():
    return statespace.simplex(1)


@pytest.fixture(scope="session")
def d2():
    return statespace.simplex(2)


@pytest.fixture(scope="session")
def square():
    return statespace.gbit()


@pytest.fixture(scope="session")
def pt():
    return statespace.point()


@pytest.fixture(scope="session")
def padded_square():
    """The square with an extra zero coordinate: its vertices do not span."""
    g = statespace.gbit()
    return statespace.make_space([v + (0,) for v in g.vertices], g.u + (0,), "gbit+0")
