"""The ``spellcap`` command's BLAS thread policy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spellcap.__main__ as entry

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def cli_env(monkeypatch):
    """The environment that ``spellcap.cli.main`` is called with."""
    seen = {}

    def fake_main():
        seen.update({var: os.environ.get(var) for var in entry.THREAD_VARS})
        return 0

    monkeypatch.setattr("spellcap.cli.main", fake_main)
    for var in entry.THREAD_VARS:
        # setenv first, so that teardown also removes what main() sets
        monkeypatch.setenv(var, "")
        monkeypatch.delenv(var)
    return seen


def test_one_blas_thread_by_default(cli_env):
    assert entry.main() == 0
    assert cli_env == {var: "1" for var in entry.THREAD_VARS}


def test_a_thread_variable_the_caller_set_wins(cli_env, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert entry.main() == 0
    assert cli_env == {var: "2" if var == "OMP_NUM_THREADS" else None
                       for var in entry.THREAD_VARS}


def test_entry_module_loads_without_numpy():
    # the variables only take effect if they are set before numpy loads
    code = "import sys, spellcap.__main__; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert out.stdout.strip() == "False"
