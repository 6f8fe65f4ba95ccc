"""The test settings in ``pyproject.toml`` let a failing property test report
its falsifying example, rather than end the session in an internal error."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != 0
"""


def test_a_failing_property_test_shows_its_falsifying_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(tmp_path / "test_failing.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out, out
