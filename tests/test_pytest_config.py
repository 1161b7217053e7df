"""The suite's own pytest configuration."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

_ONE_FAILING_ONE_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_as_one_failure(tmp_path):
    """Reporting a failing example imports libcst, which warns on import;
    the warning filters must let the session go on and report the result."""
    (tmp_path / "test_mixed.py").write_text(_ONE_FAILING_ONE_PASSING, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_mixed.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, check=False,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
