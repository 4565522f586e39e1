"""The suite's warning filters, run on throwaway test files in a child
pytest under this repository's pyproject.toml.

Every warning is an error, except the DeprecationWarning hypothesis's
plugin raises while it reports a failing example: as an error it became an
INTERNALERROR that ended the session, so no later test ran.
"""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
"""

USER_WARNING = """
import warnings


def test_warns():
    warnings.warn("a new warning", UserWarning)
"""


def _run_pytest(tmp_path, source: str) -> str:
    test = tmp_path / "test_probe.py"
    test.write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    return proc.stdout + proc.stderr


def test_failing_property_test_does_not_end_the_session(tmp_path):
    out = _run_pytest(tmp_path, FAILING_PROPERTY)
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_other_warnings_still_fail(tmp_path):
    out = _run_pytest(tmp_path, USER_WARNING)
    assert "UserWarning: a new warning" in out
    assert "1 failed" in out and "passed" not in out
