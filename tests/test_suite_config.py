"""The suite's own pytest settings (pyproject.toml's [tool.pytest.ini_options])."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FALSIFIED_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_falsified(n):
    assert n < 5


def test_runs_after_the_falsified_one():
    pass
'''


def test_a_falsified_hypothesis_test_does_not_abort_the_session(tmp_path):
    # Hypothesis's failure report imports libcst, which sets off a
    # DeprecationWarning; as an error under the suite's "error" filter, it
    # ends the session with INTERNALERROR before the next test runs.
    (tmp_path / "test_two.py").write_text(FALSIFIED_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "PASSED test_two.py::test_runs_after_the_falsified_one" in out
    assert "1 failed, 1 passed" in out
