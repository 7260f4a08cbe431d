"""The pytest configuration reports a failing property test like any other failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after_the_failure():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    """Hypothesis imports libcst to print a failing example; under the project's
    warnings-as-errors filter that import must not crash pytest itself."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output[-3000:]
    assert "FAILED test_probe.py::test_fails" in done.stdout
    assert "PASSED test_probe.py::test_runs_after_the_failure" in done.stdout
    assert "INTERNALERROR" not in output
