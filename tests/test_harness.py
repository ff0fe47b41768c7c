"""The pytest configuration in pyproject.toml: a failing test fails alone,
and the run goes on to the tests after it."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).parents[1] / "pyproject.toml"

FAILING_AND_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # Hypothesis writes a failure patch; the DeprecationWarning raised while
    # it does so must not turn into an INTERNALERROR (exit code 3).
    (tmp_path / "test_sample.py").write_text(FAILING_AND_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
