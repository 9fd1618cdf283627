"""The repository's pytest settings report a failing hypothesis test as a failure.

``filterwarnings = ["error"]`` turns every warning into an error, and
hypothesis's failure report raises a ``DeprecationWarning`` inside a pytest
hook. Unfiltered, that ends the session in ``INTERNALERROR`` and leaves the
tests after the failing one unreported.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    (tmp_path / "test_deliberately_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_deliberately_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert "Falsifying example" in output
