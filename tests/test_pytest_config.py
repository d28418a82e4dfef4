"""The pytest configuration in pyproject.toml, run on a generated suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_and_the_suite_goes_on(tmp_path):
    # Hypothesis imports libcst to write the patch of a failing example.
    # Under filterwarnings = ["error"] a deprecation warning from that
    # import became an INTERNALERROR that stopped the run, so the tests
    # after it never ran.
    (tmp_path / "test_probe.py").write_text(PROBE)
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "INTERNALERROR" not in out, out
