"""The project's warning filters turn its own deprecations into failures, yet a failing
property test still ends in a report rather than stopping the whole run."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

ROOT = Path(__file__).resolve().parents[1]

CASES = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_passes():
    pass


def test_own_deprecation_fails():
    warnings.warn("old", DeprecationWarning)
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)  # the same filterwarnings
    (tmp_path / "test_cases.py").write_text(CASES)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_cases.py"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout
    assert "2 failed, 1 passed" in run.stdout, run.stdout
