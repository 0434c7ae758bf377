"""A failing Hypothesis property reports its falsifying example.

``filterwarnings = ["error"]`` turns every warning into an error.  While it
writes a failing example's patch, the Hypothesis plugin imports libcst, whose
import warns; without the one scoped ignore in ``pyproject.toml`` the run
ends in an INTERNALERROR that hides the example.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"
FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_five(x):
    assert x < 5
"""


def test_failing_property_shows_its_falsifying_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG)]
    command += ["--rootdir", str(tmp_path), "test_failing.py"]
    run = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
