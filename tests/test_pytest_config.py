"""The repository's pytest settings: every warning filter keeps a failing
test a failure of that test, not of the whole run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # On a failure, hypothesis's pytest plugin imports libcst, which warns
    # through mypy_extensions; under "error::DeprecationWarning" alone that
    # warning became an INTERNALERROR that ended the run at the failing test.
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_after():\n"
        "    pass\n"
    )
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
