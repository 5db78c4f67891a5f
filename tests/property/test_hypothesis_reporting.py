"""A failing property test reports its falsifying example.

The suite runs with ``filterwarnings = ["error"]``.  A warning raised
inside hypothesis's own pytest hook would turn every failing ``@given``
test into an ``INTERNALERROR`` that shows no example, so a property
regression would read as a crashed run with no reproducer.  This test
runs a trivially failing ``@given`` test under the repository's own
pytest settings, in a subprocess.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"


def test_failing_given_test_shows_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "test_fails.py",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert proc.returncode == 1, output
    assert "Falsifying example" in output, output
