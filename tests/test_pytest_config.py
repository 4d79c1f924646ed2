"""The suite's pytest settings report a failing property instead of crashing.

Every warning is an error, but hypothesis's failure report imports libcst,
which warns that ``mypy_extensions.TypedDict`` is deprecated; as an error
that warning ended the whole session with an INTERNALERROR, no falsifying
example and no further test.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

MODULE = textwrap.dedent("""
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(database=None, derandomize=True)
    @given(st.integers())
    def test_fails(n):
        assert n < 10


    def test_passes():
        pass
""")


def test_failing_property_reports_its_example(tmp_path):
    module = tmp_path / "test_property.py"
    module.write_text(MODULE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), str(module)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "Falsifying example" in done.stdout
