"""``tools/src_lines.py``: which lines count as code, on synthetic modules."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment still leaves code on the line

# A comment line.

class Box:
    """Class docstring."""

    size = (1,
            2)

    def area(self):
        """Function docstring."""
        text = """a string that is not a docstring
spans two lines"""
        return math.prod(self.size), text


async def nothing():
    "A one-line docstring."
'''


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_comments_docstrings_and_blanks(src_lines):
    # import, class, two lines of size, def, two lines of text, return, and
    # async def: docstrings, comment lines and blank lines do not count.
    assert src_lines.code_lines(SOURCE) == 9
    assert src_lines.code_lines("") == 0
    assert src_lines.code_lines('"""Only a docstring."""\n') == 0
    # A string statement after the first is not a docstring.
    assert src_lines.code_lines('"""Doc."""\n"""Not a docstring."""\n') == 1


def test_main_prints_each_module_and_the_total(src_lines, tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(SOURCE)
    (package / "b.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "pkg/a.py  9\npkg/b.py  2\ntotal  11\n"
