"""Every line of the package, the tools and the tests fits in 99 columns."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIDTH = 99


def test_every_line_fits_in_99_columns():
    wide = []
    for folder in ("src", "tools", "tests"):
        for path in sorted((ROOT / folder).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            lines = path.read_text(encoding="utf-8").splitlines()
            wide += [f"{path.relative_to(ROOT).as_posix()}:{number}"
                     for number, line in enumerate(lines, start=1) if len(line) > WIDTH]
    assert wide == []
