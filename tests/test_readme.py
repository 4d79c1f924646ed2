"""The README's Python examples run as written.

Its ``python`` blocks run in order in one namespace, as a reader pastes
them into one session, so a renamed argument or a changed signature that
the README still shows fails here.
"""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_the_python_blocks_run_in_order():
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # The last block is the standalone use of the corrections: J's factors,
    # one base on them, and a series whose inverse is the factors' own.
    factors, base = namespace["factors"], namespace["base"]
    assert np.shares_memory(base.Jt, factors.J)
    assert namespace["series"].evaluation_count == 1
