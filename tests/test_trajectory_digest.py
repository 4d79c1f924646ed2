"""``tools/trajectory_digest.py``: its digest line and its ``--runs`` listing,
on the first runs of two groups."""

import hashlib
import importlib.util
import itertools
import re
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trajectory_digest.py"


@pytest.fixture
def tool(monkeypatch):
    """The tool as a module, over three valley runs and two affine ones."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends to it
    spec = importlib.util.spec_from_file_location("trajectory_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    valley, affine = module.valley_runs, module.affine_runs
    module.GROUPS = {"valley": lambda lib: itertools.islice(valley(lib), 3),
                     "affine": lambda lib: itertools.islice(affine(lib), 2)}
    return module


class Sha256Log:
    """Stands in for the tool's ``hashlib``: every ``sha256`` it makes keeps
    its data, and its updates, in ``log``."""

    def __init__(self):
        self.log = []

    def sha256(self, *data):
        return Hash(self.log, *data)


class Hash:
    def __init__(self, log, *data):
        self.log, self.inner = log, hashlib.sha256(*data)
        log.append(("new", *data))

    def update(self, data):
        self.log.append(("update", data))
        self.inner.update(data)

    def hexdigest(self):
        return self.inner.hexdigest()


def test_runs_lists_each_run_and_the_digest_hashes_them_all(tool, capsys):
    assert tool.main([]) == 0
    digest = capsys.readouterr().out
    assert re.fullmatch(r"[0-9a-f]{64}  5 runs\n", digest)
    tool.hashlib = log = Sha256Log()
    assert tool.main(["--runs"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["valley", "0"], ["valley", "1"], ["valley", "2"],
        ["affine", "0"], ["affine", "1"]]
    assert all(re.fullmatch(r"\w+ \d+ [0-9a-f]{12} converged \d+ \d+", line)
               for line in lines)
    # The valley's first cell, K = 1 at order 1, as tests/test_acceptance.py pins it.
    assert lines[0].split()[-2:] == ["8", "169"]
    # One digest, then per run its update and that text's own hash.
    texts = [data for kind, data in log.log[2::2]]
    assert log.log == [("new",)] + [entry for text in texts
                                     for entry in (("update", text), ("new", text))]
    assert [line.split()[2] for line in lines] == [
        hashlib.sha256(text).hexdigest()[:12] for text in texts]
    assert hashlib.sha256(b"".join(texts)).hexdigest() == digest.split()[0]
