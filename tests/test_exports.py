import importlib

import pytest

MODULES = ["lmcorrect", "lmcorrect.linalg", "lmcorrect.faadibruno",
           "lmcorrect.corrections", "lmcorrect.optimizer", "lmcorrect.problems",
           "lmcorrect.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
