import importlib
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

MODULES = ["lmcorrect", "lmcorrect.linalg", "lmcorrect.faadibruno",
           "lmcorrect.corrections", "lmcorrect.optimizer", "lmcorrect.problems",
           "lmcorrect.cli"]

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def code_names(path):
    """NAME tokens of a Python file: identifiers, not comments or strings."""
    with tokenize.open(path) as source:
        return Counter(tok.string for tok in tokenize.generate_tokens(source.readline)
                       if tok.type == tokenize.NAME)


def readme_code_words():
    """Words inside the README's code spans and code blocks."""
    text = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return set(re.findall(r"\w+", " ".join(code)))


@pytest.mark.parametrize("name", MODULES[1:])
def test_every_exported_name_is_read(name):
    # A public name earns its place when the package, the benchmark or the
    # README reads it; one only tests read belongs with the tests.  The
    # package's re-exports in __init__.py list names without reading them.
    module = importlib.import_module(name)
    own = Path(module.__file__).resolve()
    package = ROOT / "src" / "lmcorrect"
    skip = {own, (package / "__init__.py").resolve()}
    readers = Counter()
    for path in [*package.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        if path.resolve() not in skip and not path.name.startswith("test_"):
            readers.update(code_names(path).keys())
    own_uses = code_names(own)
    readme = readme_code_words()
    unread = [attr for attr in module.__all__
              if not (readers[attr] or own_uses[attr] >= 2 or attr in readme)]
    assert unread == []
