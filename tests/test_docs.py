"""The code names and paths the top-level docs cite must exist.

Every backticked ``repro.…`` dotted name in README.md, DESIGN.md and
EXPERIMENTS.md must import (as a module, or as an attribute chain under
one), and every backticked ``src/``, ``jobs/``, ``tests/`` or ``results/``
path must exist in the repository. No Spark session is started.
"""
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

SPAN = re.compile(r"`([^`\n]+)`")
NAME = re.compile(r"\brepro(?:\.\w+)+")
PATH = re.compile(r"(?<![\w/.])(?:src|jobs|tests|results)/[\w./-]*")


def _cited(pattern):
    """``(doc, line, token)`` for each match of ``pattern`` in a backticked span."""
    for doc in DOCS:
        for lineno, line in enumerate((ROOT / doc).read_text().splitlines(), 1):
            for span in SPAN.findall(line):
                for token in pattern.findall(span):
                    yield doc, lineno, token


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then walk attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize(
    "pattern, resolves",
    [(NAME, _resolves), (PATH, lambda p: (ROOT / p).exists())],
    ids=["repro-names", "paths"],
)
def test_doc_citations_resolve(pattern, resolves):
    cited = list(_cited(pattern))
    assert len(cited) > 5  # the docs do cite code; an empty scan checks nothing
    stale = [f"{doc}:{line}: {token}" for doc, line, token in cited if not resolves(token)]
    assert stale == []


def test_stale_names_are_caught():
    assert not _resolves("repro.experiments.tables.no_such_table")
    assert not _resolves("repro.no_such_module")
    assert _resolves("repro.core.runner.map_sum")
    assert PATH.findall("python jobs/run.py table7") == ["jobs/run.py"]
    assert PATH.findall("tests/test_x.py::test_y") == ["tests/test_x.py"]
