"""Every ``src/repro`` module is run by a table, an algorithm or the benchmark.

Starting at ``jobs/run.py`` (every table) and ``perfbench/run.py`` (the
benchmark), follow each ``import repro…`` and ``from repro… import …``
statement, top-level or inside a function, through ``src/repro``. Files are
parsed with ``ast``; nothing is imported and no Spark session is started.
Every module except a package ``__init__`` must be reached, apart from the
named test-only oracles below.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_POINTS = ("jobs/run.py", "perfbench/run.py")

#: Modules that only tests import, each with the reason it stays.
TEST_ONLY = {
    "repro.oracle": "DuckDB oracle that the tests check DataFrame queries "
    "against; an oracle must stay independent of the code it checks",
}


def _file(module: str) -> Path | None:
    """Source file of a ``repro`` module, or None if ``module`` names no module."""
    base = SRC.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _imported(path: Path) -> set[str]:
    """``repro`` modules named by the import statements of one file, with
    the packages that contain them."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            # `from repro.x import y` imports repro.x, and repro.x.y if a module
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
    parts = (n.split(".") for n in names if n.split(".")[0] == "repro")
    return {m for p in parts for i in range(1, len(p) + 1) if _file(m := ".".join(p[:i]))}


def _reached() -> set[str]:
    seen: set[str] = set()
    todo = [m for entry in ENTRY_POINTS for m in _imported(ROOT / entry)]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(_imported(_file(module)))
    return seen


def _modules() -> set[str]:
    """Every non-package module under ``src/repro``."""
    return {
        ".".join(p.relative_to(SRC).with_suffix("").parts)
        for p in (SRC / "repro").rglob("*.py")
        if p.name != "__init__.py"
    }


def test_every_module_is_reached_from_an_entry_point():
    reached = _reached()
    assert "repro.experiments.tables" in reached  # the walk does follow imports
    assert sorted(_modules() - reached - TEST_ONLY.keys()) == []


def test_test_only_modules_exist_and_are_not_reached():
    """A test-only exception that a table starts to use, or that is
    deleted, must leave the list."""
    assert TEST_ONLY.keys() <= _modules()
    assert not TEST_ONLY.keys() & _reached()
