"""Tests for ``map_sum``, the one per-id kernel runner, and for the names
the benchmark script reaches into."""
import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.runner import map_sum
from repro.graphs.toy import toy_local_graph

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def toy():
    return toy_local_graph()


def _counts(spark):
    """One id, fewer ids than partitions (some stay empty), many ids."""
    par = spark.sparkContext.defaultParallelism
    return [1, max(par - 1, 1), 10 * par + 3]


def test_integer_sums_match_driver(spark, toy):
    """Per-vertex integer sums, as Δ and MCS produce them."""

    def kernel(g, ids):
        out = np.zeros(g.n, dtype=np.float64)
        for i in ids:
            out[i % g.n] += i * i + g.out_degree(i % g.n)
        return out

    for count in _counts(spark):
        local = map_sum(kernel, count, toy.n, g=toy)
        dist = map_sum(kernel, count, toy.n, g=toy, spark=spark)
        assert np.array_equal(dist, local), count
        want = sum(i * i + toy.out_degree(i % toy.n) for i in range(count))
        assert local.sum() == want


def test_written_once_values_match_driver(spark, toy):
    """Non-integer values written by exactly one id, as BG and Exact produce."""

    def kernel(g, ids):
        out = np.zeros(count, dtype=np.float64)
        for i in ids:
            out[i] = (i + g.seed) / 7.0 + 1e-9 * i
        return out

    for count in _counts(spark):
        local = map_sum(kernel, count, count, g=toy)
        dist = map_sum(kernel, count, count, g=toy, spark=spark)
        assert np.array_equal(dist, local), count
        assert local.shape == (count,)


def test_all_zero_kernel(spark, toy):
    """No partition emits a row; the result is still a zero vector."""

    def kernel(g, ids):
        return np.zeros(3, dtype=np.float64)

    for sp in (None, spark):
        assert np.array_equal(map_sum(kernel, 5, 3, g=toy, spark=sp), np.zeros(3))


def test_map_in_pandas_only_in_runner():
    """Every Spark kernel dispatch goes through ``core/runner.py``."""
    users = sorted(
        str(p.relative_to(SRC))
        for p in SRC.rglob("*.py")
        if "mapInPandas" in p.read_text()
    )
    assert users == ["repro/core/runner.py"]


def _perfbench_names():
    """``(file, object, attribute)`` for every ``repro`` name under perfbench/.

    Covers ``from repro... import name`` and the ``(module, "attr", ...)``
    tuples and calls through which ``run.py`` wraps or retags functions.
    """
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}  # local name -> the repro module or object it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("repro"):
                        mod = importlib.import_module(a.name)
                        bound[a.asname or a.name] = mod
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                mod = importlib.import_module(node.module)
                for a in node.names:
                    yield path.name, mod, a.name
                    if hasattr(mod, a.name):
                        bound[a.asname or a.name] = getattr(mod, a.name)
        for node in ast.walk(tree):
            elts = node.elts if isinstance(node, ast.Tuple) else (
                node.args if isinstance(node, ast.Call) else []
            )
            if (
                len(elts) >= 2
                and isinstance(elts[0], ast.Name)
                and elts[0].id in bound
                and isinstance(elts[1], ast.Constant)
                and isinstance(elts[1].value, str)
            ):
                yield path.name, bound[elts[0].id], elts[1].value


def test_perfbench_repro_names_resolve():
    """A rename under ``src/`` must not silently break the benchmark script."""
    names = list(_perfbench_names())
    attrs = {attr for _, _, attr in names}
    # The wrapped spans and the --trace 1 replay's imports are all seen.
    assert {"decrease_es", "from_edges", "phase1_out_neighbors", "subtree_sizes"} <= attrs
    missing = [
        f"{f}: {getattr(obj, '__name__', obj)}.{attr}"
        for f, obj, attr in names
        if not hasattr(obj, attr)
    ]
    assert missing == []
