"""Tests for ``map_sum``, the one per-id kernel runner."""
from pathlib import Path

import numpy as np
import pytest

from repro.core.runner import map_sum
from repro.graphs.toy import toy_local_graph

SRC = Path(__file__).resolve().parent.parent / "src"


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
