"""Tests for ``map_sum``, the one per-id kernel runner, and for the names
the benchmark script reaches into."""
import ast
import dataclasses
import importlib
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import repro.algorithms.baseline as baseline
import repro.algorithms.exact as exact
import repro.core.decrease as decrease
import repro.core.spread as spread
from repro.core import runner
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


def test_integer_sums_match_driver(spark_jobs, toy):
    """Per-vertex integer sums, as Δ and MCS produce them."""

    def kernel(g, ids):
        out = np.zeros(g.n, dtype=np.float64)
        for i in ids:
            out[i % g.n] += i * i + g.out_degree(i % g.n)
        return out

    for count in _counts(spark_jobs):
        local = map_sum(kernel, count, g=toy)
        dist = map_sum(kernel, count, g=toy, spark=spark_jobs)
        assert np.array_equal(dist, local), count
        want = sum(i * i + toy.out_degree(i % toy.n) for i in range(count))
        assert local.sum() == want


def test_written_once_values_match_driver(spark_jobs, toy):
    """Non-integer values written by exactly one id, as BG and Exact produce."""

    def kernel(g, ids):
        out = np.zeros(count, dtype=np.float64)
        for i in ids:
            out[i] = (i + g.seed) / 7.0 + 1e-9 * i
        return out

    for count in _counts(spark_jobs):
        local = map_sum(kernel, count, g=toy)
        dist = map_sum(kernel, count, g=toy, spark=spark_jobs)
        assert np.array_equal(dist, local), count
        assert local.shape == (count,)


def test_all_zero_kernel(spark_jobs, toy):
    """No partition emits a row; the result is still a zero vector."""

    def kernel(g, ids):
        return np.zeros(3, dtype=np.float64)

    for sp in (None, spark_jobs):
        assert np.array_equal(map_sum(kernel, 5, g=toy, spark=sp), np.zeros(3))


@pytest.fixture(scope="module")
def toy_kernels(toy):
    """``(kernel, count, width)`` of one Δ, MCS, BG and Exact call on the toy graph."""
    got = []

    def recording(kernel, count, *, g, spark=None):
        out = map_sum(kernel, count, g=g)
        got.append((kernel, count, out.size))
        return out

    with pytest.MonkeyPatch.context() as mp:
        for mod in (decrease, spread, baseline, exact):
            mp.setattr(mod, "map_sum", recording)
        decrease.decrease_es(toy, theta=12, seed=3)
        spread.mcs_spread(toy, r=12, seed=3)
        baseline.baseline_greedy(toy, 1, r=4, seed=3)
        exact.exact_blockers(toy, 1, theta=16, seed=3)
    assert len(got) == 4
    return dict(zip(["delta", "mcs", "bg", "exact"], got))


@pytest.mark.parametrize("name", ["delta", "mcs", "bg", "exact"])
def test_every_split_point_matches_driver(spark, toy, toy_kernels, name):
    """Ids ``0..k-1`` on the driver plus ``k..count-1`` as one job, for every k."""
    kernel, count, width = toy_kernels[name]
    want = map_sum(kernel, count, g=toy)
    for k in range(count + 1):
        rest = runner._spark_sum(kernel, k, count, width, g=toy, spark=spark)
        assert np.array_equal(map_sum(kernel, k, g=toy) + rest, want), k


@pytest.mark.parametrize("name", ["delta", "mcs", "bg", "exact"])
def test_zero_ids_give_zero_vector_of_kernel_width(spark, toy, toy_kernels, name):
    """``count = 0`` still returns the kernel's ``(width,)`` shape, on either path."""
    kernel, _, width = toy_kernels[name]
    for sp in (None, spark):
        assert np.array_equal(map_sum(kernel, 0, g=toy, spark=sp), np.zeros(width))


def test_graph_is_broadcast_once_per_context(spark_jobs, toy):
    """Jobs over one graph reuse its broadcast; a copy of the graph, or another
    SparkContext, gets its own (a broadcast does not outlive its context)."""

    def kernel(g, ids):
        return np.array([float(len(ids) * g.n)])

    sc = spark_jobs.sparkContext
    seen = []
    for g in (toy, dataclasses.replace(toy), toy):
        assert map_sum(kernel, 50, g=g, spark=spark_jobs)[0] == 50 * toy.n
        seen.append(runner._BC[sc][g])
    assert seen[0] is seen[2] and seen[0] is not seen[1]

    class OtherContext:
        def broadcast(self, value):
            return object()

    other = OtherContext()
    assert runner._broadcast(toy, other) is runner._broadcast(toy, other)
    assert runner._broadcast(toy, other) is not seen[0]


@contextmanager
def _jobs(spark, group):
    """Yield a list that receives the ids of the jobs started in the block."""
    sc = spark.sparkContext
    if sc.defaultParallelism < 2:
        pytest.skip("map_sum sends no ids to Spark when defaultParallelism is 1")
    runner._job_s(spark)  # measured first, so the group holds map_sum's jobs only
    ids = []
    sc.setJobGroup(group, group)
    try:
        yield ids
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    ids.extend(sc.statusTracker().getJobIdsForGroup(group))


def test_slow_kernel_goes_to_spark_after_first_chunk(spark, toy, monkeypatch):
    """~10 ms per id over 200 ids: after id 0 the rest pays for one labelled job."""
    on_driver = []  # an executor appends to its own unpickled copy

    def kernel(g, ids):
        ids = list(ids)
        on_driver.extend(ids)
        time.sleep(0.01 * len(ids))
        out = np.zeros(200, dtype=np.float64)
        out[ids] = 1.0
        return out

    sc = spark.sparkContext
    labels = []
    set_description = sc.setJobDescription
    monkeypatch.setattr(
        sc, "setJobDescription", lambda v: (labels.append(v), set_description(v))
    )
    with _jobs(spark, "slow kernel") as jobs:
        got = map_sum(kernel, 200, g=toy, spark=spark)
    assert on_driver == [0]
    assert jobs
    assert np.array_equal(got, np.ones(200))
    # The job is labelled, and the caller's description is put back after.
    assert labels == [f"{kernel.__qualname__} ids 1..199", "slow kernel"]


def test_cheap_kernel_starts_no_job(spark, toy):
    """Microseconds per id never pay for a job: every chunk runs on the driver."""

    def kernel(g, ids):
        return np.array([float(sum(ids))])

    with _jobs(spark, "cheap kernel") as jobs:
        got = map_sum(kernel, 1000, g=toy, spark=spark)
    assert jobs == []
    assert got[0] == sum(range(1000))


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
