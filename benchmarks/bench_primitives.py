"""Benchmarks for the core kernels underlying every table.

Useful for attributing regressions: if a table bench moves, these say
whether sampling, the dominator tree, or the Spark dataflow moved.
"""
import numpy as np
import pytest

from repro.core.decrease import decrease_es
from repro.core.dominator import immediate_dominators, subtree_sizes
from repro.core.sampling import sample_reachable, sample_rng
from repro.experiments.harness import build_workload


@pytest.fixture(scope="module")
def wl(spark):
    return build_workload(spark, "EmailCore", "TR", n_seeds=10, seed=0)


@pytest.mark.benchmark(group="primitives")
def test_bench_sample_reachable(benchmark, wl):
    g = wl.graph

    def run():
        return sum(
            sample_reachable(g, sample_rng(0, i))[0].shape[0] for i in range(100)
        )

    total = benchmark.pedantic(run, rounds=3, iterations=1)
    assert total > 0


@pytest.mark.benchmark(group="primitives")
def test_bench_immediate_dominators(benchmark, wl):
    g = wl.graph
    verts, edges = sample_reachable(g, sample_rng(0, 1))
    sorted_vs = np.sort(verts)
    edges_c = np.searchsorted(sorted_vs, edges)
    root_c = int(np.searchsorted(sorted_vs, g.seed))

    def run():
        idom = immediate_dominators(len(verts), edges_c, root_c)
        return subtree_sizes(idom, root_c)

    sizes = benchmark.pedantic(run, rounds=5, iterations=2)
    assert sizes[root_c] == len(verts)


@pytest.mark.benchmark(group="primitives")
def test_bench_decrease_es_local(benchmark, wl):
    out = benchmark.pedantic(
        lambda: decrease_es(wl.graph, theta=200, seed=3), rounds=3, iterations=1
    )
    assert out[wl.graph.seed] > 0


@pytest.mark.benchmark(group="primitives")
def test_bench_decrease_es_distributed(benchmark, spark, wl):
    out = benchmark.pedantic(
        lambda: decrease_es(wl.graph, theta=200, seed=3, spark=spark),
        rounds=3,
        iterations=1,
    )
    assert out[wl.graph.seed] > 0
