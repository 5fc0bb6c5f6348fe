"""Tests for exact and Monte-Carlo spread computation (Examples 1-2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.spread import (
    enumerate_sampled_graphs,
    exact_activation_probs,
    exact_spread,
    mcs_spread,
)
from repro.graphs.localgraph import LocalGraph
from repro.graphs.toy import toy_local_graph
from tests.test_decrease import golden_graph


@pytest.fixture(scope="module")
def toy():
    return toy_local_graph()


def _blocked(g, origs):
    b = np.zeros(g.n, dtype=bool)
    for o in origs:
        b[g.to_local(o)] = True
    return b


def test_example1_expected_spread(toy):
    assert exact_spread(toy) == pytest.approx(7.66)


def test_example1_activation_probabilities(toy):
    p = exact_activation_probs(toy)
    by_orig = {int(o): p[toy.to_local(o)] for o in range(1, 10)}
    assert by_orig[1] == pytest.approx(1.0)
    for v in (2, 3, 4, 5, 6, 9):
        assert by_orig[v] == pytest.approx(1.0)
    assert by_orig[8] == pytest.approx(0.6)
    assert by_orig[7] == pytest.approx(0.06)


@pytest.mark.parametrize(
    "blockers,expected",
    [
        ([5], 3.0),
        ([2], 6.66),
        ([4], 6.66),
        ([3], 6.66),
        ([2, 4], 1.0),
        ([2, 3], 5.66),
        ([2, 3, 4], 1.0),
        ([9], 7.66 - 1.11),
        ([8], 7.0),
        ([7], 7.60),
    ],
)
def test_example1_blocked_spreads(toy, blockers, expected):
    assert exact_spread(toy, _blocked(toy, blockers)) == pytest.approx(expected)


def test_theorem2_not_supermodular(toy):
    """f(X∪{x}) - f(X) = -1 > f(Y∪{x}) - f(Y) = -4.66 (Theorem 2)."""
    f = lambda B: exact_spread(toy, _blocked(toy, B))
    assert f([3]) == pytest.approx(6.66)
    assert f([2, 3]) == pytest.approx(5.66)
    assert f([3, 4]) == pytest.approx(5.66)
    assert f([2, 3, 4]) == pytest.approx(1.0)
    lhs = f([3, 4]) - f([3])
    rhs = f([2, 3, 4]) - f([2, 3])
    assert lhs == pytest.approx(-1.0)
    assert rhs == pytest.approx(-4.66)
    assert lhs > rhs


def test_enumerate_sampled_graph_probabilities(toy):
    """Example 2: the four v8-membership classes have probs .1/.4/.1/.4."""
    total = 0.0
    for prob, edges in enumerate_sampled_graphs(toy):
        total += prob
        assert prob > 0
    assert total == pytest.approx(1.0)
    # 3 probabilistic edges -> 8 sampled graphs
    assert sum(1 for _ in enumerate_sampled_graphs(toy)) == 8


def test_enumeration_guard():
    n = 25
    pdf = pd.DataFrame(
        {
            "src": np.zeros(n, dtype=int),
            "dst": np.arange(1, n + 1),
            "p": np.full(n, 0.5),
        }
    )
    g = LocalGraph.from_pandas(pdf, 0)
    with pytest.raises(ValueError):
        exact_spread(g)


def test_mcs_converges_to_exact(toy):
    est = mcs_spread(toy, r=40_000, seed=11)
    assert est == pytest.approx(7.66, abs=0.05)


def test_mcs_with_blockers(toy):
    est = mcs_spread(toy, r=5_000, seed=12, blocked=_blocked(toy, [5]))
    assert est == pytest.approx(3.0, abs=1e-9)  # deterministic once v5 gone


def test_mcs_deterministic_in_seed(toy):
    a = mcs_spread(toy, r=500, seed=3)
    b = mcs_spread(toy, r=500, seed=3)
    assert a == b


def test_mcs_distributed_matches_local(spark_jobs, toy):
    """The Spark path and the driver path share RNG streams bit-for-bit."""
    local = mcs_spread(toy, r=800, seed=21)
    dist = mcs_spread(toy, r=800, seed=21, spark=spark_jobs)
    assert dist == local


def test_mcs_golden_spark_matches_driver(spark_jobs):
    """Bit-identical MCS on the 300-vertex golden graph, with and without blockers."""
    g = golden_graph()
    blocked = np.zeros(g.n, dtype=bool)
    blocked[[3, 4, 150]] = True
    for bl in (None, blocked):
        local = mcs_spread(g, r=97, seed=11, blocked=bl)
        assert mcs_spread(g, r=97, seed=11, blocked=bl, spark=spark_jobs) == local


def test_mcs_distributed_with_blockers(spark_jobs, toy):
    est = mcs_spread(toy, r=400, seed=5, blocked=_blocked(toy, [5]), spark=spark_jobs)
    assert est == pytest.approx(3.0)


@pytest.mark.parametrize("r", [0, -3])
def test_mcs_nonpositive_r_raises(spark, toy, r):
    """Driver and Spark paths both refuse r <= 0 instead of returning nan."""
    for sp in (None, spark):
        with pytest.raises(ValueError):
            mcs_spread(toy, r=r, spark=sp)
