"""Tests for Algorithm 2 (DecreaseESComputation) — Example 2 numbers."""
import json
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.core.decrease import decrease_es, decrease_es_exact
from repro.core.spread import exact_spread
from repro.graphs.localgraph import LocalGraph
from repro.graphs.toy import toy_local_graph

#: Driver-local Δ recorded before the per-sample kernels were vectorised.
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_delta.json"

#: Example 2 / Example 1 exact spread decreases per blocked vertex.
EXACT_DELTAS = {
    2: 1.0,
    3: 1.0,
    4: 1.0,
    5: 4.66,
    6: 1.0,
    7: 0.06,
    8: 0.66,
    9: 1.11,
}


@pytest.fixture(scope="module")
def toy():
    return toy_local_graph()


def test_exact_deltas_match_example2(toy):
    delta = decrease_es_exact(toy)
    for orig, want in EXACT_DELTAS.items():
        assert delta[toy.to_local(orig)] == pytest.approx(want), f"v{orig}"


def test_exact_delta_equals_spread_difference(toy):
    """Theorem 4: Δ(u) = E({s},G) - E({s},G[V\\{u}]) for every u."""
    delta = decrease_es_exact(toy)
    base = exact_spread(toy)
    for orig in range(2, 10):
        blocked = np.zeros(toy.n, dtype=bool)
        blocked[toy.to_local(orig)] = True
        want = base - exact_spread(toy, blocked)
        assert delta[toy.to_local(orig)] == pytest.approx(want), f"v{orig}"


def test_seed_delta_is_total_spread(toy):
    delta = decrease_es_exact(toy)
    assert delta[toy.seed] == pytest.approx(7.66)


def test_sampled_deltas_converge(toy):
    delta = decrease_es(toy, theta=40_000, seed=1)
    for orig, want in EXACT_DELTAS.items():
        assert delta[toy.to_local(orig)] == pytest.approx(want, abs=0.06), f"v{orig}"


def test_sampled_deterministic(toy):
    a = decrease_es(toy, theta=300, seed=9)
    b = decrease_es(toy, theta=300, seed=9)
    np.testing.assert_array_equal(a, b)


def test_theta_guard(toy):
    with pytest.raises(ValueError):
        decrease_es(toy, theta=0)


def test_blocked_vertices_get_zero_delta(toy):
    blocked = np.zeros(toy.n, dtype=bool)
    blocked[toy.to_local(5)] = True
    delta = decrease_es(toy, theta=500, seed=2, blocked=blocked)
    assert delta[toy.to_local(5)] == 0
    # with v5 blocked only v2, v4 remain reachable; each Δ = 1
    assert delta[toy.to_local(2)] == pytest.approx(1.0)
    assert delta[toy.to_local(4)] == pytest.approx(1.0)
    assert delta[toy.to_local(9)] == 0


def test_distributed_matches_local(spark_jobs, toy):
    local = decrease_es(toy, theta=600, seed=17)
    dist = decrease_es(toy, theta=600, seed=17, spark=spark_jobs)
    assert np.array_equal(dist, local)


def test_distributed_with_blockers(spark_jobs, toy):
    blocked = np.zeros(toy.n, dtype=bool)
    blocked[toy.to_local(2)] = True
    local = decrease_es(toy, theta=400, seed=4, blocked=blocked)
    dist = decrease_es(toy, theta=400, seed=4, blocked=blocked, spark=spark_jobs)
    assert np.array_equal(dist, local)


def golden_graph() -> LocalGraph:
    """300-vertex random digraph, p ∈ {0, .05, .1, .2, .5, 1}, seed 0.

    About 220 vertices are reached per sample and most samples are not
    trees, so sampling, Lengauer-Tarjan and subtree sizes all do real work.
    """
    rng = np.random.default_rng(20230403)
    n, m = 300, 2400
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    p = rng.choice(
        [0.0, 0.05, 0.1, 0.2, 0.5, 1.0],
        size=m,
        p=[0.05, 0.2, 0.25, 0.25, 0.15, 0.1],
    )
    src[:8] = 0
    pdf = pd.DataFrame({"src": src, "dst": dst, "p": p})
    pdf = pdf[pdf.src != pdf.dst].drop_duplicates(["src", "dst"])
    return LocalGraph.from_pandas(pdf, seed_vertex=0)


def test_golden_delta_unchanged():
    """Δ is bit-identical to the recorded fixture, with and without blockers."""
    want = json.loads(GOLDEN.read_text())
    g = golden_graph()
    blocked = np.zeros(g.n, dtype=bool)
    blocked[want["blocked"]] = True
    kw = dict(theta=want["theta"], seed=want["seed"])
    assert np.array_equal(decrease_es(g, **kw), np.asarray(want["delta"]))
    assert np.array_equal(
        decrease_es(g, blocked=blocked, **kw), np.asarray(want["delta_blocked"])
    )


def test_golden_delta_spark_matches_driver(spark_jobs):
    """The Spark path returns the driver's Δ bit for bit on the golden graph."""
    want = json.loads(GOLDEN.read_text())
    g = golden_graph()
    blocked = np.zeros(g.n, dtype=bool)
    blocked[want["blocked"]] = True
    for bl in (None, blocked):
        kw = dict(theta=want["theta"], seed=want["seed"], blocked=bl)
        dist = decrease_es(g, spark=spark_jobs, **kw)
        assert np.array_equal(dist, decrease_es(g, **kw))
