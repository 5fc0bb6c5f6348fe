"""Cross-module invariants on seeded random probabilistic graphs.

These validate the paper's theorems end-to-end on graphs small enough for
exact enumeration: Theorem 4 (Δ equals the spread difference), Theorem 6
(dominator subtree size equals σ→u), Lemma 1 (sampling estimates the exact
spread), and optimality of the Exact algorithm.
"""
import itertools

import numpy as np
import pandas as pd
import pytest

from repro.algorithms.exact import (
    exact_blockers,
    presample_adjacency,
    shared_sample_spread,
)
from repro.core.decrease import decrease_es, decrease_es_exact
from repro.core.dominator import immediate_dominators, subtree_sizes
from repro.core.sampling import reachable_from, sample_reachable, sample_rng
from repro.core.spread import exact_spread, mcs_spread
from repro.graphs.localgraph import LocalGraph


def random_graph(seed: int, n: int = 7, m: int = 12) -> LocalGraph:
    """Seeded random probabilistic digraph with ≤ ~12 edges (enumerable)."""
    rng = np.random.default_rng((seed, 0xABC))
    rows = {}
    for _ in range(m):
        u, v = rng.integers(0, n, size=2)
        if u == v:
            continue
        rows[(int(u), int(v))] = float(rng.choice([0.2, 0.5, 0.8, 1.0]))
    if not rows:
        rows[(0, 1)] = 1.0
    pdf = pd.DataFrame(
        [(u, v, p) for (u, v), p in rows.items()], columns=["src", "dst", "p"]
    )
    return LocalGraph.from_pandas(pdf, seed_vertex=0)


GRAPH_SEEDS = list(range(12))


@pytest.mark.parametrize("gseed", GRAPH_SEEDS)
def test_theorem4_delta_equals_spread_difference(gseed):
    g = random_graph(gseed)
    delta = decrease_es_exact(g)
    base = exact_spread(g)
    for u in range(g.n):
        if u == g.seed:
            continue
        blocked = np.zeros(g.n, dtype=bool)
        blocked[u] = True
        assert delta[u] == pytest.approx(base - exact_spread(g, blocked)), (
            f"graph {gseed}, vertex {u}"
        )


@pytest.mark.parametrize("gseed", GRAPH_SEEDS)
def test_theorem6_subtree_size_equals_sigma_to_u(gseed):
    """On each sampled graph: dominator subtree size == #vertices whose
    every path from s passes through u (σ→u, by direct computation)."""
    g = random_graph(gseed)
    for sid in range(5):
        verts, edges = sample_reachable(g, sample_rng(77, sid))
        k = verts.shape[0]
        sorted_vs = np.sort(verts)
        edges_c = np.searchsorted(sorted_vs, edges) if k > 1 else edges
        root_c = int(np.searchsorted(sorted_vs, g.seed))
        idom = immediate_dominators(k, edges_c.reshape(-1, 2), root_c)
        sizes = subtree_sizes(idom, root_c)
        reach_all = reachable_from(k, edges_c.reshape(-1, 2), root_c)
        for u in range(k):
            if u == root_c:
                continue
            mask = edges_c[
                (edges_c[:, 0] != u) & (edges_c[:, 1] != u)
            ] if len(edges_c) else edges_c
            reach_wo_u = reachable_from(k, mask.reshape(-1, 2), root_c)
            sigma_to_u = int((reach_all & ~reach_wo_u).sum())
            assert sizes[u] == sigma_to_u, f"graph {gseed}, sample {sid}, u {u}"


@pytest.mark.parametrize("gseed", GRAPH_SEEDS[:6])
def test_lemma1_sampling_estimates_exact_spread(gseed):
    g = random_graph(gseed)
    exact = exact_spread(g)
    est = mcs_spread(g, r=30_000, seed=gseed + 1)
    assert est == pytest.approx(exact, abs=0.08)


@pytest.mark.parametrize("gseed", GRAPH_SEEDS[:6])
def test_sampled_decrease_converges_to_exact(gseed):
    g = random_graph(gseed)
    want = decrease_es_exact(g)
    got = decrease_es(g, theta=30_000, seed=gseed + 2)
    np.testing.assert_allclose(got, want, atol=0.09)


@pytest.mark.parametrize("gseed", GRAPH_SEEDS[:6])
@pytest.mark.parametrize("b", [1, 2])
def test_exact_algorithm_is_optimal_under_exact_spread(gseed, b):
    """exact_blockers (shared samples, large θ) finds a combo whose *exact*
    spread matches the true optimum over all combos."""
    g = random_graph(gseed)
    cands = [u for u in range(g.n) if u != g.seed]
    best = min(
        exact_spread(g, _mask(g, c))
        for c in itertools.combinations(cands, min(b, len(cands)))
    )
    B, _ = exact_blockers(g, b, theta=4000, seed=5)
    assert exact_spread(g, _mask(g, B)) == pytest.approx(best, abs=0.12)


def _mask(g, vertices):
    m = np.zeros(g.n, dtype=bool)
    m[list(vertices)] = True
    return m


@pytest.mark.parametrize("gseed", GRAPH_SEEDS[:6])
def test_presampled_tensor_matches_mcs(gseed):
    """shared_sample_spread over the (θ,n,n) tensor ≈ lazy-BFS MCS."""
    g = random_graph(gseed)
    A = presample_adjacency(g, theta=4000, seed=3)
    tensor = shared_sample_spread(A, g.seed, [])
    exact = exact_spread(g)
    assert tensor == pytest.approx(exact, abs=0.15)


@pytest.mark.parametrize("gseed", GRAPH_SEEDS)
def test_monotonicity_of_spread_in_blockers(gseed):
    """Theorem 2 (monotone part): adding a blocker never raises spread."""
    rng = np.random.default_rng(gseed)
    g = random_graph(gseed)
    cands = [u for u in range(g.n) if u != g.seed]
    rng.shuffle(cands)
    prev = exact_spread(g)
    mask = np.zeros(g.n, dtype=bool)
    for u in cands[:4]:
        mask[u] = True
        cur = exact_spread(g, mask.copy())
        assert cur <= prev + 1e-12
        prev = cur
