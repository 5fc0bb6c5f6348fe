"""Tests for lazy sampled-reachable-subgraph generation."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sampling import (
    reachable_from,
    sample_full,
    sample_reachable,
    sample_rng,
)
from repro.graphs.localgraph import LocalGraph
from repro.graphs.toy import toy_local_graph


def test_deterministic_per_sample_id():
    g = toy_local_graph()
    v1, e1 = sample_reachable(g, sample_rng(0, 7))
    v2, e2 = sample_reachable(g, sample_rng(0, 7))
    np.testing.assert_array_equal(v1, v2)
    np.testing.assert_array_equal(e1, e2)


def test_different_sample_ids_vary():
    g = toy_local_graph()
    counts = {
        sample_reachable(g, sample_rng(0, i))[0].shape[0] for i in range(64)
    }
    assert len(counts) > 1  # v8/v7 membership varies


def test_certain_edges_always_present():
    g = toy_local_graph()
    for i in range(20):
        verts, edges = sample_reachable(g, sample_rng(1, i))
        pairs = {(int(u), int(v)) for u, v in edges}
        # v1->v2 (p=1) in local ids: 0 -> 1
        assert (0, 1) in pairs and (0, 3) in pairs
        assert verts.shape[0] >= 7  # v1..v6, v9 always reached


def test_seed_first_in_order():
    g = toy_local_graph()
    verts, _ = sample_reachable(g, sample_rng(0, 3))
    assert verts[0] == g.seed


def test_blocked_vertices_never_reached():
    g = toy_local_graph()
    blocked = np.zeros(g.n, dtype=bool)
    blocked[g.to_local(5)] = True
    for i in range(20):
        verts, edges = sample_reachable(g, sample_rng(2, i), blocked)
        assert g.to_local(5) not in set(verts.tolist())
        assert set(g.orig_ids[verts].tolist()) == {1, 2, 4}


def test_blocking_seed_raises():
    g = toy_local_graph()
    blocked = np.zeros(g.n, dtype=bool)
    blocked[g.seed] = True
    with pytest.raises(ValueError):
        sample_reachable(g, sample_rng(0, 0), blocked)


def test_toy_reach_distribution_matches_exact():
    """Mean σ over many samples ≈ 7.66 (Lemma 1 on the toy graph)."""
    g = toy_local_graph()
    r = 40_000
    total = sum(
        sample_reachable(g, sample_rng(3, i))[0].shape[0] for i in range(r)
    )
    assert total / r == pytest.approx(7.66, abs=0.05)


def test_sample_full_matches_lazy_reachable_distribution():
    """Lazy sampling and full-graph sampling induce the same σ distribution."""
    g = toy_local_graph()
    r = 20_000
    lazy = np.array(
        [sample_reachable(g, sample_rng(5, i))[0].shape[0] for i in range(r)]
    )
    full = np.empty(r)
    for i in range(r):
        edges = sample_full(g, sample_rng(6, i))
        full[i] = reachable_from(g.n, edges, g.seed).sum()
    assert lazy.mean() == pytest.approx(full.mean(), abs=0.05)
    # distribution support is identical on this tiny graph
    assert set(np.unique(lazy)) == set(np.unique(full))


@st.composite
def random_prob_graph(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.integers(min_value=1, max_value=2 * n))
    rows = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        p = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
        if u != v:
            rows.append((u, v, p))
    if not rows:
        rows = [(0, 1, 1.0)]
    pdf = pd.DataFrame(rows, columns=["src", "dst", "p"]).drop_duplicates(
        ["src", "dst"]
    )
    return LocalGraph.from_pandas(pdf, seed_vertex=0)


@given(random_prob_graph(), st.integers(min_value=0, max_value=50))
@settings(max_examples=150, deadline=None)
def test_sampled_edges_are_subset_with_correct_reachability(g, sid):
    verts, edges = sample_reachable(g, sample_rng(9, sid))
    vset = set(verts.tolist())
    # every edge tail is reached, every edge head is reached
    for u, v in edges:
        assert int(u) in vset and int(v) in vset
    # reachability over the returned edges reproduces the vertex set
    reach = reachable_from(g.n, edges, g.seed)
    assert set(np.nonzero(reach)[0].tolist()) == vset
    # p=0 edges never sampled, and all sampled edges exist in the graph
    pairs = {(int(u), int(v)) for u, v in edges}
    real = set()
    for u in range(g.n):
        heads, probs = g.out_edges(u)
        for h, p in zip(heads, probs):
            if p > 0:
                real.add((u, int(h)))
    assert pairs <= real


# --- oracle: the per-vertex BFS that the level-synchronous sampler replaced


def per_vertex_bfs(g, rng, blocked=None):
    """Reference sampler: one ``rng.random`` call per frontier vertex."""
    seed = g.seed
    reached = np.zeros(g.n, dtype=bool)
    reached[seed] = True
    order = [seed]
    frontier = [seed]
    edges_src, edges_dst = [], []
    while frontier:
        next_frontier = []
        for u in frontier:
            heads, probs = g.out_edges(u)
            if heads.size == 0:
                continue
            keep = rng.random(heads.size) < probs
            if blocked is not None:
                keep &= ~blocked[heads]
            heads = heads[keep]
            if heads.size == 0:
                continue
            edges_src.append(np.full(heads.size, u, dtype=np.int64))
            edges_dst.append(heads)
            new = heads[~reached[heads]]
            if new.size:
                new = np.unique(new)
                reached[new] = True
                order.extend(int(v) for v in new)
                next_frontier.extend(int(v) for v in new)
        frontier = next_frontier
    verts = np.asarray(order, dtype=np.int64)
    if edges_src:
        edges = np.stack([np.concatenate(edges_src), np.concatenate(edges_dst)], axis=1)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return verts, edges


def random_graph(gseed, n, m, ps):
    rng = np.random.default_rng((gseed, 0x5A))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    src[: m // 50 + 2] = 0  # give the seed a fan-out like a merged super-seed
    pdf = pd.DataFrame({"src": src, "dst": dst, "p": rng.choice(ps, size=m)})
    pdf = pdf[pdf.src != pdf.dst].drop_duplicates(["src", "dst"])
    return LocalGraph.from_pandas(pdf, seed_vertex=0)


def assert_matches_oracle(g, streams, blocked=None):
    for master, sid in streams:
        got = sample_reachable(g, sample_rng(master, sid), blocked)
        want = per_vertex_bfs(g, sample_rng(master, sid), blocked)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, (master, sid)
            np.testing.assert_array_equal(a, b, err_msg=f"stream {(master, sid)}")


STREAMS = [(master, sid) for master in (0, 1, 7_919) for sid in range(40)]


@pytest.mark.parametrize(
    "gseed, n, m, ps",
    [
        (0, 300, 2400, [0.05, 0.1, 0.2, 0.5]),       # dense, non-tree samples
        (1, 300, 1200, [0.0, 0.3, 1.0]),             # p in {0, 1} mixed in
        (2, 60, 400, [0.0, 1.0]),                    # deterministic coins only
        (3, 2000, 8000, [0.01, 0.1, 0.3]),           # deep, sparse levels
    ],
)
@pytest.mark.parametrize("with_blocked", [False, True])
def test_level_sync_matches_per_vertex_bfs(gseed, n, m, ps, with_blocked):
    g = random_graph(gseed, n, m, ps)
    blocked = None
    if with_blocked:
        blocked = np.random.default_rng(gseed).random(g.n) < 0.1
        blocked[g.seed] = False
    assert_matches_oracle(g, STREAMS, blocked)


def test_level_sync_matches_per_vertex_bfs_on_toy():
    g = toy_local_graph()
    assert_matches_oracle(g, STREAMS)
    blocked = np.zeros(g.n, dtype=bool)
    blocked[g.to_local(9)] = True
    assert_matches_oracle(g, STREAMS, blocked)


def test_vertex_reached_twice_in_one_level():
    """New vertices are ordered by first reaching frontier vertex, then id."""
    pdf = pd.DataFrame(
        [(0, 1), (0, 2), (1, 5), (1, 4), (2, 3), (2, 4)], columns=["src", "dst"]
    ).assign(p=1.0)
    g = LocalGraph.from_pandas(pdf, seed_vertex=0)
    verts, edges = sample_reachable(g, sample_rng(0, 0))
    # 4 is reached from 1 and from 2; it belongs to 1's batch, before 3.
    assert verts.tolist() == [0, 1, 2, 4, 5, 3]
    assert edges.tolist() == [[0, 1], [0, 2], [1, 4], [1, 5], [2, 3], [2, 4]]
    assert_matches_oracle(g, [(0, 0)])
