"""Lengauer-Tarjan dominator trees vs the brute-force and networkx oracles.

Includes the paper's Fig. 4 dominator trees of the toy graph's sampled
graphs, hypothesis property tests on random digraphs (brute force, up to
12 vertices), and ``networkx.immediate_dominators`` on random digraphs of
up to 10^3 vertices and on sampled Facebook-like subgraphs.
"""
import networkx as nx
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dominator import brute_force_idom, lengauer_tarjan, subtree_sizes
from repro.core.sampling import sample_reachable, sample_rng
from repro.graphs.datasets import generate_edges
from repro.graphs.localgraph import LocalGraph
from repro.graphs.toy import toy_local_graph

# --- toy graph: Fig. 3 sampled graphs and Fig. 4 dominator trees --------
# Local ids equal orig-1 because toy vertices are 1..9 in sorted order.
BASE = [(0, 1), (0, 3), (1, 4), (3, 4), (4, 2), (4, 5), (4, 8)]  # p=1 edges
E58, E98, E87 = (4, 7), (8, 7), (7, 6)


def _idom(edges):
    return lengauer_tarjan(9, np.array(edges), root=0)


def test_fig4a_both_edges_to_v8():
    """Sampled graph 1: v5->v8 and v9->v8 both present -> idom(v8) = v5."""
    idom = _idom(BASE + [E58, E98, E87])
    assert idom[7] == 4          # v8's immediate dominator is v5
    assert idom[6] == 7          # v7's is v8
    assert idom[4] == 0          # v5's is v1 (two disjoint paths via v2/v4)
    sizes = subtree_sizes(idom, 0)
    assert sizes[4] == 6         # v5 subtree: v5,v3,v6,v9,v8,v7
    assert sizes[0] == 9


def test_fig4b_only_v5_edge():
    idom = _idom(BASE + [E58, E87])
    assert idom[7] == 4
    sizes = subtree_sizes(idom, 0)
    assert sizes[4] == 6


def test_fig4c_only_v9_edge():
    """Sampled graph 3: only v9->v8 -> chain v5->v9->v8."""
    idom = _idom(BASE + [E98, E87])
    assert idom[7] == 8          # idom(v8) = v9
    sizes = subtree_sizes(idom, 0)
    assert sizes[8] == 3         # v9 subtree: v9, v8, v7
    assert sizes[4] == 6


def test_fig4d_v8_unreachable():
    idom = _idom(BASE)
    assert idom[7] == -1 and idom[6] == -1
    sizes = subtree_sizes(idom, 0)
    assert sizes[7] == 0 and sizes[6] == 0
    assert sizes[4] == 4         # v5, v3, v6, v9
    assert sizes[0] == 7


def test_single_vertex():
    idom = lengauer_tarjan(1, np.empty((0, 2), dtype=np.int64), 0)
    assert idom[0] == 0
    assert subtree_sizes(idom, 0)[0] == 1


def test_chain():
    edges = np.array([(0, 1), (1, 2), (2, 3)])
    idom = lengauer_tarjan(4, edges, 0)
    assert idom.tolist() == [0, 0, 1, 2]
    assert subtree_sizes(idom, 0).tolist() == [4, 3, 2, 1]


def test_diamond():
    edges = np.array([(0, 1), (0, 2), (1, 3), (2, 3)])
    idom = lengauer_tarjan(4, edges, 0)
    assert idom.tolist() == [0, 0, 0, 0]   # two paths -> idom(3) = root


def test_cycle_back_edge():
    edges = np.array([(0, 1), (1, 2), (2, 1)])
    idom = lengauer_tarjan(3, edges, 0)
    assert idom.tolist() == [0, 0, 1]


def test_duplicate_edges_ok():
    edges = np.array([(0, 1), (0, 1), (1, 2), (1, 2)])
    idom = lengauer_tarjan(3, edges, 0)
    assert idom.tolist() == [0, 0, 1]


def test_deep_chain_no_recursion_error():
    n = 5000
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    idom = lengauer_tarjan(n, edges, 0)
    assert idom[-1] == n - 2
    assert subtree_sizes(idom, 0)[0] == n


@st.composite
def random_digraph(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    m = draw(st.integers(min_value=0, max_value=3 * n))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    edges = np.array([(u, v) for u, v in pairs if u != v], dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    return n, edges


@given(random_digraph())
@settings(max_examples=300, deadline=None)
def test_lt_matches_brute_force(g):
    n, edges = g
    lt = lengauer_tarjan(n, edges, 0)
    bf = brute_force_idom(n, edges, 0)
    np.testing.assert_array_equal(lt, bf)


@given(random_digraph())
@settings(max_examples=100, deadline=None)
def test_root_subtree_equals_reachable_count(g):
    from repro.core.sampling import reachable_from

    n, edges = g
    idom = lengauer_tarjan(n, edges, 0)
    sizes = subtree_sizes(idom, 0)
    assert sizes[0] == reachable_from(n, edges, 0).sum()


# --- networkx oracle on larger graphs ------------------------------------


def nx_idom(n, edges, root):
    G = nx.DiGraph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges.tolist())
    idom = np.full(n, -1, dtype=np.int64)
    for v, d in nx.immediate_dominators(G, root).items():
        idom[v] = d
    idom[root] = root  # networkx >= 3.5 leaves the start out of the dict
    return idom


def nx_subtree_sizes(idom, root):
    """|{v} ∪ descendants(v)| in the dominator tree, via networkx."""
    T = nx.DiGraph()
    T.add_nodes_from(np.nonzero(idom >= 0)[0].tolist())
    T.add_edges_from((int(d), v) for v, d in enumerate(idom) if d >= 0 and v != root)
    sizes = np.zeros(idom.shape[0], dtype=np.int64)
    for v in T.nodes:
        sizes[v] = 1 + len(nx.descendants(T, v))
    return sizes


def assert_matches_networkx(n, edges, root):
    idom = lengauer_tarjan(n, edges, root)
    want = nx_idom(n, edges, root)
    np.testing.assert_array_equal(idom, want)
    np.testing.assert_array_equal(subtree_sizes(idom, root), nx_subtree_sizes(want, root))


@pytest.mark.parametrize("n, deg", [(30, 1.5), (200, 2.0), (1000, 1.2), (1000, 3.0)])
@pytest.mark.parametrize("gseed", range(3))
def test_lt_matches_networkx_random(n, deg, gseed):
    """Random digraphs with self-loops, duplicates and unreachable parts."""
    rng = np.random.default_rng((gseed, n))
    edges = rng.integers(0, n, size=(int(deg * n), 2))
    assert_matches_networkx(n, edges, int(rng.integers(n)))


@pytest.fixture(scope="module")
def facebook_tr():
    """Facebook at half scale, TR probabilities, 10 seeds merged into one."""
    n, e = generate_edges("Facebook", scale=0.5, seed=0)
    rng = np.random.default_rng(3)
    p = rng.choice([0.1, 0.01, 0.001], size=e.shape[0])
    seeds = rng.choice(n, size=10, replace=False)
    src, dst = e[:, 0].copy(), e[:, 1]
    keep = ~np.isin(dst, seeds)
    src[np.isin(src, seeds)] = -1
    pdf = pd.DataFrame({"src": src[keep], "dst": dst[keep], "p": p[keep]})
    return LocalGraph.from_pandas(pdf.drop_duplicates(["src", "dst"]), seed_vertex=-1)


@pytest.mark.parametrize("sid", range(4))
def test_lt_matches_networkx_on_sampled_facebook(facebook_tr, sid):
    """Compacted sampled subgraphs, exactly as ``decrease_es`` builds them."""
    g = facebook_tr
    verts, edges = sample_reachable(g, sample_rng(0, sid))
    assert verts.shape[0] > 1000  # ~1.2k reached, about half with >1 in-edge
    sorted_vs = np.sort(verts)
    assert_matches_networkx(
        verts.shape[0],
        np.searchsorted(sorted_vs, edges),
        int(np.searchsorted(sorted_vs, g.seed)),
    )
