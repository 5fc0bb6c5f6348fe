"""Tests for the LocalGraph CSR snapshot."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.localgraph import LocalGraph
from repro.graphs.toy import TOY_SEED, toy_local_graph, toy_pandas


def test_toy_dimensions():
    g = toy_local_graph()
    assert g.n == 9
    assert g.m == 10
    assert g.orig_ids.tolist() == list(range(1, 10))


def test_seed_is_local_id_of_v1():
    g = toy_local_graph()
    assert g.orig_ids[g.seed] == TOY_SEED


def test_out_edges_roundtrip():
    g = toy_local_graph()
    pdf = toy_pandas()
    for orig_u in range(1, 10):
        u = g.to_local(orig_u)
        heads, probs = g.out_edges(u)
        want = pdf[pdf["src"] == orig_u]
        assert heads.shape[0] == len(want)
        got = sorted(
            (int(g.orig_ids[h]), float(p)) for h, p in zip(heads, probs)
        )
        expect = sorted(zip(want["dst"], want["p"]))
        assert got == [(int(a), float(b)) for a, b in expect]


def test_out_degree():
    g = toy_local_graph()
    assert g.out_degree(g.to_local(1)) == 2
    assert g.out_degree(g.to_local(5)) == 4
    assert g.out_degree(g.to_local(7)) == 0


def test_to_local_missing_raises():
    g = toy_local_graph()
    with pytest.raises(KeyError):
        g.to_local(999)


def test_isolated_seed_included():
    pdf = pd.DataFrame({"src": [10], "dst": [11], "p": [0.5]})
    g = LocalGraph.from_pandas(pdf, seed_vertex=5)
    assert g.n == 3
    assert g.orig_ids[g.seed] == 5
    assert g.out_degree(g.seed) == 0


def test_negative_super_seed_id_supported():
    pdf = pd.DataFrame({"src": [-1, -1], "dst": [3, 4], "p": [1.0, 0.5]})
    g = LocalGraph.from_pandas(pdf, seed_vertex=-1)
    assert g.n == 3
    assert g.orig_ids[g.seed] == -1
    heads, probs = g.out_edges(g.seed)
    assert sorted(g.orig_ids[heads].tolist()) == [3, 4]


def test_from_edges_matches_from_pandas(spark):
    pdf = toy_pandas()
    a = LocalGraph.from_edges(spark.createDataFrame(pdf), TOY_SEED)
    b = LocalGraph.from_pandas(pdf, TOY_SEED)
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.probs, b.probs)
    assert a.seed == b.seed


def test_csr_indptr_consistent():
    g = toy_local_graph()
    assert g.indptr[0] == 0
    assert g.indptr[-1] == g.m
    assert (np.diff(g.indptr) >= 0).all()


@pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
def test_probability_outside_unit_interval_raises(bad):
    pdf = pd.DataFrame({"src": [0, 1], "dst": [1, 2], "p": [0.5, bad]})
    with pytest.raises(ValueError):
        LocalGraph.from_pandas(pdf, seed_vertex=0)
