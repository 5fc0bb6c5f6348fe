"""Tests for seed merging."""
import pytest

from repro.graphs.toy import TOY_EDGES, TOY_EXPECTED_SPREAD, TOY_SEED, toy_edges_df
from repro.graphs.transform import SUPER_SEED, merge_seeds
from repro.core.spread import exact_spread
from repro.graphs.localgraph import LocalGraph


@pytest.fixture(scope="module")
def toy(spark):
    return toy_edges_df(spark).cache()


def test_merge_single_seed_keeps_structure(spark, toy):
    merged = merge_seeds(toy, [TOY_SEED])
    rows = {(r["src"], r["dst"]): r["p"] for r in merged.collect()}
    assert (SUPER_SEED, 2) in rows and (SUPER_SEED, 4) in rows
    assert rows[(SUPER_SEED, 2)] == pytest.approx(1.0)
    assert (5, 8) in rows and rows[(5, 8)] == pytest.approx(0.5)
    assert merged.count() == toy.count()  # v1 had 2 out-edges -> 2 merged


def test_merge_combines_parallel_seed_edges(spark):
    """Two seeds pointing at u merge to p' = 1 - (1-p1)(1-p2)."""
    pdf = spark.createDataFrame(
        [(1, 10, 0.3), (2, 10, 0.4), (10, 11, 0.5)], ["src", "dst", "p"]
    )
    merged = merge_seeds(pdf, [1, 2])
    rows = {(r["src"], r["dst"]): r["p"] for r in merged.collect()}
    assert rows[(SUPER_SEED, 10)] == pytest.approx(1 - 0.7 * 0.6)
    assert rows[(10, 11)] == pytest.approx(0.5)
    assert len(rows) == 2


def test_merge_with_certain_edge_gives_one(spark):
    pdf = spark.createDataFrame(
        [(1, 10, 1.0), (2, 10, 0.4)], ["src", "dst", "p"]
    )
    merged = merge_seeds(pdf, [1, 2])
    rows = {(r["src"], r["dst"]): r["p"] for r in merged.collect()}
    assert rows[(SUPER_SEED, 10)] == pytest.approx(1.0)


def test_merge_drops_seed_to_seed_and_into_seed_edges(spark):
    pdf = spark.createDataFrame(
        [(1, 2, 0.5), (3, 1, 0.9), (1, 10, 0.2), (10, 3, 0.7)],
        ["src", "dst", "p"],
    )
    merged = merge_seeds(pdf, [1, 2])
    rows = {(r["src"], r["dst"]) for r in merged.collect()}
    assert rows == {(SUPER_SEED, 10), (10, 3)}


def test_merge_preserves_expected_spread_on_toy(spark, toy):
    """Merging a single seed must not change the expected spread."""
    merged = merge_seeds(toy, [TOY_SEED])
    g = LocalGraph.from_edges(merged, SUPER_SEED)
    assert exact_spread(g) == pytest.approx(7.66)


def test_merge_multi_seed_spread_formula(spark):
    """E(S) = |S| - 1 + E({s'}) on a two-seed diamond."""
    pdf = spark.createDataFrame(
        [(1, 10, 0.5), (2, 10, 0.5), (10, 11, 1.0)], ["src", "dst", "p"]
    )
    g = LocalGraph.from_edges(merge_seeds(pdf, [1, 2]), SUPER_SEED)
    # P(10) = 1 - 0.25 = 0.75; P(11) = 0.75; sigma' = 1 + 1.5
    assert exact_spread(g) == pytest.approx(2.5)
    total = (2 - 1) + exact_spread(g)
    assert total == pytest.approx(3.5)


@pytest.mark.parametrize(
    "edges, seeds, n, m, expected",
    [
        (TOY_EDGES, [TOY_SEED, 99], 9, 10, TOY_EXPECTED_SPREAD + 1),
        (TOY_EDGES, [7, 99], 9, 9, 2.0),
        ([(1, 2, 0.5)], [1, 2], 1, 0, 2.0),
    ],
    ids=["seed-in-no-edge", "no-seed-out-edge", "only-seed-to-seed-edge"],
)
def test_merge_counts_every_seed_once(spark, edges, seeds, n, m, expected):
    """Every seed is active at t=0 and counts once, with or without edges:
    the harness's ``(|S| - 1) + E({s'})`` holds when merge_seeds drops a
    seed from the graph or leaves s' with no out-edge."""
    df = spark.createDataFrame(edges, ["src", "dst", "p"])
    g = LocalGraph.from_edges(merge_seeds(df, seeds), SUPER_SEED)
    assert (g.n, g.m) == (n, m)
    assert (len(seeds) - 1) + exact_spread(g) == pytest.approx(expected)
