"""Algorithm-level tests on the toy graph: Table III + Examples 3-4."""
import numpy as np
import pytest

from repro.algorithms.advanced_greedy import advanced_greedy
from repro.algorithms.baseline import baseline_greedy, od_blockers, ra_blockers
from repro.algorithms.exact import (
    exact_blockers,
    presample_adjacency,
    shared_sample_spread,
)
from repro.algorithms.greedy_replace import greedy_replace
from repro.core.spread import exact_spread
from repro.graphs.toy import toy_edges_df, toy_local_graph

THETA = 400


@pytest.fixture(scope="module")
def toy():
    return toy_local_graph()


def _origs(g, locals_):
    return sorted(int(g.orig_ids[u]) for u in locals_)


def _spread_after(g, locals_):
    blocked = np.zeros(g.n, dtype=bool)
    blocked[list(locals_)] = True
    return exact_spread(g, blocked)


# ---------------- Table III: Greedy row ---------------------------------
def test_greedy_b1_picks_v5(toy):
    B = advanced_greedy(toy, 1, theta=THETA, seed=0)
    assert _origs(toy, B) == [5]
    assert _spread_after(toy, B) == pytest.approx(3.0)


def test_greedy_b2_picks_v5_then_outneighbor(toy):
    B = advanced_greedy(toy, 2, theta=THETA, seed=0)
    assert int(toy.orig_ids[B[0]]) == 5
    assert int(toy.orig_ids[B[1]]) in (2, 4)
    assert _spread_after(toy, B) == pytest.approx(2.0)


# ---------------- Table III: OutNeighbors row ---------------------------
def test_outneighbors_b1(toy):
    B = greedy_replace(toy, 1, theta=THETA, seed=0, replace=False)
    assert _origs(toy, B)[0] in (2, 4)
    assert _spread_after(toy, B) == pytest.approx(6.66)


def test_outneighbors_b2(toy):
    B = greedy_replace(toy, 2, theta=THETA, seed=0, replace=False)
    assert _origs(toy, B) == [2, 4]
    assert _spread_after(toy, B) == pytest.approx(1.0)


# ---------------- Table III: GreedyReplace row --------------------------
def test_gr_b1_replaces_outneighbor_with_v5(toy):
    """Example 4: GR first picks v2/v4, then replaces it with v5."""
    B = greedy_replace(toy, 1, theta=THETA, seed=0)
    assert _origs(toy, B) == [5]
    assert _spread_after(toy, B) == pytest.approx(3.0)


def test_gr_b2_keeps_both_outneighbors(toy):
    """Example 4: at b=2 no replacement improves {v2, v4}; E = 1."""
    B = greedy_replace(toy, 2, theta=THETA, seed=0)
    assert _origs(toy, B) == [2, 4]
    assert _spread_after(toy, B) == pytest.approx(1.0)


def test_gr_budget_beyond_outdegree_caps(toy):
    B = greedy_replace(toy, 5, theta=THETA, seed=0)
    assert len(B) == 2  # d_out(v1) = 2


# ---------------- BaselineGreedy ----------------------------------------
def test_bg_matches_ag_on_toy(toy):
    B = baseline_greedy(toy, 2, r=400, seed=0)
    assert int(toy.orig_ids[B[0]]) == 5
    assert _spread_after(toy, B) == pytest.approx(2.0)


def test_bg_distributed_matches_local(spark, toy):
    local = baseline_greedy(toy, 2, r=200, seed=3)
    dist = baseline_greedy(toy, 2, r=200, seed=3, spark=spark)
    assert local == dist


def test_bg_candidate_restriction(toy):
    cands = [toy.to_local(2), toy.to_local(4)]
    B = baseline_greedy(toy, 2, r=200, seed=0, candidates=cands)
    assert _origs(toy, B) == [2, 4]


# ---------------- RA / OD ------------------------------------------------
def test_ra_excludes_seeds_and_is_deterministic():
    a = ra_blockers(100, [3, 7], 10, seed=5)
    b = ra_blockers(100, [3, 7], 10, seed=5)
    assert a == b
    assert len(a) == 10
    assert 3 not in a and 7 not in a


def test_ra_caps_at_pool_size():
    assert len(ra_blockers(5, [0], 10, seed=0)) == 4


def test_od_toy(spark):
    toy_df = toy_edges_df(spark)
    assert od_blockers(toy_df, [1], 1) == [5]       # d_out(v5) = 4
    assert od_blockers(toy_df, [1], 3) == [5, 2, 4]  # then ties at 1 by id
    assert od_blockers(toy_df, [1, 5], 1) == [2]


# ---------------- Exact --------------------------------------------------
def test_exact_b1_is_v5(toy):
    B, spread = exact_blockers(toy, 1, theta=300, seed=0)
    assert _origs(toy, B) == [5]
    assert spread == pytest.approx(3.0, abs=1e-9)


def test_exact_b2_is_v2_v4(toy):
    B, spread = exact_blockers(toy, 2, theta=300, seed=0)
    assert _origs(toy, B) == [2, 4]
    assert spread == pytest.approx(1.0, abs=1e-9)


def test_exact_distributed_matches_local(spark, toy):
    a = exact_blockers(toy, 2, theta=128, seed=2)
    d = exact_blockers(toy, 2, theta=128, seed=2, spark=spark)
    assert a == d


def test_shared_sample_spread_matches_exact_on_deterministic_part(toy):
    A = presample_adjacency(toy, theta=256, seed=9)
    est = shared_sample_spread(A, toy.seed, [toy.to_local(5)])
    assert est == pytest.approx(3.0)  # deterministic once v5 blocked
    est_none = shared_sample_spread(A, toy.seed, [])
    assert est_none == pytest.approx(7.66, abs=0.3)


def test_exact_combo_guard(toy):
    import repro.algorithms.exact as ex

    old = ex.MAX_COMBOS
    ex.MAX_COMBOS = 5
    try:
        with pytest.raises(ValueError):
            exact_blockers(toy, 3, theta=16, seed=0)
    finally:
        ex.MAX_COMBOS = old


# ---------------- Cross-algorithm invariants ----------------------------
@pytest.mark.parametrize("b", [1, 2])
def test_gr_never_worse_than_outneighbors(toy, b):
    gr = greedy_replace(toy, b, theta=THETA, seed=1)
    on = greedy_replace(toy, b, theta=THETA, seed=1, replace=False)
    assert _spread_after(toy, gr) <= _spread_after(toy, on) + 1e-9


@pytest.mark.parametrize("b", [1, 2])
def test_exact_lower_bounds_heuristics(toy, b):
    ex, _ = exact_blockers(toy, b, theta=300, seed=0)
    best = _spread_after(toy, ex)
    for B in (
        advanced_greedy(toy, b, theta=THETA, seed=0),
        greedy_replace(toy, b, theta=THETA, seed=0),
    ):
        assert best <= _spread_after(toy, B) + 1e-9


def test_ag_deterministic(toy):
    assert advanced_greedy(toy, 2, theta=200, seed=4) == advanced_greedy(
        toy, 2, theta=200, seed=4
    )


def test_ag_distributed_matches_local(spark, toy):
    local = advanced_greedy(toy, 2, theta=300, seed=6)
    dist = advanced_greedy(toy, 2, theta=300, seed=6, spark=spark)
    assert local == dist


def test_gr_distributed_matches_local(spark, toy):
    local = greedy_replace(toy, 2, theta=300, seed=6)
    dist = greedy_replace(toy, 2, theta=300, seed=6, spark=spark)
    assert local == dist


# ---------------- bad input fails loudly, on both paths -----------------
@pytest.fixture(params=["driver", "spark"])
def maybe_spark(request):
    return None if request.param == "driver" else request.getfixturevalue("spark")


@pytest.mark.parametrize(
    "select",
    [
        lambda g, sp: advanced_greedy(g, -1, theta=THETA, spark=sp),
        lambda g, sp: greedy_replace(g, -1, theta=THETA, spark=sp),
        lambda g, sp: baseline_greedy(g, -1, r=10, spark=sp),
        lambda g, sp: exact_blockers(g, -1, theta=10, spark=sp),
        lambda g, sp: baseline_greedy(g, 1, r=0, spark=sp),
        lambda g, sp: exact_blockers(g, 1, theta=0, spark=sp),
    ],
    ids=["ag_b", "gr_b", "bg_b", "exact_b", "bg_r", "exact_theta"],
)
def test_bad_budget_or_sample_count_raises(toy, maybe_spark, select):
    with pytest.raises(ValueError):
        select(toy, maybe_spark)
