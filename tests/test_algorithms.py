"""Algorithm-level tests on the toy graph: Table III + Examples 3-4."""
import numpy as np
import pandas as pd
import pytest

from repro.algorithms.advanced_greedy import advanced_greedy
from repro.algorithms.baseline import baseline_greedy, od_blockers, ra_blockers
from repro.algorithms.exact import (
    exact_blockers,
    presample_adjacency,
    shared_sample_spread,
)
from repro.algorithms.greedy_replace import greedy_replace, phase1_out_neighbors
from repro.core.spread import exact_spread
from repro.graphs.localgraph import LocalGraph
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
    B = phase1_out_neighbors(toy, 1, theta=THETA, seed=0)
    assert _origs(toy, B)[0] in (2, 4)
    assert _spread_after(toy, B) == pytest.approx(6.66)


def test_outneighbors_b2(toy):
    B = phase1_out_neighbors(toy, 2, theta=THETA, seed=0)
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


def test_gr_keeps_blocker_on_all_zero_delta():
    """A tiny-p seed out-neighbour stays blocked when Δ is all zero.

    θ=200 samples never fire the p=0.001 edge, so phase 2 sees Δ = 0 for
    every candidate; it must keep v11 instead of swapping in vertex 0.
    """
    pdf = pd.DataFrame(
        {
            "src": [5, 5, 10, 11, 0],
            "dst": [10, 11, 12, 13, 1],
            "p": [1.0, 0.001, 1.0, 1.0, 1.0],
        }
    )
    g = LocalGraph.from_pandas(pdf, seed_vertex=5)
    B = greedy_replace(g, 2, theta=200, seed=0)
    assert _origs(g, B) == [10, 11]
    assert _spread_after(g, B) == 1.0


def test_gr_budget_beyond_outdegree_caps(toy):
    B = greedy_replace(toy, 5, theta=THETA, seed=0)
    assert len(B) == 2  # d_out(v1) = 2


# ---------------- BaselineGreedy ----------------------------------------
def test_bg_matches_ag_on_toy(toy):
    B = baseline_greedy(toy, 2, r=400, seed=0)
    assert int(toy.orig_ids[B[0]]) == 5
    assert _spread_after(toy, B) == pytest.approx(2.0)


def test_bg_distributed_matches_local(spark_jobs, toy):
    local = baseline_greedy(toy, 2, r=200, seed=3)
    dist = baseline_greedy(toy, 2, r=200, seed=3, spark=spark_jobs)
    assert local == dist


def test_bg_candidate_restriction(toy):
    cands = [toy.to_local(2), toy.to_local(4)]
    B = baseline_greedy(toy, 2, r=200, seed=0, candidates=cands)
    assert _origs(toy, B) == [2, 4]


# ---------------- the shared greedy loop: ties and the stop rule --------
def test_greedy_ties_go_to_smallest_id_and_pool_bounds_rounds():
    """Seed 5 with three p=1 leaves: every Δ and post-blocking spread ties.

    AG, GR phase 1 and BG then all pick the smallest local id (orig 2, not
    the first-listed leaf 9); AG stops once every non-seed vertex is
    blocked, and phase 1 once N_out(s) is used up.
    """
    pdf = pd.DataFrame({"src": [5, 5, 5], "dst": [9, 2, 7], "p": [1.0, 1.0, 1.0]})
    g = LocalGraph.from_pandas(pdf, seed_vertex=5)
    smallest = g.to_local(2)
    assert smallest == min(u for u in range(g.n) if u != g.seed)
    assert advanced_greedy(g, 1, theta=8) == [smallest]
    assert phase1_out_neighbors(g, 1, theta=8) == [smallest]
    assert baseline_greedy(g, 1, r=8) == [smallest]
    assert len(advanced_greedy(g, g.n + 2, theta=8)) == g.n - 1
    assert len(phase1_out_neighbors(g, g.n + 2, theta=8)) == g.out_degree(g.seed)


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
    # Prefix-structured, ties included, so Table VII runs OD once at b_max.
    full = od_blockers(toy_df, [1], 100)
    assert len(full) == len(set(full)) > 3
    for b in range(len(full) + 1):
        assert od_blockers(toy_df, [1], b) == full[:b]


# ---------------- Exact --------------------------------------------------
def test_exact_b1_is_v5(toy):
    B, spread = exact_blockers(toy, 1, theta=300, seed=0)
    assert _origs(toy, B) == [5]
    assert spread == pytest.approx(3.0, abs=1e-9)


def test_exact_b2_is_v2_v4(toy):
    B, spread = exact_blockers(toy, 2, theta=300, seed=0)
    assert _origs(toy, B) == [2, 4]
    assert spread == pytest.approx(1.0, abs=1e-9)


def test_exact_distributed_matches_local(spark_jobs, toy):
    a = exact_blockers(toy, 2, theta=128, seed=2)
    d = exact_blockers(toy, 2, theta=128, seed=2, spark=spark_jobs)
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
    on = phase1_out_neighbors(toy, b, theta=THETA, seed=1)
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


def test_ag_distributed_matches_local(spark_jobs, toy):
    local = advanced_greedy(toy, 2, theta=300, seed=6)
    dist = advanced_greedy(toy, 2, theta=300, seed=6, spark=spark_jobs)
    assert local == dist


def test_gr_distributed_matches_local(spark_jobs, toy):
    local = greedy_replace(toy, 2, theta=300, seed=6)
    dist = greedy_replace(toy, 2, theta=300, seed=6, spark=spark_jobs)
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
        lambda g, sp: baseline_greedy(g, 1, r=10, spark=sp, candidates=[g.seed]),
        lambda g, sp: baseline_greedy(g, 1, r=10, spark=sp, candidates=[g.n]),
        lambda g, sp: baseline_greedy(g, 1, r=10, spark=sp, candidates=[-1]),
    ],
    ids=[
        "ag_b", "gr_b", "bg_b", "exact_b", "bg_r", "exact_theta",
        "bg_seed_candidate", "bg_candidate_n", "bg_candidate_negative",
    ],
)
def test_bad_budget_or_sample_count_raises(toy, maybe_spark, select, monkeypatch):
    """Bad budgets, sample counts and BG candidates raise before any sampling."""

    def no_sweep(*args, **kwargs):
        raise AssertionError("BG started sampling before validating its input")

    monkeypatch.setattr("repro.algorithms.baseline.map_sum", no_sweep)
    with pytest.raises(ValueError):
        select(toy, maybe_spark)
