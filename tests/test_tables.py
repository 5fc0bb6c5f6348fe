"""Integration tests: each table harness runs and has the paper's shape."""
import numpy as np
import pytest

from repro.algorithms.greedy_replace import greedy_replace, phase1_out_neighbors, replace_blockers
from repro.experiments.tables import (
    efficiency,
    exact_vs_gr,
    table3,
    table4,
    table7,
)
from repro.graphs.datasets import DATASETS
from repro.graphs.toy import toy_local_graph


def test_table3_matches_paper():
    df = table3(theta=400, seed=0)
    rows = {r["Algorithm"]: r for _, r in df.iterrows()}
    assert rows["Greedy"]["B (b=1)"] == "{v5}"
    assert rows["Greedy"]["E (b=1)"] == pytest.approx(3.0)
    assert rows["Greedy"]["E (b=2)"] == pytest.approx(2.0)
    assert rows["OutNeighbors"]["E (b=1)"] == pytest.approx(6.66)
    assert rows["OutNeighbors"]["B (b=2)"] == "{v2, v4}"
    assert rows["OutNeighbors"]["E (b=2)"] == pytest.approx(1.0)
    assert rows["GreedyReplace"]["B (b=1)"] == "{v5}"
    assert rows["GreedyReplace"]["E (b=1)"] == pytest.approx(3.0)
    assert rows["GreedyReplace"]["E (b=2)"] == pytest.approx(1.0)


def test_table4_full_grid():
    df = table4(scale=0.01, seed=0)
    assert list(df["Dataset"]) == list(DATASETS)
    assert (df["ours n"] > 0).all() and (df["ours m"] > 0).all()
    # paper stats transcribed correctly
    assert df.set_index("Dataset").loc["Twitter", "paper m"] == 1_768_149
    # hubs exist even at this tiny test scale
    assert (df["ours d_max"] > df["ours d_avg"]).all()


def test_table4_degree_skew_at_default_scale():
    """At evaluation scale the big datasets show strong hub skew."""
    from repro.graphs.datasets import stats_row

    row = stats_row("Twitter", seed=0)  # default scale
    assert row["d_max"] >= 10 * row["d_avg"]


def test_table5_shape_small(spark, monkeypatch):
    d_out = []  # d_out(s') of the ball in each GR call

    def recording_gr(g, b, **kw):
        d_out.append(g.out_degree(g.seed))
        return greedy_replace(g, b, **kw)

    monkeypatch.setattr("repro.experiments.tables.greedy_replace", recording_gr)
    df = exact_vs_gr(
        spark,
        "TR",
        n_subgraphs=2,
        n_target=12,
        n_seeds=2,
        budgets=(1, 2),
        theta=120,
        theta_eval=400,
        gr_theta=200,
        seed=2,
    )
    # Both balls give s' an out-edge, so GR makes Δ calls on each; seed 2
    # is the first from 1 up where they do (d_out = 5 and 1).
    assert len(d_out) == 4 and min(d_out) > 0
    assert list(df["b"]) == [1, 2]
    # Exact is optimal under the shared estimator: spread <= GR spread
    assert (df["Exact spread"] <= df["GR spread"] + 0.05).all()
    # ratios near 100%
    ratios = df["Ratio"].str.rstrip("%").astype(float)
    assert (ratios > 90).all() and (ratios <= 100.5).all()
    # spreads nonincreasing in b (small tolerance: selection noise)
    assert (df["Exact spread"].diff().dropna() <= 0.05).all()


def test_table6_wc_shape_small(spark):
    df = exact_vs_gr(
        spark,
        "WC",
        n_subgraphs=1,
        n_target=12,
        n_seeds=2,
        budgets=(1, 2),
        theta=120,
        theta_eval=400,
        gr_theta=200,
        seed=2,
    )
    # A GR spread above |S| = 2 means s' has an out-edge in the ball, so GR
    # makes Δ calls; seed 2 is the first from 2 up that gives one.
    assert df.loc[df["b"] == 1, "GR spread"].item() > 2
    assert (df["Exact spread"] <= df["GR spread"] + 0.05).all()
    ratios = df["Ratio"].str.rstrip("%").astype(float)
    assert (ratios > 90).all()


@pytest.mark.parametrize("model", ["WC", "TR"])
def test_table7_cell_shape(spark, model):
    df = table7(
        spark,
        datasets=("EmailCore",),
        models=(model,),
        budgets=(5, 10),
        theta=150,
        r_eval=600,
        seed=0,
    )
    assert list(df["b"]) == [5, 10]
    floor = 10  # |S| seeds
    for col in ("RA", "OD", "AG", "GR"):
        assert (df[col] >= floor - 0.01).all()
    # the paper's ordering (Table VII): greedy family <= OD <= RA. The
    # AG/OD gap in the paper is only a few percent on EmailCore, so allow
    # that much estimator noise at this tiny test configuration.
    assert (df["AG"] <= df["OD"] * 1.05).all()
    assert (df["GR"] <= df["OD"] * 1.05).all()
    assert (df["AG"] <= df["RA"]).all()
    assert (df["GR"] <= df["RA"]).all()
    # larger budgets never hurt (up to evaluation noise)
    assert (df["AG"].diff().dropna() <= 0.5).all()
    assert (df["GR"].diff().dropna() <= 0.5).all()


def test_gr_phase1_reuse_is_exact(spark):
    """Truncating a bmax phase-1 run == running phase 1 at budget b."""
    from repro.experiments.harness import build_workload

    wl = build_workload(spark, "EmailCore", "WC", scale=0.3, n_seeds=3, seed=2)
    g = wl.graph
    p1 = phase1_out_neighbors(g, 8, theta=100, seed=5)
    for b in (2, 4):
        direct = greedy_replace(g, b, theta=100, seed=5)
        reused = replace_blockers(g, p1[:b], theta=100, seed=5)
        assert direct == reused


def test_efficiency_ordering(spark):
    """BG is slower than AG and GR even with few MCS rounds (tiny config)."""
    df = efficiency(
        spark,
        dataset="EmailCore",
        model="TR",
        b=2,
        theta=150,
        r_bg=60,
        scale=1.0,
        n_seeds=5,
        seed=0,
    )
    t = dict(zip(df["Algorithm"], df["time (s)"]))
    # BG sweeps ~1000 candidates x 60 MCS rounds per greedy round; AG/GR
    # replace that with one DecreaseESComputation job per round.
    assert t["BG"] > t["AG"]
    assert t["BG"] > t["GR"]
    s = dict(zip(df["Algorithm"], df["spread"]))
    assert s["AG"] >= 5 and s["GR"] >= 5  # floor = |S|
