"""Baseline blocker-selection algorithms: BaselineGreedy, Rand, OutDegree.

* **BaselineGreedy (BG)** — Algorithm 1, the state of the art the paper
  compares against [2], [8]: in each of ``b`` rounds, estimate via
  Monte-Carlo simulation the expected spread after blocking each remaining
  candidate, and block the candidate minimizing it (equivalently,
  maximizing the spread decrease). O(b·n·r·m): the per-candidate MCS is
  what AG's dominator-tree estimator eliminates. The per-round candidate
  sweep is distributed over executors when ``spark`` is given.
* **Rand (RA)** — ``b`` uniform random non-seed vertices.
* **OutDegree (OD)** — the ``b`` highest out-degree non-seed vertices.

RA/OD operate on *original* vertex ids of the unmerged graph (they need no
spread computation); BG operates on a merged ``LocalGraph`` like AG/GR.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.sampling import sample_reachable, sample_rng
from repro.graphs.localgraph import LocalGraph


def _mean_spread(g: LocalGraph, blocked: np.ndarray, r: int, master: int) -> float:
    total = 0
    for i in range(r):
        total += sample_reachable(g, sample_rng(master, i), blocked)[0].shape[0]
    return total / r


def _candidate_spreads(
    g: LocalGraph, blocked: np.ndarray, cands: list[int], r: int, master: int
) -> dict[int, float]:
    out: dict[int, float] = {}
    for u in cands:
        b = blocked.copy()
        b[u] = True
        out[u] = _mean_spread(g, b, r, master * 1_000_003 + u)
    return out


def baseline_greedy(
    g: LocalGraph,
    b: int,
    *,
    r: int = 1000,
    seed: int = 0,
    spark=None,
    candidates: list[int] | None = None,
) -> list[int]:
    """Algorithm 1. Returns blocker *local ids* in selection order.

    ``candidates`` restricts the per-round sweep (default: every non-seed
    vertex, as in the paper). With ``spark``, each round's sweep is one
    Spark job with candidates partitioned across executors.
    """
    if b < 0:
        raise ValueError("b must be non-negative")
    if r <= 0:
        raise ValueError("r must be positive")
    blocked = np.zeros(g.n, dtype=bool)
    B: list[int] = []
    all_cands = (
        [u for u in range(g.n) if u != g.seed]
        if candidates is None
        else [int(u) for u in candidates]
    )
    for rnd in range(b):
        cands = [u for u in all_cands if not blocked[u]]
        if not cands:
            break
        master = seed * 7_919 + rnd
        if spark is None:
            spreads = _candidate_spreads(g, blocked, cands, r, master)
        else:
            bc = g.broadcast(spark)
            blocked_l = blocked.copy()

            def fn(batches):
                lg = bc.value
                for pdf in batches:
                    got = _candidate_spreads(
                        lg, blocked_l, pdf["cand"].tolist(), r, master
                    )
                    yield pd.DataFrame(
                        {"cand": list(got), "spread": list(got.values())}
                    )

            cdf = spark.createDataFrame(pd.DataFrame({"cand": cands}))
            out = cdf.mapInPandas(fn, "cand long, spread double").toPandas()
            spreads = dict(zip(out["cand"], out["spread"]))
        # max decrease == min resulting spread; ties -> smallest local id
        x = min(cands, key=lambda u: (spreads[u], u))
        B.append(x)
        blocked[x] = True
    return B


def ra_blockers(
    n_vertices: int, seeds: list[int], b: int, *, seed: int = 0
) -> list[int]:
    """Rand: b uniform random non-seed original vertex ids."""
    rng = np.random.default_rng((seed, 0x52A))
    pool = np.setdiff1d(np.arange(n_vertices), np.asarray(seeds, dtype=np.int64))
    k = min(b, pool.shape[0])
    return sorted(rng.choice(pool, size=k, replace=False).tolist())


def od_blockers(edges: DataFrame, seeds: list[int], b: int) -> list[int]:
    """OutDegree: the b highest-out-degree non-seed original vertex ids.

    Ties broken by smaller vertex id (deterministic).
    """
    seed_arr = F.array(*[F.lit(int(s)) for s in seeds])
    rows = (
        edges.where(~F.array_contains(seed_arr, F.col("src")))
        .groupBy("src")
        .agg(F.count("*").alias("d_out"))
        .orderBy(F.desc("d_out"), F.asc("src"))
        .limit(b)
        .collect()
    )
    return [r["src"] for r in rows]
