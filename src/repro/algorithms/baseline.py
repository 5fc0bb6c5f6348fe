"""Baseline blocker-selection algorithms: BaselineGreedy, Rand, OutDegree.

* **BaselineGreedy (BG)** — Algorithm 1, the state of the art the paper
  compares against [2], [8]: in each of ``b`` rounds, estimate via
  Monte-Carlo simulation the expected spread after blocking each remaining
  candidate, and block the candidate minimizing it (equivalently,
  maximizing the spread decrease). O(b·n·r·m): the per-candidate MCS is
  what AG's dominator-tree estimator eliminates. Each round's candidate
  sweep runs through :func:`repro.core.runner.map_sum`, candidate ``i``
  written at index ``i``.
* **Rand (RA)** — ``b`` uniform random non-seed vertices.
* **OutDegree (OD)** — the ``b`` highest out-degree non-seed vertices.

RA/OD operate on *original* vertex ids of the unmerged graph (they need no
spread computation); BG operates on a merged ``LocalGraph`` like AG/GR.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.runner import map_sum
from repro.core.spread import _mcs_partition
from repro.graphs.localgraph import LocalGraph


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
    vertex, as in the paper). Each round's sweep is one kernel run, on the
    driver or as one Spark job.
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

        def kernel(lg, ids):
            """MCS spread after also blocking ``cands[i]``, at index ``i``."""
            out = np.zeros(len(cands), dtype=np.float64)
            for i in ids:
                u = cands[i]
                bl = blocked.copy()
                bl[u] = True
                out[i] = _mcs_partition(lg, bl, master * 1_000_003 + u, range(r)) / r
            return out

        got = map_sum(kernel, len(cands), len(cands), g=g, spark=spark)
        spreads = dict(zip(cands, got))
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
