"""Algorithm 1's greedy loop and the baselines BG, Rand and OutDegree.

* :func:`greedy` is Algorithm 1's round loop, written once: BG, AG and GR's
  phase 1 differ only in their candidate pool and their per-round score.
* **BaselineGreedy (BG)** — Algorithm 1, the state of the art the paper
  compares against [2], [8]: each round blocks the candidate whose
  Monte-Carlo spread after blocking it is smallest. O(b·n·r·m): the
  per-candidate MCS is what AG's dominator-tree estimator eliminates.
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


def greedy(g: LocalGraph, b: int, pool, score) -> list[int]:
    """Algorithm 1's loop. Returns the blockers (local ids) in selection order.

    ``pool`` holds the selectable ids (``None``: every non-seed vertex).
    Each round scores the unblocked pool vertices ``left``, ascending, by
    ``score(rnd, blocked, left)`` and blocks the top one; ties go to the
    smallest id (``np.argmax``). Stops after ``b`` rounds or an empty pool.
    """
    if b < 0:
        raise ValueError("b must be non-negative")
    pool = np.unique(np.delete(np.arange(g.n), g.seed) if pool is None else pool)
    blocked = np.zeros(g.n, dtype=bool)
    B: list[int] = []
    for rnd in range(b):
        left = pool[~blocked[pool]]
        if left.size == 0:
            break
        x = int(left[np.argmax(score(rnd, blocked, left))])
        B.append(x)
        blocked[x] = True
    return B


def baseline_greedy(
    g: LocalGraph,
    b: int,
    *,
    r: int = 1000,
    seed: int = 0,
    spark=None,
    candidates: list[int] | None = None,
) -> list[int]:
    """Algorithm 1 on :func:`greedy`. Returns blocker *local ids* in order.

    ``candidates`` restricts the pool (default: every non-seed vertex, as
    in the paper); a duplicate is priced once. Each round scores every
    candidate by minus its MCS spread, in one kernel run through
    :func:`repro.core.runner.map_sum`, candidate ``left[i]`` at index ``i``.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    pool = None if candidates is None else np.asarray(candidates, dtype=np.int64)
    if pool is not None and np.any((pool < 0) | (pool >= g.n) | (pool == g.seed)):
        raise ValueError("candidates must be non-seed local ids in 0..n-1")

    def score(rnd, blocked, left):
        master = seed * 7_919 + rnd

        def kernel(lg, ids):
            """MCS spread after also blocking ``left[i]``, at index ``i``."""
            out = np.zeros(len(left), dtype=np.float64)
            for i in ids:
                u = int(left[i])
                bl = blocked.copy()
                bl[u] = True
                out[i] = _mcs_partition(lg, bl, master * 1_000_003 + u, range(r)) / r
            return out

        return -map_sum(kernel, len(left), g=g, spark=spark)

    return greedy(g, b, pool, score)


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
