"""Expected-spread computation: exact enumeration and distributed MCS.

``E(S, G)`` counts the seed itself, matching the paper's Example 1
(E({v1}, G) = 7.66 on the 9-vertex toy graph) and the Table VII floors
(spread 10 with 10 seeds when everything else is blocked). With the
multi-seed reduction (``merge_seeds``) the reported spread is
``(|S| - 1) + E({s'}, G')``.

* :func:`exact_activation_probs` / :func:`exact_spread` enumerate all
  2^k subsets of the k probabilistic edges (p < 1) — feasible for k ≤ ~20;
  this replaces the paper's BDD-based exact computation [39] (DESIGN.md
  §5.3) and reproduces Example 1 digit-for-digit.
* :func:`mcs_spread` is Monte-Carlo simulation (Lemma 1): mean σ(s, g)
  over ``r`` sampled graphs, distributed over sample ids when a
  SparkSession is given.
"""
from __future__ import annotations

import itertools

import numpy as np
import pandas as pd

from repro.core.sampling import reachable_from, sample_reachable, sample_rng
from repro.graphs.localgraph import LocalGraph

#: Refuse exact enumeration beyond this many probabilistic edges.
MAX_EXACT_PROB_EDGES = 20


def _edge_arrays(g: LocalGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    return src, g.indices, g.probs


def enumerate_sampled_graphs(
    g: LocalGraph, blocked: np.ndarray | None = None
):
    """Yield ``(probability, edges)`` over all distinct sampled graphs.

    Edges with p == 1 appear in every sample; each subset of the k
    probabilistic edges (0 < p < 1) is enumerated with its probability.
    Edges touching blocked vertices are removed first.
    """
    src, dst, p = _edge_arrays(g)
    if blocked is not None:
        keep = ~blocked[src] & ~blocked[dst]
        src, dst, p = src[keep], dst[keep], p[keep]
    certain = p >= 1.0
    probabilistic = (p > 0.0) & ~certain
    k = int(probabilistic.sum())
    if k > MAX_EXACT_PROB_EDGES:
        raise ValueError(
            f"{k} probabilistic edges > {MAX_EXACT_PROB_EDGES}; exact "
            "enumeration is exponential — use mcs_spread instead"
        )
    base = np.stack([src[certain], dst[certain]], axis=1)
    psrc, pdst, pp = src[probabilistic], dst[probabilistic], p[probabilistic]
    for bits in itertools.product((False, True), repeat=k):
        mask = np.asarray(bits, dtype=bool)
        prob = float(np.prod(np.where(mask, pp, 1.0 - pp)))
        kept = np.stack([psrc[mask], pdst[mask]], axis=1)
        yield prob, np.concatenate([base, kept], axis=0)


def exact_activation_probs(
    g: LocalGraph, blocked: np.ndarray | None = None
) -> np.ndarray:
    """Exact activation probability of every vertex (tiny graphs only)."""
    probs = np.zeros(g.n, dtype=np.float64)
    for prob, edges in enumerate_sampled_graphs(g, blocked):
        probs += prob * reachable_from(g.n, edges, g.seed)
    return probs


def exact_spread(g: LocalGraph, blocked: np.ndarray | None = None) -> float:
    """Exact expected spread Σ_u P(u, {s}) — includes the seed."""
    return float(exact_activation_probs(g, blocked).sum())


def _mcs_partition(g: LocalGraph, blocked, master_seed: int, ids) -> tuple[int, int]:
    total = 0
    for sid in ids:
        verts, _ = sample_reachable(g, sample_rng(master_seed, int(sid)), blocked)
        total += verts.shape[0]
    return total, len(ids)


def mcs_spread(
    g: LocalGraph,
    *,
    r: int,
    seed: int = 0,
    blocked: np.ndarray | None = None,
    spark=None,
) -> float:
    """Monte-Carlo estimate of E({s}, G[V \\ B]) over ``r`` samples.

    With ``spark`` given, sample ids are partitioned across executors
    (one Spark job); otherwise runs on the driver. Both paths use the same
    per-sample kernel and the same ``(seed, sample_id)`` RNG streams, so
    they return bit-identical results.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if spark is None:
        total, cnt = _mcs_partition(g, blocked, seed, range(r))
        return total / cnt
    bc = g.broadcast(spark)
    blocked_l = None if blocked is None else blocked.copy()
    master = seed

    def fn(batches):
        lg = bc.value
        total = 0
        cnt = 0
        for pdf in batches:
            t, c = _mcs_partition(lg, blocked_l, master, pdf["id"].tolist())
            total += t
            cnt += c
        yield pd.DataFrame({"total": [total], "cnt": [cnt]})

    out = (
        spark.range(0, int(r), 1, spark.sparkContext.defaultParallelism)
        .mapInPandas(fn, "total long, cnt long")
        .toPandas()
    )
    return float(out["total"].sum() / out["cnt"].sum())
