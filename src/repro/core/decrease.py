"""Algorithm 2 — DecreaseESComputation, distributed over sample ids.

For each of θ sampled graphs: build the sampled reachable subgraph (lazy
BFS), its dominator tree from the seed (Lengauer-Tarjan) and the subtree
size of every vertex; the average subtree size over samples estimates the
decrease of expected spread caused by blocking that vertex (Theorems 4-6).

One call is one Spark job: ``spark.range(θ)`` partitions sample ids across
executors, the CSR graph is broadcast, and each partition emits its
pre-aggregated Δ contributions as ``(vertex, total)`` rows — summed on the
driver, so no shuffle is needed. A driver-local path (``spark=None``)
shares the same kernel and RNG streams and is bit-identical.

``decrease_es_exact`` enumerates all sampled graphs (tiny graphs only) and
reproduces Example 2 exactly: Δ(v5) = 4.66, Δ(v9) = 1.11, Δ(v8) = 0.66.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.dominator import lengauer_tarjan, subtree_sizes
from repro.core.sampling import sample_reachable, sample_rng
from repro.core.spread import enumerate_sampled_graphs
from repro.graphs.localgraph import LocalGraph


def _delta_partition(
    g: LocalGraph, blocked, master_seed: int, ids
) -> np.ndarray:
    """Sum of dominator-subtree sizes over the given sample ids.

    The dominator tree is computed on the *compacted* reachable subgraph
    (ids remapped to 0..k-1), so per-sample cost is O(sampled subgraph),
    not O(n) — the property the paper relies on in §VI-C.
    """
    delta = np.zeros(g.n, dtype=np.float64)
    for sid in ids:
        verts, edges = sample_reachable(g, sample_rng(master_seed, int(sid)), blocked)
        k = verts.shape[0]
        if k <= 1:
            delta[g.seed] += k
            continue
        sorted_vs = np.sort(verts)
        edges_c = np.searchsorted(sorted_vs, edges)
        root_c = int(np.searchsorted(sorted_vs, g.seed))
        idom = lengauer_tarjan(k, edges_c, root_c)
        delta[sorted_vs] += subtree_sizes(idom, root_c)
    return delta


def decrease_es(
    g: LocalGraph,
    *,
    theta: int,
    seed: int = 0,
    blocked: np.ndarray | None = None,
    spark=None,
) -> np.ndarray:
    """Δ[u] — expected-spread decrease if ``u`` were blocked, ∀u at once.

    Returns an ``(n,)`` float array over local vertex ids. ``Δ[seed]`` is
    the estimated spread itself (root subtree = all reached vertices) and
    is ignored by callers. Blocked vertices get Δ = 0.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    if spark is None:
        return _delta_partition(g, blocked, seed, range(theta)) / theta
    bc = g.broadcast(spark)
    blocked_l = None if blocked is None else blocked.copy()
    master = seed

    def fn(batches):
        lg = bc.value
        delta = np.zeros(lg.n, dtype=np.float64)
        for pdf in batches:
            delta += _delta_partition(lg, blocked_l, master, pdf["id"].tolist())
        nz = np.nonzero(delta)[0]
        yield pd.DataFrame({"vertex": nz.astype(np.int64), "total": delta[nz]})

    out = (
        spark.range(0, int(theta), 1, spark.sparkContext.defaultParallelism)
        .mapInPandas(fn, "vertex long, total double")
        .toPandas()
    )
    delta = np.zeros(g.n, dtype=np.float64)
    if len(out):
        np.add.at(delta, out["vertex"].to_numpy(), out["total"].to_numpy())
    return delta / theta


def decrease_es_exact(
    g: LocalGraph, blocked: np.ndarray | None = None
) -> np.ndarray:
    """Exact Δ[·] by enumerating every sampled graph (tiny graphs only)."""
    delta = np.zeros(g.n, dtype=np.float64)
    for prob, edges in enumerate_sampled_graphs(g, blocked):
        idom = lengauer_tarjan(g.n, edges, g.seed)
        delta += prob * subtree_sizes(idom, g.seed)
    return delta
