"""Algorithm 2 — DecreaseESComputation, distributed over sample ids.

For each of θ sampled graphs: build the sampled reachable subgraph (lazy
BFS), its dominator tree from the seed (Cooper-Harvey-Kennedy sweeps; the
paper uses Lengauer-Tarjan, which gives the same tree) and the subtree
size of every vertex; the average subtree size over samples estimates the
decrease of expected spread caused by blocking that vertex (Theorems 4-6).

The θ samples run through :func:`repro.core.runner.map_sum`, which starts
on the driver and sends the remaining samples to one Spark job once the
predicted driver time left outweighs the job's cost; per-sample subtree
sizes are integers, so Δ is the same bit for bit wherever the split falls.

``decrease_es_exact`` enumerates all sampled graphs (tiny graphs only) and
reproduces Example 2 exactly: Δ(v5) = 4.66, Δ(v9) = 1.11, Δ(v8) = 0.66.
"""
from __future__ import annotations

import numpy as np

from repro.core.dominator import immediate_dominators, subtree_sizes
from repro.core.runner import map_sum
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
        idom = immediate_dominators(k, edges_c, root_c)
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

    def kernel(lg, ids):
        return _delta_partition(lg, blocked, seed, ids)

    return map_sum(kernel, theta, g=g, spark=spark) / theta


def decrease_es_exact(
    g: LocalGraph, blocked: np.ndarray | None = None
) -> np.ndarray:
    """Exact Δ[·] by enumerating every sampled graph (tiny graphs only)."""
    delta = np.zeros(g.n, dtype=np.float64)
    for prob, edges in enumerate_sampled_graphs(g, blocked):
        idom = immediate_dominators(g.n, edges, g.seed)
        delta += prob * subtree_sizes(idom, g.seed)
    return delta
