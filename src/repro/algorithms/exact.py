"""The Exact algorithm: exhaustive search over all blocker combinations.

Paper §VI-A: "Exact identifies the optimal solution by searching all
possible combinations of b blockers, and uses Monte-Carlo Simulations with
r = 10000 to compute the expected spread of each candidate set." We follow
that design with two substitutions (DESIGN.md §5.3):

* all combinations are scored on the *same* θ pre-sampled graphs (common
  random numbers), so combination ranking is noise-consistent, and GR's
  result can be scored on the same samples for a like-for-like ratio;
* reachability per (combination × sample) is vectorized: the θ sampled
  adjacency matrices form a ``(θ, n, n)`` tensor and frontier expansion is
  a batched matmul across all samples at once.

Combination ``i`` is scored at index ``i`` by one kernel run through
:func:`repro.core.runner.map_sum`, which starts on the driver and sends the
remaining combinations to one Spark job once that job pays for itself (the
presampled tensor travels in the kernel's closure). Exponential in ``b`` —
small graphs only (Tables V/VI).
"""
from __future__ import annotations

import itertools

import numpy as np

from repro.core.runner import map_sum
from repro.core.sampling import sample_full, sample_rng
from repro.graphs.localgraph import LocalGraph

#: Refuse to enumerate more combinations than this (safety valve).
MAX_COMBOS = 200_000


def presample_adjacency(
    g: LocalGraph, *, theta: int, seed: int = 0
) -> np.ndarray:
    """θ sampled graphs as a ``(θ, n, n)`` float32 adjacency tensor."""
    A = np.zeros((theta, g.n, g.n), dtype=np.float32)
    for i in range(theta):
        edges = sample_full(g, sample_rng(seed, i))
        if edges.shape[0]:
            A[i, edges[:, 0], edges[:, 1]] = 1.0
    return A


def shared_sample_spread(
    A: np.ndarray, seed_vertex: int, blocked: list[int]
) -> float:
    """Mean σ(s, g) over the pre-sampled graphs with ``blocked`` removed."""
    theta, n, _ = A.shape
    R = np.zeros((theta, 1, n), dtype=np.float32)
    R[:, 0, seed_vertex] = 1.0
    bl = np.asarray(sorted(set(blocked)), dtype=np.int64)
    for _ in range(n):
        Rn = ((np.matmul(R, A) + R) > 0).astype(np.float32)
        if bl.size:
            Rn[:, :, bl] = 0.0
        if np.array_equal(Rn, R):
            break
        R = Rn
    return float(R.sum() / theta)


def exact_blockers(
    g: LocalGraph,
    b: int,
    *,
    theta: int = 300,
    seed: int = 0,
    spark=None,
) -> tuple[list[int], float]:
    """Optimal blocker set of size ≤ b under the shared-sample estimator.

    The candidates are every non-seed vertex. Returns
    ``(blockers_local_ids, spread_estimate)``. Ties are broken by
    lexicographically smallest combination (deterministic). Because the
    spread function is monotone in B, only combinations of exactly
    ``min(b, n - 1)`` vertices need to be scored.
    """
    if b < 0:
        raise ValueError("b must be non-negative")
    if theta <= 0:
        raise ValueError("theta must be positive")
    cands = [u for u in range(g.n) if u != g.seed]
    k = min(b, len(cands))
    combos = list(itertools.combinations(cands, k))
    if len(combos) > MAX_COMBOS:
        raise ValueError(f"{len(combos)} combinations > {MAX_COMBOS}")
    A = presample_adjacency(g, theta=theta, seed=seed)

    def kernel(lg, ids):
        out = np.zeros(len(combos), dtype=np.float64)
        for i in ids:
            out[i] = shared_sample_spread(A, lg.seed, list(combos[i]))
        return out

    spreads = map_sum(kernel, len(combos), g=g, spark=spark)
    best = min(range(len(combos)), key=lambda i: (spreads[i], combos[i]))
    return list(combos[best]), float(spreads[best])
