"""Algorithm 4 — GreedyReplace (GR).

Phase 1: greedily pick ``min(d_out(s), b)`` blockers restricted to the
seed's out-neighbors (the "OutNeighbors" heuristic of Example 3).
Phase 2: walk the phase-1 blockers in reverse insertion order; remove one,
recompute Δ for *all* vertices (Algorithm 2), and re-insert the global
argmax — early-terminating the whole replacement loop as soon as the best
replacement is the vertex just removed (Alg. 4 lines 18-20).

``replace=False`` yields the plain OutNeighbors heuristic, used by
Table III to show why replacement is needed.
"""
from __future__ import annotations

import numpy as np

from repro.core.decrease import decrease_es
from repro.graphs.localgraph import LocalGraph


def phase1_out_neighbors(
    g: LocalGraph,
    b: int,
    *,
    theta: int = 1000,
    seed: int = 0,
    spark=None,
) -> list[int]:
    """Phase 1 of Algorithm 4: greedy selection restricted to N_out(s).

    The selection is prefix-structured (round i depends only on rounds
    < i), so a run at budget ``b_max`` can be truncated to serve any
    smaller budget — Table VII's harness exploits this.
    """
    s = g.seed
    heads, _ = g.out_edges(s)
    cb = set(int(h) for h in np.unique(heads) if int(h) != s)
    blocked = np.zeros(g.n, dtype=bool)
    B: list[int] = []
    for rnd in range(min(len(cb), b)):
        delta = decrease_es(
            g, theta=theta, seed=seed * 104_729 + rnd, blocked=blocked, spark=spark
        )
        x = min(cb, key=lambda u: (-delta[u], u))
        cb.remove(x)
        B.append(x)
        blocked[x] = True
    return B


def greedy_replace(
    g: LocalGraph,
    b: int,
    *,
    theta: int = 1000,
    seed: int = 0,
    spark=None,
    replace: bool = True,
    phase1_order: list[int] | None = None,
) -> list[int]:
    """GreedyReplace. Returns blocker *local ids* in final order.

    ``phase1_order`` optionally supplies a precomputed (longer) phase-1
    selection sequence with the same ``(theta, seed)``; its first
    ``min(d_out(s), b)`` entries are used verbatim.
    """
    if b < 0:
        raise ValueError("b must be non-negative")
    s = g.seed
    if phase1_order is None:
        B = phase1_out_neighbors(g, b, theta=theta, seed=seed, spark=spark)
    else:
        d_out = np.unique(g.out_edges(s)[0])
        rounds = min(int((d_out != s).sum()), b)
        B = [int(u) for u in phase1_order[:rounds]]
    blocked = np.zeros(g.n, dtype=bool)
    blocked[B] = True
    if not replace:
        return B
    # --- phase 2: reverse-order replacement -----------------------------
    for i, u in enumerate(reversed(list(B))):
        blocked[u] = False
        B.remove(u)
        delta = decrease_es(
            g,
            theta=theta,
            seed=seed * 1_299_709 + i,
            blocked=blocked,
            spark=spark,
        )
        delta[s] = -np.inf
        delta[blocked] = -np.inf
        x = int(np.argmax(delta))
        B.append(x)
        blocked[x] = True
        if x == u:
            break  # current blocker is already the best -> early terminate
    return B
