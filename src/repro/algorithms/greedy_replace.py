"""Algorithm 4 — GreedyReplace (GR).

Phase 1: greedily pick ``min(d_out(s), b)`` blockers restricted to the
seed's out-neighbors (the "OutNeighbors" heuristic of Example 3), through
the shared loop :func:`repro.algorithms.baseline.greedy`.
Phase 2: walk the phase-1 blockers in reverse insertion order; remove one,
recompute Δ for *all* vertices (Algorithm 2), and re-insert the global
argmax — early-terminating the whole replacement loop as soon as the best
replacement is the vertex just removed (Alg. 4 lines 18-20). A removed
blocker whose Δ ties the argmax is kept, so an all-zero Δ never swaps a
real blocker for the smallest vertex id.

Table III's OutNeighbors row is phase 1 alone (:func:`phase1_out_neighbors`);
Table VII runs phase 1 once at its largest budget and :func:`replace_blockers`
on each prefix.
"""
from __future__ import annotations

import numpy as np

from repro.algorithms.baseline import greedy
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
    """Phase 1 of Algorithm 4: :func:`greedy` with the pool N_out(s) \\ {s}.

    The selection is prefix-structured (round i depends only on rounds
    < i), so a run at budget ``b_max`` can be truncated to serve any
    smaller budget — Table VII's harness exploits this.
    """

    def score(rnd, blocked, left):
        delta = decrease_es(
            g, theta=theta, seed=seed * 104_729 + rnd, blocked=blocked, spark=spark
        )
        return delta[left]

    heads, _ = g.out_edges(g.seed)
    return greedy(g, b, heads[heads != g.seed], score)


def replace_blockers(
    g: LocalGraph,
    B: list[int],
    *,
    theta: int,
    seed: int,
    spark=None,
) -> list[int]:
    """Phase 2 of Algorithm 4 on the phase-1 blockers ``B`` (local ids).

    Returns a new list; ``B`` is not modified.
    """
    s = g.seed
    B = [int(u) for u in B]
    blocked = np.zeros(g.n, dtype=bool)
    blocked[B] = True
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
        if delta[u] >= delta[x]:
            x = u  # ties (an all-zero Δ too) keep the incumbent
        B.append(x)
        blocked[x] = True
        if x == u:
            break  # current blocker is already the best -> early terminate
    return B


def greedy_replace(
    g: LocalGraph,
    b: int,
    *,
    theta: int = 1000,
    seed: int = 0,
    spark=None,
) -> list[int]:
    """GreedyReplace: phase 1, then phase 2 on its blockers (local ids)."""
    B = phase1_out_neighbors(g, b, theta=theta, seed=seed, spark=spark)
    return replace_blockers(g, B, theta=theta, seed=seed, spark=spark)
