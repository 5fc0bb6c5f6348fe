"""Algorithm 3 — AdvancedGreedy (AG).

The greedy framework of Algorithm 1, but each round's per-candidate spread
decreases come from *one* call to DecreaseESComputation (Algorithm 2):
θ sampled graphs, one dominator tree each, Δ for every candidate at once.
The paper's bound is O(b·θ·m·α(m,n)) vs the baseline's O(b·n·r·m) (§V-C),
with Lengauer-Tarjan dominator trees; the Cooper-Harvey-Kennedy sweeps used
here are quadratic per sample in the worst case (DESIGN.md §2).
"""
from __future__ import annotations

import numpy as np

from repro.core.decrease import decrease_es
from repro.graphs.localgraph import LocalGraph


def advanced_greedy(
    g: LocalGraph,
    b: int,
    *,
    theta: int = 1000,
    seed: int = 0,
    spark=None,
) -> list[int]:
    """AdvancedGreedy. Returns blocker *local ids* in selection order.

    Each round is one distributed DecreaseESComputation over θ samples;
    the blocker is the vertex with the maximum estimated spread decrease
    (ties -> smallest local id, via ``np.argmax``).
    """
    if b < 0:
        raise ValueError("b must be non-negative")
    blocked = np.zeros(g.n, dtype=bool)
    B: list[int] = []
    for rnd in range(min(b, g.n - 1)):
        delta = decrease_es(
            g, theta=theta, seed=seed * 7_919 + rnd, blocked=blocked, spark=spark
        )
        delta[g.seed] = -np.inf
        delta[blocked] = -np.inf
        x = int(np.argmax(delta))
        if not np.isfinite(delta[x]):
            break  # nothing selectable
        B.append(x)
        blocked[x] = True
    return B
