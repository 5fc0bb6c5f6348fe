"""Algorithm 3 — AdvancedGreedy (AG).

The greedy framework of Algorithm 1, run by the shared loop
:func:`repro.algorithms.baseline.greedy`, but each round's per-candidate
spread decreases come from *one* call to DecreaseESComputation (Algorithm 2):
θ sampled graphs, one dominator tree each, Δ for every candidate at once.
The paper's bound is O(b·θ·m·α(m,n)) vs the baseline's O(b·n·r·m) (§V-C),
with Lengauer-Tarjan dominator trees; the Cooper-Harvey-Kennedy sweeps used
here are quadratic per sample in the worst case (DESIGN.md §2).
"""
from __future__ import annotations

from repro.algorithms.baseline import greedy
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
    """AdvancedGreedy on :func:`greedy`. Returns blocker *local ids* in order.

    The pool is every non-seed vertex. Each round's score is one
    DecreaseESComputation over θ samples: on the driver, with the remaining
    samples sent to one Spark job once that job pays for itself.
    """

    def score(rnd, blocked, left):
        delta = decrease_es(
            g, theta=theta, seed=seed * 7_919 + rnd, blocked=blocked, spark=spark
        )
        return delta[left]

    return greedy(g, b, None, score)
