"""Workload construction shared by all table harnesses.

A *workload* is: a named dataset rendered synthetic at some scale, a
propagation model (TR/WC), a random seed set, and the merged single-seed
``LocalGraph`` the algorithms run on (paper §V "From Multiple Seeds to One
Seed"). Expected spreads are reported for the *original* seed set:
``E(S, ·) = (|S| - 1) + E({s'}, ·)`` since every seed is active at t=0 and
σ counts the unified seed once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.spread import mcs_spread
from repro.graphs.datasets import DATASETS, load
from repro.graphs.localgraph import LocalGraph
from repro.graphs.propagation import assign_tr, assign_wc
from repro.graphs.transform import SUPER_SEED, merge_seeds


@dataclass
class Workload:
    """One (dataset, model, seed-set) evaluation instance."""

    dataset: str
    model: str                  # "TR" | "WC"
    n_vertices: int             # vertex-id space of the synthetic dataset
    edges: DataFrame            # (src, dst, p) — original, unmerged
    seeds: list[int]            # original seed vertex ids
    graph: LocalGraph           # merged single-seed graph (seed = s')

    def to_blocked_mask(self, blockers_orig: list[int]) -> np.ndarray:
        """Bool mask over local ids; ids absent from the merged graph
        (unreachable, hence irrelevant) and the seed are skipped."""
        mask = np.isin(self.graph.orig_ids, blockers_orig)
        mask[self.graph.seed] = False
        return mask

    def eval_spread(
        self,
        blockers_orig: list[int],
        *,
        r: int,
        seed: int = 0,
        spark: SparkSession | None = None,
    ) -> float:
        """MCS estimate of E(S, G[V \\ B]) for original-id blockers."""
        sigma = mcs_spread(
            self.graph,
            r=r,
            seed=seed,
            blocked=self.to_blocked_mask(blockers_orig),
            spark=spark,
        )
        return (len(self.seeds) - 1) + sigma


def assign_model(edges: DataFrame, model: str, *, seed: int = 0) -> DataFrame:
    """Apply a named propagation model to an edge DataFrame."""
    if model == "TR":
        return assign_tr(edges, seed=seed)
    if model == "WC":
        return assign_wc(edges)
    raise ValueError(f"unknown model {model!r} (expected 'TR' or 'WC')")


def pick_seeds(n_vertices: int, n_seeds: int, *, seed: int = 0) -> list[int]:
    """``n_seeds`` distinct random vertices (paper: 10 random seeds)."""
    rng = np.random.default_rng((seed, 0x5EED))
    k = min(n_seeds, n_vertices)
    return sorted(rng.choice(n_vertices, size=k, replace=False).tolist())


def build_workload(
    spark: SparkSession,
    dataset: str,
    model: str,
    *,
    scale: float | None = None,
    n_seeds: int = 10,
    seed: int = 0,
) -> Workload:
    """Generate a dataset, assign probabilities, pick + merge seeds."""
    spec = DATASETS[dataset]
    n, _ = spec.scaled(scale)
    edges = assign_model(
        load(spark, dataset, scale=scale, seed=seed), model, seed=seed
    )
    seeds = pick_seeds(n, n_seeds, seed=seed)
    merged = merge_seeds(edges, seeds)
    graph = LocalGraph.from_edges(merged, SUPER_SEED)
    return Workload(
        dataset=dataset,
        model=model,
        n_vertices=n,
        edges=edges,
        seeds=seeds,
        graph=graph,
    )
