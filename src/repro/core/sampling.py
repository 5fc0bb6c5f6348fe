"""Sampled-graph generation (Definition 4) via lazy reachable-subgraph BFS.

A random sampled graph keeps each edge ``(u, v)`` with probability
``p(u, v)``. Everything the algorithms need from a sample — ``σ(s, g)``
(Lemma 1) and the dominator tree from the seed (Theorem 6) — depends only
on the subgraph *induced by the vertices reachable from the seed*. That
subgraph is fully determined by sampling the out-edges of reached vertices
only, so we sample lazily during the BFS: edges out of never-reached
vertices are never drawn. This is why the cost per sample tracks the
spread, which the paper leans on in §VI-C ("the running time of Algorithm 2
is highly related to the size of sampled graphs").

The BFS runs level by level, one coin batch per level; the order in which
coins are drawn (the draw-order contract in :func:`sample_reachable`) is
what makes a ``(seed, sample_id)`` stream reproducible.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.localgraph import LocalGraph


def sample_reachable(
    g: LocalGraph,
    rng: np.random.Generator,
    blocked: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One sampled graph, restricted to vertices reachable from the seed.

    The BFS is level-synchronous: each level gathers every out-edge of its
    frontier from the CSR and flips all their coins with one
    ``rng.random(total)`` call.

    Draw-order contract: coins are drawn level by level; within a level in
    frontier order, and within a frontier vertex in CSR order. Every
    out-edge of a reached vertex consumes one draw, including edges into
    blocked or already-reached vertices. A float64 ``Generator.random``
    call does not buffer, so one call of size ``total`` returns the same
    numbers as one call per frontier vertex; the output is a function of
    this order only and is fixed for a ``(seed, sample_id)`` stream.

    Args:
        g: the graph (CSR).
        rng: per-sample random generator.
        blocked: optional ``(n,)`` bool mask of blocked vertices; edges into
            blocked vertices are dropped (Definition 2). The seed must not
            be blocked.

    Returns:
        ``(vertices, edges)``: reached vertex ids (seed first, BFS order)
        and the sampled edges among them as an ``(k, 2)`` array. Both use
        the graph's local ids. Within a level, new vertices are ordered by
        the first frontier position that reached them, then by id; edges
        follow the draw order. Every sampled edge whose endpoints are both
        reached is included (parallel paths matter for dominators).
    """
    seed = g.seed
    if blocked is not None and blocked[seed]:
        raise ValueError("seed cannot be blocked")
    indptr, indices, probs = g.indptr, g.indices, g.probs
    reached = np.zeros(g.n, dtype=bool)
    reached[seed] = True
    frontier = np.array([seed], dtype=np.int64)
    levels = [frontier]
    edges_src: list[np.ndarray] = []
    edges_dst: list[np.ndarray] = []
    while frontier.size:
        starts = indptr[frontier]
        degs = indptr[frontier + 1] - starts
        total = int(degs.sum())
        # CSR positions of the frontier's out-edges, frontier by frontier.
        pos = np.arange(total) + np.repeat(starts - (np.cumsum(degs) - degs), degs)
        heads = indices[pos]
        keep = rng.random(total) < probs[pos]
        if blocked is not None:
            keep &= ~blocked[heads]
        tail_pos = np.repeat(np.arange(frontier.size), degs)[keep]
        heads = heads[keep]
        edges_src.append(frontier[tail_pos])
        edges_dst.append(heads)
        new = ~reached[heads]
        # First occurrence of each new vertex = first frontier vertex to reach it.
        fresh, first = np.unique(heads[new], return_index=True)
        frontier = fresh[np.lexsort((fresh, tail_pos[new][first]))]
        reached[frontier] = True
        levels.append(frontier)
    verts = np.concatenate(levels)
    edges = np.stack([np.concatenate(edges_src), np.concatenate(edges_dst)], axis=1)
    return verts, edges


def sample_full(g: LocalGraph, rng: np.random.Generator) -> np.ndarray:
    """Sample *every* edge of the graph (reference implementation).

    Returns the kept edges as an ``(k, 2)`` array of local ids. Used by
    tests to validate that lazy sampling yields the same reachable
    subgraph distribution; algorithms use :func:`sample_reachable`.
    """
    keep = rng.random(g.m) < g.probs
    src = np.repeat(np.arange(g.n), np.diff(g.indptr))
    return np.stack([src[keep], g.indices[keep]], axis=1)


def reachable_from(n: int, edges: np.ndarray, root: int) -> np.ndarray:
    """Bool mask of vertices reachable from ``root`` over ``edges``."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[int(u)].append(int(v))
    seen = np.zeros(n, dtype=bool)
    seen[root] = True
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


def sample_rng(master_seed: int, sample_id: int) -> np.random.Generator:
    """The canonical per-sample generator: deterministic in both keys."""
    return np.random.default_rng((master_seed, sample_id))
