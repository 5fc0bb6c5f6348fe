"""Dominator trees: Cooper-Harvey-Kennedy sweeps + brute-force oracle.

The decrease of expected spread from blocking ``u`` in a sampled graph
equals the size of the subtree rooted at ``u`` in the dominator tree from
the seed (Theorem 6). This module provides:

* :func:`immediate_dominators` — Cooper, Harvey and Kennedy's iterative
  algorithm ("A Simple, Fast Dominance Algorithm", 2001) over BFS order
  from the root. The paper uses Lengauer-Tarjan [53]; immediate dominators
  are unique, so both give the same tree. Every dominator of ``v`` lies on
  the BFS-tree path to ``v``, so it precedes ``v`` in BFS order, and an
  intersection walks whichever finger has the later BFS position up the
  current tree. Sweeps repeat until nothing changes: quadratic in the
  worst case, 2-5 sweeps on the sampled graphs of the benchmark datasets.
  No recursion (sampled reachable subgraphs can be deep chains).
* :func:`subtree_sizes` — per-vertex dominator-subtree sizes.
* :func:`brute_force_idom` — definition-chasing oracle (u dominates v iff
  removing u disconnects v from the root), used by property tests.

Conventions: vertices ``0..n-1``; ``idom[root] == root``; vertices not
reachable from the root get ``idom == -1``.
"""
from __future__ import annotations

import numpy as np


def immediate_dominators(n: int, edges: np.ndarray, root: int) -> np.ndarray:
    """Immediate dominators w.r.t. ``root``, by Cooper-Harvey-Kennedy sweeps.

    ``edges``: ``(k, 2)`` over ids ``0..n-1``; duplicates and self-loops are
    allowed. ``idom[root] == root``; vertices unreachable from it get ``-1``.
    """
    src, dst = edges[:, 0], edges[:, 1]
    bounds = np.arange(n + 1)
    by_src, by_dst = np.argsort(src, kind="stable"), np.argsort(dst, kind="stable")
    succ, s_ptr = dst[by_src].tolist(), np.searchsorted(src[by_src], bounds).tolist()
    pred, p_ptr = src[by_dst].tolist(), np.searchsorted(dst[by_dst], bounds).tolist()

    # Every dominator of v lies on the BFS-tree path to v, so before v here.
    pos = [-1] * n  # -1 = unreachable from root
    pos[root] = 0
    order = [root]
    for v in order:
        for j in range(s_ptr[v], s_ptr[v + 1]):
            w = succ[j]
            if pos[w] < 0:
                pos[w] = len(order)
                order.append(w)

    idom = [-1] * n
    idom[root] = root
    changed = True
    while changed:
        changed = False
        for v in order[1:]:
            new = -1  # intersection of the predecessors assigned so far
            for j in range(p_ptr[v], p_ptr[v + 1]):
                u = pred[j]
                if idom[u] < 0:  # unreached, or not assigned yet this sweep
                    continue
                if new < 0:
                    new = u
                while u != new:  # walk the finger with the later position up
                    while pos[u] > pos[new]:
                        u = idom[u]
                    while pos[new] > pos[u]:
                        new = idom[new]
            if idom[v] != new:
                idom[v] = new
                changed = True
    return np.asarray(idom, dtype=np.int64)


# Old name, still imported by the benchmark's ``--trace 1`` layer replay
# (perfbench/run.py); it goes when that script next changes.
lengauer_tarjan = immediate_dominators


def subtree_sizes(idom: np.ndarray, root: int) -> np.ndarray:
    """Size of the dominator subtree rooted at each vertex.

    Unreachable vertices (``idom == -1``) get size 0; the root's size is
    the number of reachable vertices (i.e. ``σ(s, g)``, Lemma 1).
    """
    parent = idom.tolist()
    children: list[list[int]] = [[] for _ in parent]
    for v, d in enumerate(parent):
        if d >= 0 and v != root:
            children[d].append(v)
    # Preorder (parents before children), then accumulate in reverse.
    order = [root]
    for v in order:
        order.extend(children[v])
    sizes = [1 if d >= 0 else 0 for d in parent]
    for v in reversed(order[1:]):
        sizes[parent[v]] += sizes[v]
    return np.asarray(sizes, dtype=np.int64)


def brute_force_idom(n: int, edges: np.ndarray, root: int) -> np.ndarray:
    """Definition-chasing dominator oracle for small graphs (tests only).

    ``u`` dominates ``v`` iff ``v`` is reachable from ``root`` in the full
    graph but not when ``u`` is removed. The immediate dominator of ``v``
    is its strict dominator that is itself dominated by every other strict
    dominator of ``v`` (Definition 6) — equivalently the strict dominator
    with the largest dominator set.
    """
    from repro.core.sampling import reachable_from

    base = reachable_from(n, edges, root)
    doms: list[set[int]] = [set() for _ in range(n)]
    for v in range(n):
        if base[v]:
            doms[v].add(v)
    for u in range(n):
        if not base[u]:
            continue
        mask = edges[(edges[:, 0] != u) & (edges[:, 1] != u)]
        if u == root:
            reach = np.zeros(n, dtype=bool)
        else:
            reach = reachable_from(n, mask, root)
        for v in range(n):
            if base[v] and not reach[v] and v != u:
                doms[v].add(u)
    idom = np.full(n, -1, dtype=np.int64)
    idom[root] = root
    for v in range(n):
        if not base[v] or v == root:
            continue
        strict = doms[v] - {v}
        idom[v] = max(strict, key=lambda u: len(doms[u]))
    return idom
