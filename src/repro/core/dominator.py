"""Dominator trees: iterative Lengauer-Tarjan + brute-force oracle.

The decrease of expected spread from blocking ``u`` in a sampled graph
equals the size of the subtree rooted at ``u`` in the dominator tree from
the seed (Theorem 6). This module provides:

* :func:`lengauer_tarjan` — the simple O(m log n) Lengauer-Tarjan
  algorithm [53], fully iterative (no recursion; sampled reachable
  subgraphs can be deep chains).
* :func:`subtree_sizes` — per-vertex dominator-subtree sizes.
* :func:`brute_force_idom` — definition-chasing oracle (u dominates v iff
  removing u disconnects v from the root), used by property tests.

Conventions: vertices ``0..n-1``; ``idom[root] == root``; vertices not
reachable from the root get ``idom == -1``.
"""
from __future__ import annotations

import numpy as np


def _adjacency(n: int, edges: np.ndarray) -> tuple[list[list[int]], list[list[int]]]:
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    # Two flat int lists, not one list per edge row: fewer objects for the
    # cyclic garbage collector to track.
    for u, v in zip(edges[:, 0].tolist(), edges[:, 1].tolist()):
        succ[u].append(v)
        pred[v].append(u)
    return succ, pred


def lengauer_tarjan(n: int, edges: np.ndarray, root: int) -> np.ndarray:
    """Immediate dominators of every vertex w.r.t. ``root``.

    The state lives in Python lists, because indexing a numpy array with a
    scalar costs several times more per step.

    Args:
        n: vertex count (ids ``0..n-1``).
        edges: ``(k, 2)`` directed edge array (duplicates allowed).
        root: the source vertex (the seed).

    Returns:
        ``(n,)`` int array ``idom`` with ``idom[root] == root`` and
        ``idom[v] == -1`` for vertices unreachable from ``root``.
    """
    succ, pred = _adjacency(n, edges)

    semi = [0] * n              # 0 = unvisited; else DFS number
    vertex = [0] * (n + 1)      # DFS number -> vertex
    parent = [-1] * n           # DFS-tree parent
    ancestor = [-1] * n         # forest for EVAL/LINK
    label = list(range(n))
    dom = [-1] * n
    buckets: list[list[int]] = [[] for _ in range(n)]

    # --- step 1: iterative DFS numbering -------------------------------
    cnt = 1
    semi[root] = cnt
    vertex[cnt] = root
    stack = [(root, iter(succ[root]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if semi[w] == 0:
                parent[w] = v
                cnt += 1
                semi[w] = cnt
                vertex[cnt] = w
                stack.append((w, iter(succ[w])))
                break
        else:
            stack.pop()
    n_reached = cnt

    def evaluate(v: int) -> int:
        if ancestor[v] == -1:
            return v
        # Iterative path compression along the ancestor forest.
        path = []
        x = v
        while ancestor[ancestor[x]] != -1:
            path.append(x)
            x = ancestor[x]
        for u in reversed(path):
            a = ancestor[u]
            if semi[label[a]] < semi[label[u]]:
                label[u] = label[a]
            ancestor[u] = ancestor[a]
        return label[v]

    # --- steps 2 & 3: semidominators and partial dominators ------------
    for i in range(n_reached, 1, -1):
        w = vertex[i]
        sw = semi[w]
        for v in pred[w]:
            if semi[v] == 0:  # predecessor unreachable from root
                continue
            su = semi[evaluate(v)]
            if su < sw:
                sw = su
        semi[w] = sw
        buckets[vertex[sw]].append(w)
        p = parent[w]
        ancestor[w] = p  # LINK(parent[w], w)
        for v in buckets[p]:
            u = evaluate(v)
            dom[v] = u if semi[u] < semi[v] else p
        buckets[p].clear()

    # --- step 4: finalize in DFS order ---------------------------------
    for i in range(2, n_reached + 1):
        w = vertex[i]
        if dom[w] != vertex[semi[w]]:
            dom[w] = dom[dom[w]]
    dom[root] = root
    return np.asarray(dom, dtype=np.int64)


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
