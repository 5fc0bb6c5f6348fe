"""Synthetic social-graph generators (numpy, deterministic in ``seed``).

The paper evaluates on 8 SNAP graphs which are not available offline, so we
generate power-law graphs matched to each dataset's size and degree shape
(see ``repro.graphs.datasets`` and DESIGN.md §5.1). The generator uses
Zipf-weighted endpoint sampling: both endpoints of each edge are drawn from
independent Zipf-like rank distributions over two independently permuted
vertex orders, which yields heavy-tailed in- and out-degree distributions
with hubs, no self-loops and no duplicate edges.
"""
from __future__ import annotations

import numpy as np


#: Sampling rounds after which ``powerlaw_edges`` returns the edges found.
MAX_ROUNDS = 60


def _zipf_weights(n: int, alpha: float) -> np.ndarray:
    """Normalized Zipf(alpha) weights over ranks 1..n."""
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** alpha
    return w / w.sum()


def powerlaw_edges(
    n: int,
    m: int,
    *,
    alpha: float = 0.8,
    directed: bool = True,
    seed: int = 0,
) -> np.ndarray:
    """Generate a simple directed edge list with heavy-tailed degrees.

    Returns an ``(m', 2)`` int64 array of distinct ``(src, dst)`` edges with
    ``src != dst`` and ``m' == m`` (barring pathological parameters where
    fewer than ``m`` distinct edges exist; then as many as found).

    For ``directed=False`` the result contains both orientations of each
    undirected edge, i.e. ``m`` counts *undirected* edges and the returned
    array has ``2*m`` rows — matching SNAP convention where Table IV's ``m``
    for undirected graphs counts undirected edges.

    ``alpha`` controls degree skew (0 = uniform; ~1 = strongly hub-skewed).
    """
    if n < 2:
        raise ValueError("need at least 2 vertices")
    n_pairs = m
    limit = n * (n - 1) if directed else n * (n - 1) // 2
    if n_pairs > limit:
        raise ValueError(f"m={m} exceeds simple-graph limit {limit}")
    rng = np.random.default_rng((seed, n, m))
    # Independent permutations so in-hubs and out-hubs are distinct vertices.
    perm_src = rng.permutation(n)
    perm_dst = rng.permutation(n)
    w = _zipf_weights(n, alpha)
    seen: np.ndarray = np.empty(0, dtype=np.int64)
    need = n_pairs
    chunks: list[np.ndarray] = []
    for _ in range(MAX_ROUNDS):
        k = int(need * 1.6) + 16
        src = perm_src[rng.choice(n, size=k, p=w)]
        dst = perm_dst[rng.choice(n, size=k, p=w)]
        ok = src != dst
        src, dst = src[ok], dst[ok]
        if not directed:
            # canonical order so (u,v) and (v,u) dedupe together
            lo = np.minimum(src, dst)
            hi = np.maximum(src, dst)
            src, dst = lo, hi
        code = src * np.int64(n) + dst
        code = np.unique(code)
        new = np.setdiff1d(code, seen, assume_unique=True)
        if new.size:
            take = new[: need]
            chunks.append(take)
            seen = np.union1d(seen, take)
            need -= take.size
        if need <= 0:
            break
    codes = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    src = codes // n
    dst = codes % n
    edges = np.stack([src, dst], axis=1)
    if not directed:
        edges = np.concatenate([edges, edges[:, ::-1]], axis=0)
    return edges.astype(np.int64)


def degree_stats(edges: np.ndarray, n: int) -> dict:
    """``n, m, d_avg, d_max`` as reported in Table IV.

    ``d_avg``/``d_max`` use total degree (in + out) per the paper. ``m`` is
    the number of *rows* in ``edges`` (directed edge count); for undirected
    graphs callers should halve it to match SNAP convention.
    """
    deg = np.bincount(edges[:, 0], minlength=n) + np.bincount(
        edges[:, 1], minlength=n
    )
    return {
        "n": int(n),
        "m": int(edges.shape[0]),
        "d_avg": float(deg.mean()),
        "d_max": int(deg.max()),
    }
