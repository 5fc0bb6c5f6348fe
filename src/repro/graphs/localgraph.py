"""``LocalGraph``: immutable CSR snapshot of a probabilistic edge DataFrame.

The scaled evaluation graphs (≤ ~300k edges) fit on the driver — the unit of
*distribution* in this reproduction is the Monte-Carlo sample, not the edge
partition (DESIGN.md §3). ``LocalGraph`` is collected once per experiment,
and every per-sample kernel (sampling, dominator trees, reachability) runs
against it; ``repro.core.runner`` broadcasts it to executors.

Vertex ids are remapped to dense local ids ``0..n-1`` (the super-seed id is
negative at the DataFrame level); ``orig_ids`` maps back.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame


@dataclass(eq=False)
class LocalGraph:
    """CSR adjacency with per-edge propagation probabilities.

    Attributes:
        n: number of vertices (dense local ids ``0..n-1``).
        indptr: ``(n+1,)`` CSR row pointers over out-edges.
        indices: ``(m,)`` local ids of out-edge heads.
        probs: ``(m,)`` propagation probability of each out-edge.
        seed: local id of the (unified) seed vertex.
        orig_ids: ``(n,)`` original vertex id of each local id.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    probs: np.ndarray
    seed: int
    orig_ids: np.ndarray

    @property
    def m(self) -> int:
        return int(self.indices.shape[0])

    def to_local(self, orig: int) -> int:
        """Local id of an original vertex id (raises if absent)."""
        idx = np.nonzero(self.orig_ids == orig)[0]
        if idx.size == 0:
            raise KeyError(f"vertex {orig} not in graph")
        return int(idx[0])

    def out_edges(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(heads, probs) of the out-edges of local vertex ``u``."""
        a, b = self.indptr[u], self.indptr[u + 1]
        return self.indices[a:b], self.probs[a:b]

    def out_degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    @staticmethod
    def from_pandas(pdf: pd.DataFrame, seed_vertex: int) -> "LocalGraph":
        """Build from a pandas edge frame ``(src, dst, p)``.

        Raises ``ValueError`` if any ``p`` is NaN or outside ``[0, 1]``.
        """
        src = pdf["src"].to_numpy(dtype=np.int64)
        dst = pdf["dst"].to_numpy(dtype=np.int64)
        p = pdf["p"].to_numpy(dtype=np.float64)
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValueError("edge probabilities must lie in [0, 1]")
        verts = np.unique(np.concatenate([src, dst, [np.int64(seed_vertex)]]))
        lookup = {int(v): i for i, v in enumerate(verts)}
        s_loc = np.searchsorted(verts, src)
        d_loc = np.searchsorted(verts, dst)
        n = verts.shape[0]
        order = np.lexsort((d_loc, s_loc))
        s_loc, d_loc, p = s_loc[order], d_loc[order], p[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, s_loc + 1, 1)
        indptr = np.cumsum(indptr)
        return LocalGraph(
            n=n,
            indptr=indptr,
            indices=d_loc.astype(np.int64),
            probs=p,
            seed=lookup[int(seed_vertex)],
            orig_ids=verts,
        )

    @staticmethod
    def from_edges(edges: DataFrame, seed_vertex: int) -> "LocalGraph":
        """Collect a Spark edge DataFrame ``(src, dst, p)`` to a CSR."""
        return LocalGraph.from_pandas(edges.toPandas(), seed_vertex)
