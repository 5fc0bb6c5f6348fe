"""Graph transformation: multi-seed merging.

``merge_seeds`` is DataFrame→DataFrame (Catalyst); the driver-side CSR
snapshot lives in ``repro.graphs.localgraph``. Blocking is not a graph
transformation here: the per-sample kernels take a ``blocked`` mask
(``repro.core.sampling.sample_reachable``).
"""
from __future__ import annotations

from collections.abc import Iterable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

#: Vertex id used for the unified super-seed s' (paper §V preamble).
#: Negative so it can never collide with generated vertex ids (>= 0).
SUPER_SEED = -1


def merge_seeds(edges: DataFrame, seeds: Iterable[int]) -> DataFrame:
    """Replace all seeds with the unified seed ``SUPER_SEED`` (paper §V).

    For each vertex ``u`` pointed to by ``h`` seeds with probabilities
    ``p_1..p_h``, the seed edges are replaced by one edge
    ``(SUPER_SEED, u)`` with ``p' = 1 - prod(1 - p_i)``. Edges *into* seeds
    are dropped (seeds are active from t=0; their activation probability is
    fixed at 1), as are seed-to-seed edges. Non-seed edges are unchanged.

    The transformation preserves the influence spread over non-seed
    vertices because an active vertex gets exactly one independent chance
    to activate each out-neighbour (paper §V).
    """
    seed_list = [int(s) for s in seeds]
    seed_col = F.array(*[F.lit(s) for s in seed_list])
    is_seed_src = F.array_contains(seed_col, F.col("src"))
    is_seed_dst = F.array_contains(seed_col, F.col("dst"))

    non_seed = edges.where(~is_seed_src & ~is_seed_dst)
    from_seed = edges.where(is_seed_src & ~is_seed_dst)
    # p' = 1 - prod(1 - p_i); Spark has no product aggregate, so use
    # exp(sum(log(1-p))) guarded for p == 1 (log(0) -> null in Spark SQL).
    merged = (
        from_seed.groupBy("dst")
        .agg(
            F.max("p").alias("_pmax"),
            F.sum(F.log(F.lit(1.0) - F.col("p"))).alias("_logsum"),
        )
        .select(
            F.lit(SUPER_SEED).alias("src"),
            "dst",
            F.when(F.col("_pmax") >= 1.0, F.lit(1.0))
            .otherwise(F.lit(1.0) - F.exp(F.col("_logsum")))
            .alias("p"),
        )
    )
    return non_seed.select("src", "dst", "p").unionByName(merged)
