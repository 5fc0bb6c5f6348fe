"""Pure-DataFrame (Catalyst) iterative spread computation.

This is the "iterative spread computation over a partitioned graph"
dataflow: all θ sampled graphs are materialized as one
``(sample, src, dst)`` DataFrame via deterministic hash-based edge
sampling, and reachability from the seed is computed for *all samples
simultaneously* by iterative frontier joins (shuffle joins — broadcast
joins are disabled in conftest). It cross-validates the per-sample kernel
path (`repro.core.spread.mcs_spread`) and, on deterministic graphs
(p ∈ {0, 1}), is checked row-for-row against a DuckDB recursive-CTE
oracle.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

#: Resolution of the hash→[0,1) uniform used for edge sampling.
_HASH_BUCKETS = 1 << 24


def sampled_edges_df(
    spark: SparkSession, edges: DataFrame, *, theta: int, seed: int = 0
) -> DataFrame:
    """θ sampled graphs as one ``(sample, src, dst)`` DataFrame.

    Edge ``(u, v)`` is kept in sample ``i`` iff
    ``uniform_hash(i, u, v, seed) < p(u, v)`` — deterministic, so the same
    call always yields the same sampled graphs.
    """
    samples = spark.range(int(theta)).select(F.col("id").alias("sample"))
    u = (
        F.pmod(F.xxhash64("sample", "src", "dst", F.lit(seed)), F.lit(_HASH_BUCKETS))
        / F.lit(float(_HASH_BUCKETS))
    )
    return (
        samples.crossJoin(edges)
        .where(u < F.col("p"))
        .select("sample", "src", "dst")
    )


def reachable_df(
    spark: SparkSession,
    sampled: DataFrame,
    seed_vertex: int,
    *,
    theta: int,
    max_iters: int = 10_000,
) -> DataFrame:
    """``(sample, v)`` — vertices reachable from the seed, per sample."""
    reached = spark.range(int(theta)).select(
        F.col("id").alias("sample"), F.lit(int(seed_vertex)).alias("v")
    )
    frontier = reached
    sampled = sampled.persist()
    reached = reached.localCheckpoint()
    for it in range(max_iters):
        # Rename frontier columns pre-join: after the first iteration the
        # frontier derives from `sampled`, so qualified references would be
        # ambiguous self-join columns.
        f = frontier.select(
            F.col("sample").alias("_fs"), F.col("v").alias("_fv")
        )
        nxt = (
            f.join(
                sampled,
                on=[f["_fs"] == sampled["sample"], f["_fv"] == sampled["src"]],
            )
            .select("sample", F.col("dst").alias("v"))
            .distinct()
            .join(reached, on=["sample", "v"], how="left_anti")
            .localCheckpoint()  # truncate lineage every iteration
        )
        if nxt.isEmpty():
            break
        reached = reached.unionByName(nxt).localCheckpoint()
        frontier = nxt
    sampled.unpersist()
    return reached


def spread_df(
    spark: SparkSession,
    edges: DataFrame,
    seed_vertex: int,
    *,
    theta: int,
    seed: int = 0,
) -> float:
    """Mean σ(s, g) over θ hash-sampled graphs — the Catalyst MCS path."""
    sampled = sampled_edges_df(spark, edges, theta=theta, seed=seed)
    reached = reachable_df(spark, sampled, seed_vertex, theta=theta)
    total = reached.count()
    return total / theta
