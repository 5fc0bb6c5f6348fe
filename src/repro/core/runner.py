"""One way to run a per-id kernel, on the driver or as one Spark job.

Every Monte-Carlo loop of the paper sums a kernel over ids ``0..count-1``:
θ dominator-subtree vectors (Algorithm 2), r reach sizes (Lemma 1), one MCS
per BG candidate (Algorithm 1), one shared-sample spread per Exact
combination. A kernel ``kernel(g, ids) -> (width,) float64`` returns the
sum of its ids' contributions.

With ``spark`` given, the graph goes out through the cached
``LocalGraph.broadcast``, ``spark.range(0, count, 1, defaultParallelism)``
partitions the ids, each partition emits its non-zero ``(i, v)`` rows and
the driver adds them up. Every kernel here either sums integers or writes
each index from exactly one id, so both paths agree bit for bit.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def map_sum(kernel, count: int, width: int, *, g, spark=None) -> np.ndarray:
    """Sum of ``kernel(g, ids)`` over ids ``0..count-1``, a ``(width,)`` array."""
    if spark is None:
        return np.asarray(kernel(g, range(count)), dtype=np.float64)
    bc = g.broadcast(spark)

    def fn(batches):
        lg = bc.value
        acc = np.zeros(width, dtype=np.float64)
        for pdf in batches:
            acc += kernel(lg, pdf["id"].tolist())
        nz = np.nonzero(acc)[0]
        yield pd.DataFrame({"i": nz.astype(np.int64), "v": acc[nz]})

    out = (
        spark.range(0, int(count), 1, spark.sparkContext.defaultParallelism)
        .mapInPandas(fn, "i long, v double")
        .toPandas()
    )
    total = np.zeros(width, dtype=np.float64)
    np.add.at(total, out["i"].to_numpy(), out["v"].to_numpy())
    return total
