"""One way to run a per-id kernel: on the driver, and on Spark once a job pays.

Every Monte-Carlo loop of the paper sums a kernel over ids ``0..count-1``:
θ dominator-subtree vectors (Algorithm 2), r reach sizes (Lemma 1), one MCS
per BG candidate (Algorithm 1), one shared-sample spread per Exact
combination. A kernel ``kernel(g, ids) -> (width,) float64`` returns the
sum of its ids' contributions; the first chunk's result fixes ``width``.

With ``spark`` given, ``map_sum`` starts on the driver with chunks of 1, 2,
4, … ids and after each chunk predicts the driver time left,
``rest = elapsed / done * (count - done)``. On ``P = defaultParallelism``
cores one job takes about ``J + rest / P``, where ``J`` is the measured time
of an empty job, so once ``rest * (P - 1) / P > J`` the remaining ids go to
one Spark job: ``spark.range(done, count, 1, P)`` partitions them, the graph
goes out as one broadcast per graph and SparkContext, cached here, each
partition emits its non-zero ``(i, v)`` rows and the driver adds them up.
With ``P = 1`` no id goes to Spark. Every kernel here either sums integers or writes each
index from exactly one id, so the result is the same bit for bit wherever
the split falls.
"""
from __future__ import annotations

import time
import weakref

import numpy as np
import pandas as pd

#: Seconds of one empty Spark job per SparkContext, measured on first use.
_JOB_S: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
#: Per SparkContext, the broadcast of each graph, made on first use and kept
#: while the graph lives. A broadcast is only valid on the context that made it.
_BC: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def map_sum(kernel, count: int, *, g, spark=None) -> np.ndarray:
    """Sum of ``kernel(g, ids)`` over ids ``0..count-1``, a ``(width,)`` array."""
    if spark is None:
        return np.asarray(kernel(g, range(count)), dtype=np.float64)
    par = spark.sparkContext.defaultParallelism
    done, t0 = min(count, 1), time.perf_counter()
    total = np.array(kernel(g, range(done)), dtype=np.float64)
    while done < count:
        rest = (time.perf_counter() - t0) / done * (count - done)
        if par > 1 and rest * (par - 1) / par > _job_s(spark):
            return total + _spark_sum(kernel, done, count, total.size, g=g, spark=spark)
        hi = min(2 * done + 1, count)  # chunks of 1, 2, 4, ... ids
        total += kernel(g, range(done, hi))
        done = hi
    return total


def _job_s(spark) -> float:
    """Wall time of an empty ``range(P) -> mapInPandas`` job, cached per context.

    The fastest of three runs, so that one-off start-up work (Python worker
    spawn, code generation) is not taken for the cost of every job.
    """
    sc = spark.sparkContext
    if sc not in _JOB_S:

        def passthrough(batches):
            yield from batches

        par = sc.defaultParallelism
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            spark.range(0, par, 1, par).mapInPandas(passthrough, "id long").toPandas()
            times.append(time.perf_counter() - t0)
        _JOB_S[sc] = min(times)
    return _JOB_S[sc]


def _broadcast(g, sc):
    """``g``'s broadcast on ``sc``, made once per graph and context."""
    per_graph = _BC.setdefault(sc, weakref.WeakKeyDictionary())
    if g not in per_graph:
        per_graph[g] = sc.broadcast(g)
    return per_graph[g]


def _spark_sum(kernel, start: int, count: int, width: int, *, g, spark) -> np.ndarray:
    """Sum of ``kernel`` over ids ``start..count-1`` as one labelled Spark job."""
    bc = _broadcast(g, spark.sparkContext)

    def fn(batches):
        lg = bc.value
        acc = np.zeros(width, dtype=np.float64)
        for pdf in batches:
            acc += kernel(lg, pdf["id"].tolist())
        nz = np.nonzero(acc)[0]
        yield pd.DataFrame({"i": nz.astype(np.int64), "v": acc[nz]})

    sc = spark.sparkContext
    label = sc.getLocalProperty("spark.job.description")
    sc.setJobDescription(f"{kernel.__qualname__} ids {start}..{count - 1}")
    try:
        out = (
            spark.range(int(start), int(count), 1, sc.defaultParallelism)
            .mapInPandas(fn, "i long, v double")
            .toPandas()
        )
    finally:
        sc.setJobDescription(label)
    total = np.zeros(width, dtype=np.float64)
    np.add.at(total, out["i"].to_numpy(), out["v"].to_numpy())
    return total
