#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the vertex-blocking algorithms.

Run from the repository root:

    python3 perfbench/run.py --workload facebook-tr-kernel --seed 0 \\
        --seconds 24 --trace 0

One driver process runs one call at a time against Spark pinned to
``local[N]`` (N = min(4, nproc)). A run starts Spark, warms it up untimed,
times ``SETUP_REPEATS`` builds of the workload graph, then repeats timed
passes of the workload pipeline (see ``workloads.py``): at least
``MIN_PASSES``, and more while another pass fits into ``--seconds``. Each
timing is the median over passes. Every
output is checked (see ``check_pass``). The last stdout line is the JSON
result; the line before it records the environment and the raw timings.
``--trace 1`` wraps the layers' public functions, replays round 0 of AG
on the driver, and reports the per-layer metrics instead.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
DRIVER_MEM = "2g"
#: Samples of the driver-local vs Spark Delta check (bit-identity does
#: not depend on theta, and a driver-local Facebook sample costs ~80 ms).
CHECK_THETA = 8
#: Offset of the evaluation streams from the algorithm streams.
EVAL_SALT = 1_000_003
#: Tracer tags of the Delta calls AG and GR make on the workload graph.
MAIN_TAGS = ("ag", "gr", "gr1")
#: Timed passes per run at least, so that every timing is a median.
MIN_PASSES = 3

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    B_AG,
    B_EXACT,
    B_GR,
    BALL_GR_THETA,
    BALL_SEEDS,
    BALL_SIZE,
    END_TO_END,
    EXACT_THETA,
    EXACT_THETA_EVAL,
    GRAPH_SEED,
    MODEL,
    N_BALLS,
    N_SEEDS,
    PER_LAYER,
    SETUP_REPEATS,
    WORKLOADS,
    Workload,
)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record-reference",
        action="store_true",
        help="store this run's outputs as the reference for its seed",
    )
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


# ----------------------------------------------------------------------
# Environment: Spark pinned to local[N], scratch files inside the checkout
# ----------------------------------------------------------------------
def spark_cores() -> int:
    return min(4, os.cpu_count() or 1)


def start_spark(cores: int):
    """SparkSession with the confs of conftest.py / jobs/_session.py."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # No hsperfdata files in /tmp, from the launcher JVM either: the run
    # writes only inside the checkout.
    java_opts = os.environ.get("JAVA_TOOL_OPTIONS")
    os.environ["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData" + (
        " " + java_opts if java_opts else ""
    )
    pypath = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + pypath if pypath else "")
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores}]",
            f"--driver-memory {DRIVER_MEM}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf " + shlex.quote(f"spark.local.dir={tmp}"),
            "--conf "
            + shlex.quote(f"spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp}"),
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def source_identity() -> dict:
    """Git commit if the checkout has one, and a hash of ``src/``."""
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                for line in packed.read_text().splitlines() if packed.is_file() else []:
                    if line.endswith(" " + ref[5:]):
                        sha = line.split()[0]
        else:
            sha = ref
    h = hashlib.sha256()
    for f in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode())
        h.update(f.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def calibrate() -> float:
    """A fixed single-thread loop; its time tracks the CPU's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def empty_job(spark, cores: int) -> float:
    """One trivial range -> repartition -> mapInPandas round trip."""

    def passthrough(batches):
        yield from batches

    t0 = time.perf_counter()
    spark.range(cores).repartition(cores).mapInPandas(passthrough, "id long").toPandas()
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# The workload pipeline
# ----------------------------------------------------------------------
class Context:
    """Everything a timed pass needs, prepared before timing starts."""

    def __init__(self, spark, wl: Workload, seed: int):
        self.spark = spark
        self.wl = wl
        self.seed = seed
        self.workload = None      # repro Workload (the workload graph)
        self.bg_candidates = None
        self.balls: list[dict] = []


def build(spark, wl: Workload):
    from repro.experiments.harness import build_workload

    return build_workload(
        spark, wl.dataset, MODEL, scale=wl.scale, n_seeds=N_SEEDS,
        seed=GRAPH_SEED,
    )


def bg_candidates(g, wl: Workload) -> list[int] | None:
    """BG's candidate pool: every vertex, or the first k of N_out(s')."""
    if wl.bg_pool is None:
        return None
    heads, _ = g.out_edges(g.seed)
    return [int(u) for u in np.unique(heads) if int(u) != g.seed][: wl.bg_pool]


def prepare_balls(spark, wl: Workload, seed: int) -> list[dict]:
    """The Tables V/VI subgraphs, built as ``exact_vs_gr`` builds them."""
    from repro.algorithms.exact import presample_adjacency
    from repro.experiments.harness import assign_model
    from repro.experiments.subgraphs import extract_ball, induced_edges
    from repro.graphs.datasets import generate_edges
    from repro.graphs.localgraph import LocalGraph
    from repro.graphs.transform import SUPER_SEED, merge_seeds

    n_full, edges_full = generate_edges(wl.dataset, scale=wl.scale, seed=GRAPH_SEED)
    rng = np.random.default_rng((GRAPH_SEED, 0xE8))
    balls = []
    for si in range(N_BALLS):
        start = int(rng.integers(0, n_full))
        ball = extract_ball(edges_full, n_full, start=start, n_target=BALL_SIZE)
        sub = induced_edges(edges_full, ball)
        sub_pdf = assign_model(
            spark.createDataFrame(sub), MODEL, seed=GRAPH_SEED + si
        ).toPandas()
        seeds = [
            int(v)
            for v in rng.choice(ball, size=min(BALL_SEEDS, len(ball)), replace=False)
        ]
        g = LocalGraph.from_edges(
            merge_seeds(spark.createDataFrame(sub_pdf), seeds), SUPER_SEED
        )
        A_eval = presample_adjacency(g, theta=EXACT_THETA_EVAL, seed=seed * 31 + si)
        balls.append(
            {"graph": g, "n_seeds": len(seeds), "A_eval": A_eval, "seed": seed + si}
        )
    return balls


def run_pass(ctx: Context, tracer) -> dict:
    """One timed pass: AG, GR, evaluation, BG, then Exact vs GR on balls.

    Each stage is timed on its own; the five stage times add up to
    ``total_s``.
    """
    from repro.algorithms.advanced_greedy import advanced_greedy
    from repro.algorithms.baseline import baseline_greedy
    from repro.algorithms.exact import exact_blockers, shared_sample_spread
    from repro.algorithms.greedy_replace import greedy_replace

    spark, wl, seed = ctx.spark, ctx.wl, ctx.seed
    g = ctx.workload.graph
    orig = lambda B: [int(g.orig_ids[u]) for u in B]  # noqa: E731
    t: dict[str, float] = {}
    clock = time.perf_counter
    start = clock()

    t0 = clock()
    with tracer.tagged("ag"):
        ag = advanced_greedy(g, B_AG, theta=wl.theta, seed=seed, spark=spark)
    t["ag_s"] = clock() - t0

    t0 = clock()
    with tracer.tagged("gr"):
        gr = greedy_replace(g, B_GR, theta=wl.theta, seed=seed, spark=spark)
    t["gr_s"] = clock() - t0

    t0 = clock()
    ev_seed = seed + EVAL_SALT
    ag_spread = ctx.workload.eval_spread(orig(ag), r=wl.r_eval, seed=ev_seed, spark=spark)
    gr_spread = ctx.workload.eval_spread(orig(gr), r=wl.r_eval, seed=ev_seed, spark=spark)
    t["eval_s"] = clock() - t0

    t0 = clock()
    bg = baseline_greedy(
        g, 1, r=wl.r_bg, seed=seed, spark=spark, candidates=ctx.bg_candidates
    )
    t["bg_s"] = clock() - t0

    t0 = clock()
    cells = []
    for ball in ctx.balls:
        gb = ball["graph"]
        base = ball["n_seeds"] - 1  # seeds beyond s' count 1 each
        for bb in range(1, B_EXACT + 1):
            ex, _ = exact_blockers(
                gb, bb, theta=EXACT_THETA, seed=ball["seed"], spark=spark
            )
            with tracer.tagged("ball-gr"):
                grb = greedy_replace(
                    gb, bb, theta=BALL_GR_THETA, seed=ball["seed"], spark=spark
                )
            s_ex = base + shared_sample_spread(ball["A_eval"], gb.seed, ex)
            s_gr = base + shared_sample_spread(ball["A_eval"], gb.seed, grb)
            cells.append(
                {"b": bb, "exact": ex, "gr": grb, "s_exact": s_ex, "s_gr": s_gr}
            )
    t["exact_s"] = clock() - t0
    t["total_s"] = clock() - start
    return {
        "times": t,
        "ag": ag,
        "gr": gr,
        "bg": bg,
        "ag_spread": ag_spread,
        "gr_spread": gr_spread,
        "cells": cells,
        "exact_gr_ratio": sum(c["s_exact"] for c in cells)
        / sum(c["s_gr"] for c in cells),
    }


def outputs(ctx: Context, p: dict) -> dict:
    """The seed-determined outputs of a pass, as stored in reference.json."""
    g = ctx.workload.graph
    return {
        "ag": [int(g.orig_ids[u]) for u in p["ag"]],
        "gr": [int(g.orig_ids[u]) for u in p["gr"]],
        "bg": [int(g.orig_ids[u]) for u in p["bg"]],
        "ag_spread": p["ag_spread"],
        "gr_spread": p["gr_spread"],
        "exact_gr_ratio": p["exact_gr_ratio"],
        "cells": [
            {"b": c["b"], "exact": list(c["exact"]), "gr": list(c["gr"])}
            for c in p["cells"]
        ],
    }


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def _blocker_problems(B, budget: int, g, pool=None) -> list[str]:
    out = []
    if len(B) > budget:
        out.append(f"|B|={len(B)} > b={budget}")
    if len(set(B)) != len(B):
        out.append("repeated blocker")
    if g.seed in B:
        out.append("seed blocked")
    if any(not 0 <= u < g.n for u in B):
        out.append("blocker out of range")
    if pool is not None and not set(B) <= set(pool):
        out.append("blocker outside the candidate pool")
    return out


def check_pass(ctx: Context, p: dict, first: dict | None, ref: dict | None) -> dict:
    """Problems found per algorithm call of one pass: {call: [problem]}."""
    wl, g = ctx.wl, ctx.workload.graph
    floor = N_SEEDS
    got = outputs(ctx, p)
    probs: dict[str, list[str]] = {
        "ag": _blocker_problems(p["ag"], B_AG, g),
        "gr": _blocker_problems(p["gr"], B_GR, g),
        "bg": _blocker_problems(p["bg"], 1, g, ctx.bg_candidates),
    }
    if p["ag_spread"] < floor:
        probs["ag"].append(f"spread {p['ag_spread']} below |S|={floor}")
    if p["gr_spread"] < floor:
        probs["gr"].append(f"spread {p['gr_spread']} below |S|={floor}")
    for i, c in enumerate(p["cells"]):
        ball = ctx.balls[i // B_EXACT]
        gb = ball["graph"]
        probs[f"exact{i}"] = _blocker_problems(c["exact"], c["b"], gb)
        probs[f"ballgr{i}"] = _blocker_problems(c["gr"], c["b"], gb)
        if c["s_exact"] < ball["n_seeds"]:
            probs[f"exact{i}"].append("spread below |S|")
        if c["s_gr"] < ball["n_seeds"]:
            probs[f"ballgr{i}"].append("spread below |S|")
    for expect, what in ((first, "first pass"), (ref, "reference")):
        if expect is None:
            continue
        for key, call in (
            ("ag", "ag"), ("ag_spread", "ag"), ("gr", "gr"), ("gr_spread", "gr"),
            ("bg", "bg"),
        ):
            if got[key] != expect[key]:
                probs[call].append(f"{key} differs from the {what}")
        if len(got["cells"]) != len(expect["cells"]):
            probs["exact0"].append(f"number of ball cells differs from the {what}")
        for i, (c, e) in enumerate(zip(got["cells"], expect["cells"])):
            if c["exact"] != e["exact"]:
                probs[f"exact{i}"].append(f"Exact set differs from the {what}")
            if c["gr"] != e["gr"]:
                probs[f"ballgr{i}"].append(f"ball GR set differs from the {what}")
        if got["exact_gr_ratio"] != expect["exact_gr_ratio"]:
            probs["exact0"].append(f"exact_gr_ratio differs from the {what}")
    return probs


def delta_check(ctx: Context) -> list[str]:
    """Driver-local Delta must equal the Spark path's bit for bit."""
    from repro.core.decrease import decrease_es

    g = ctx.workload.graph
    kw = dict(theta=CHECK_THETA, seed=ctx.seed * 7_919)
    spark_delta = decrease_es(g, spark=ctx.spark, **kw)
    local_delta = decrease_es(g, spark=None, **kw)
    if np.array_equal(spark_delta, local_delta):
        return []
    return ["driver-local Delta differs from the Spark Delta"]


# ----------------------------------------------------------------------
# Warm-up, set-up, timed passes
# ----------------------------------------------------------------------
def warm_up(spark, wl: Workload, cores: int) -> None:
    """Spawn the Python workers and plan the set-up queries, untimed.

    On a fresh JVM the first full build took 2-3x as long as the next
    ones. The untimed warm-up pass (see ``run``) then imports repro on the
    workers, broadcasts the graphs and runs every job shape of a pass.
    """
    empty_job(spark, cores)
    build(spark, wl)


def median(xs) -> float:
    return float(statistics.median(xs))


def pctl(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs, dtype=float), q))


def layer_metrics(ctx: Context, tracer, passes: list[dict], cores: int) -> dict:
    """Per-layer metrics from the spans of the timed passes plus replays.

    Round 0 of AG is replayed on the driver, sample by sample, with the
    same ``(seed, id)`` streams, to split a Delta call into sampling,
    Lengauer-Tarjan and subtree time and to measure the samples' shape.
    """
    from repro.algorithms.exact import presample_adjacency, shared_sample_spread
    from repro.core.decrease import decrease_es
    from repro.core.dominator import lengauer_tarjan, subtree_sizes
    from repro.core.sampling import sample_reachable, sample_rng

    wl, g, spark = ctx.wl, ctx.workload.graph, ctx.spark
    n_pass = len(passes)
    clock = time.perf_counter
    m: dict[str, float] = {
        "graphs.generate_s": median(tracer.spans["graphs.generate"]),
        "graphs.collect_s": median(tracer.spans["graphs.collect"]),
        "graphs.n": g.n,
        "graphs.m": g.m,
    }

    calls, spans = tracer.calls["decrease"], tracer.spans["decrease"]
    tags = [tag for tag, _, _ in calls]
    # Calls on the workload graph; the balls' tiny GR calls are counted in
    # decrease.calls only.
    main_spans = [t for tag, t in zip(tags, spans) if tag in MAIN_TAGS]
    m["decrease.calls"] = len(spans) / n_pass
    m["decrease.spark_call_s_p50"] = median(main_spans)
    m["decrease.spark_call_s_max"] = max(main_spans)
    m["decrease.spark_calls"] = len(main_spans)
    m["algorithms.ag_rounds"] = tags.count("ag") / n_pass
    m["algorithms.gr_phase1_rounds"] = tags.count("gr1") / n_pass
    m["algorithms.gr_phase2_rounds"] = tags.count("gr") / n_pass

    _, (g0,), kw = next(c for c in calls if c[0] == "ag")
    theta, master, blocked = kw["theta"], kw["seed"], kw.get("blocked")
    first_blocker = passes[0]["ag"][0]
    out_deg = np.diff(g0.indptr)
    sample_s, lt_s, sub_s, reach = [], [], [], []
    coins = kept = trees = single_in = non_seed = reach_blocker = 0
    for sid in range(theta):
        t0 = clock()
        verts, edges = sample_reachable(g0, sample_rng(master, sid), blocked)
        sample_s.append(clock() - t0)
        k = verts.shape[0]
        reach.append(k)
        coins += int(out_deg[verts].sum())
        kept += edges.shape[0]
        trees += edges.shape[0] == k - 1
        reach_blocker += bool(np.any(verts == first_blocker))
        if k <= 1:
            continue
        _, in_counts = np.unique(edges[:, 1], return_counts=True)
        single_in += int((in_counts == 1).sum())
        non_seed += k - 1
        sorted_vs = np.sort(verts)
        edges_c = np.searchsorted(sorted_vs, edges)
        root_c = int(np.searchsorted(sorted_vs, g0.seed))
        t0 = clock()
        idom = lengauer_tarjan(k, edges_c, root_c)
        t1 = clock()
        subtree_sizes(idom, root_c)
        lt_s.append(t1 - t0)
        sub_s.append(clock() - t1)
    ms = 1e3
    m.update(
        {
            "sampling.sample_ms_p50": pctl(sample_s, 50) * ms,
            "sampling.sample_ms_p90": pctl(sample_s, 90) * ms,
            "sampling.reach_p50": pctl(reach, 50),
            "sampling.reach_p90": pctl(reach, 90),
            "sampling.coins": coins,
            "sampling.keep_ratio": kept / max(coins, 1),
            "sampling.tree_share": trees / theta,
            "sampling.single_in_share": single_in / max(non_seed, 1),
            "sampling.replayed": theta,
            "dominator.lt_ms_p50": pctl(lt_s or [0.0], 50) * ms,
            "dominator.lt_ms_p90": pctl(lt_s or [0.0], 90) * ms,
            "dominator.subtree_ms_p50": pctl(sub_s or [0.0], 50) * ms,
            "decrease.blocker_reach_share": reach_blocker / theta,
        }
    )

    local = []
    while len(local) < 3 and sum(local) < 5.0:
        t0 = clock()
        decrease_es(g0, theta=theta, seed=master, blocked=blocked, spark=None)
        local.append(clock() - t0)
    m["decrease.local_call_s_p50"] = median(local)
    # Check the layer map: the share of ag_s + gr_s that dispatch alone,
    # and the per-sample kernel alone (spread over the cores), account for.
    ag_gr = median([p["times"]["ag_s"] + p["times"]["gr_s"] for p in passes])
    per_sample = (sum(sample_s) + sum(lt_s) + sum(sub_s)) / theta
    m["map.kernel_share"] = (
        per_sample * wl.theta * len(main_spans) / n_pass / cores / ag_gr
    )
    m["decrease.local_calls"] = len(local)

    m["spread.mcs_call_s_p50"] = median(tracer.spans["spread.mcs"])
    m["spread.samples"] = sum(kw["r"] for _, _, kw in tracer.calls["spread.mcs"]) / n_pass

    sc = spark.sparkContext
    m["spark.jobs"] = len(sc.statusTracker().getJobIdsForGroup("perfbench")) / n_pass
    m["spark.empty_job_s_p50"] = median([empty_job(spark, cores) for _ in range(7)])
    m["map.dispatch_share"] = (
        m["spark.empty_job_s_p50"] * len(main_spans) / n_pass / ag_gr
    )
    # Per-sample time on the executors (a main-graph Delta call minus one
    # empty job, spread over N cores) relative to the driver replay.
    executor_per_sample = (
        (m["decrease.spark_call_s_p50"] - m["spark.empty_job_s_p50"]) * cores / wl.theta
    )
    m["map.parallel_slowdown"] = executor_per_sample / per_sample
    heap_peak = 0
    for pool in sc._jvm.java.lang.management.ManagementFactory.getMemoryPoolMXBeans():
        if pool.getType().toString() == "Heap memory":
            heap_peak += pool.getPeakUsage().getUsed()
    m["spark.jvm_hwm_mb"] = heap_peak / 2**20

    # BG prices every unblocked candidate in each round.
    pool = len(ctx.bg_candidates) if ctx.bg_candidates is not None else g.n - 1
    candidates = sum(pool - i for i in range(len(passes[0]["bg"])))
    m["baseline.candidates"] = candidates
    m["baseline.samples"] = candidates * wl.r_bg

    m["exact.presample_s"] = sum(tracer.spans["exact.presample"]) / n_pass
    m["exact.combos"] = sum(
        math.comb(ball["graph"].n - 1, min(b, ball["graph"].n - 1))
        for ball in ctx.balls
        for b in range(1, B_EXACT + 1)
    )
    ball = ctx.balls[0]
    gb = ball["graph"]
    A = presample_adjacency(gb, theta=EXACT_THETA, seed=ball["seed"])
    others = [u for u in range(gb.n) if u != gb.seed]
    combo_s = []
    for i in range(min(50, len(others))):
        combo = [others[(i + j) % len(others)] for j in range(min(B_EXACT, len(others)))]
        t0 = clock()
        shared_sample_spread(A, gb.seed, combo)
        combo_s.append(clock() - t0)
    m["exact.combo_ms_p50"] = median(combo_s) * ms
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: {SRC / 'repro'} not found", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    cores = spark_cores()
    sys.path.insert(0, str(SRC))
    calib_before = calibrate()

    t0 = time.perf_counter()
    spark = start_spark(cores)
    session_start_s = time.perf_counter() - t0
    try:
        res, info = run(spark, wl, args, cores)
    finally:
        t0 = time.perf_counter()
        stop_spark(spark)
    info["phases_s"]["stop"] = time.perf_counter() - t0
    info["calib_s"] = [calib_before, calibrate()]
    info["session_start_s"] = session_start_s
    info["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = res["metrics"]
    if args.trace:
        metrics["spark.session_start_s"] = session_start_s
        metrics["machine.calib_s"] = median(info["calib_s"])
        wanted = PER_LAYER
    else:
        metrics["driver_peak_rss_mb"] = info["peak_rss_mb"]
        wanted = END_TO_END
    missing = set(wanted) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    print(json.dumps({"perfbench": info}, default=float))
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {
                    k: {"value": float(metrics[k]), "unit": wanted[k][0]}
                    for k in wanted
                },
            }
        )
    )
    return 0


def run(spark, wl: Workload, args, cores: int) -> tuple[dict, dict]:
    import repro.algorithms.advanced_greedy as ag_mod
    import repro.algorithms.exact as exact_mod
    import repro.algorithms.greedy_replace as gr_mod
    import repro.experiments.harness as harness_mod
    import repro.graphs.datasets as datasets_mod
    from repro.graphs.localgraph import LocalGraph

    tracer = Tracer()
    traced = bool(args.trace)
    phases: dict[str, float] = {}
    lap_start = [time.perf_counter()]

    def lap(name: str) -> None:
        now = time.perf_counter()
        phases[name] = now - lap_start[0]
        lap_start[0] = now

    warm_up(spark, wl, cores)
    lap("warm_up")
    ctx = Context(spark, wl, args.seed)

    # Set-up: ``SETUP_REPEATS`` timed builds; the last one is the graph used.
    setup_times = []
    graph_spans = (
        (datasets_mod, "generate_edges", "graphs.generate", False),
        (LocalGraph, "from_edges", "graphs.collect", False),
    ) if traced else ()
    with tracer.wrapping(*graph_spans):
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ctx.workload = build(spark, wl)
            setup_times.append(time.perf_counter() - t0)
    lap("setup")
    g = ctx.workload.graph
    ctx.bg_candidates = bg_candidates(g, wl)
    ctx.balls = prepare_balls(spark, wl, args.seed)
    lap("prepare")
    # Untimed warm-up pass, with the run's seed: in a fresh process the
    # Delta rounds of the first three passes ran 10-30% slower than later
    # ones. Its outputs are checked like those of the timed passes.
    warm = run_pass(ctx, Tracer())
    lap("warm_pass")

    # Timed passes. Delta calls are always recorded (samples_per_s); the
    # other layers are wrapped only when tracing.
    spans = [
        (ag_mod, "decrease_es", "decrease", True),
        (gr_mod, "decrease_es", "decrease", True),
    ]
    if traced:
        spans += [
            (harness_mod, "mcs_spread", "spread.mcs", True),
            (exact_mod, "presample_adjacency", "exact.presample", False),
        ]
        spark.sparkContext.setJobGroup("perfbench", "timed passes")
    passes: list[dict] = []
    budget_start = time.perf_counter()
    with tracer.wrapping(*spans), tracer.retag(gr_mod, "phase1_out_neighbors", "1"):
        while True:
            before = len(tracer.calls["decrease"])
            p = run_pass(ctx, tracer)
            # Samples of the workload graph's Delta calls (not the balls').
            p["delta_samples"] = sum(
                kw["theta"]
                for tag, _, kw in tracer.calls["decrease"][before:]
                if tag in MAIN_TAGS
            )
            passes.append(p)
            elapsed = time.perf_counter() - budget_start
            if (
                len(passes) >= MIN_PASSES
                and elapsed + p["times"]["total_s"] > args.seconds
            ):
                break
    lap("passes")
    if traced:
        spark.sparkContext.setJobGroup("perfbench-untimed", "untimed")

    # Correctness gate: per-call checks, repeat passes, stored references.
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref = refs.get(wl.name, {}).get(str(args.seed))
    first = outputs(ctx, warm)
    problems: dict[str, list[str]] = {}
    attempted = failed = 0
    for i, p in enumerate([warm] + passes):
        per_call = check_pass(ctx, p, first if i else None, ref)
        attempted += len(per_call)
        failed += sum(1 for v in per_call.values() if v)
        for call, v in per_call.items():
            if v:
                problems[f"{f'pass{i}' if i else 'warm'}.{call}"] = v
    d_problems = delta_check(ctx)
    attempted += 1
    if d_problems:
        failed += 1
        problems["delta_check"] = d_problems
    if args.record_reference:
        refs.setdefault(wl.name, {})[str(args.seed)] = first
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    lap("checks")

    times = {k: [p["times"][k] for p in passes] for k in passes[0]["times"]}
    info = {
        **source_identity(),
        "nproc": os.cpu_count(),
        "master": spark.sparkContext.master,
        "workload": {
            **wl.__dict__,
            "model": MODEL,
            "n_seeds": N_SEEDS,
            "setup_repeats": SETUP_REPEATS,
            "b_ag": B_AG,
            "b_gr": B_GR,
            "n_balls": N_BALLS,
            "ball_size": BALL_SIZE,
            "ball_seeds": BALL_SEEDS,
            "b_exact": B_EXACT,
            "exact_theta": EXACT_THETA,
            "exact_theta_eval": EXACT_THETA_EVAL,
            "ball_gr_theta": BALL_GR_THETA,
            "seed": args.seed,
            "graph_seed": GRAPH_SEED,
        },
        "graph": {"n": g.n, "m": g.m, "bg_candidates": len(ctx.bg_candidates or [])},
        "passes": len(passes),
        "setup_s": setup_times,
        "times": times,
        "delta_call_s": tracer.spans["decrease"],
        "outputs": first,
        "problems": problems,
        "phases_s": phases,
    }
    if traced:
        metrics = layer_metrics(ctx, tracer, passes, cores)
        metrics["trace.total_s"] = median(times["total_s"])
        lap("layer_replays")
    else:
        metrics = {k: median(v) for k, v in times.items()}
        metrics["setup_s"] = median(setup_times)
        metrics["ag_spread"] = passes[0]["ag_spread"]
        metrics["gr_spread"] = passes[0]["gr_spread"]
        metrics["exact_gr_ratio"] = passes[0]["exact_gr_ratio"]
        metrics["samples_per_s"] = median(
            [
                p["delta_samples"] / (p["times"]["ag_s"] + p["times"]["gr_s"])
                for p in passes
            ]
        )
    return {"metrics": metrics, "attempted": attempted, "failed": failed}, info


if __name__ == "__main__":
    sys.exit(main())
