"""Reproduce Table V: Exact vs GreedyReplace under the TR model.

Usage: spark-submit jobs/table5.py [--n-target 40] [--theta 200] [--out out.csv]
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _session import emit, get_spark


def main(model: str = "TR", app: str = "table5") -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-subgraphs", type=int, default=5)
    ap.add_argument("--n-target", type=int, default=40)
    ap.add_argument("--n-seeds", type=int, default=3)
    ap.add_argument("--budgets", type=int, nargs="+", default=[1, 2, 3, 4])
    ap.add_argument("--theta", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    spark = get_spark(app)
    from repro.experiments.tables import exact_vs_gr

    emit(
        exact_vs_gr(
            spark,
            model,
            n_subgraphs=args.n_subgraphs,
            n_target=args.n_target,
            n_seeds=args.n_seeds,
            budgets=tuple(args.budgets),
            theta=args.theta,
            seed=args.seed,
        ),
        args.out,
    )


if __name__ == "__main__":
    main()
