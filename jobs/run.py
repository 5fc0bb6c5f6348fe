"""Regenerate one evaluation table: the spark-submit entrypoint for every table.

Usage: spark-submit jobs/run.py TABLE [--flag value ...] [--out f.csv]

TABLE is one of table3, table4, table5, table6, table7 or efficiency. The
flags are the keyword-only parameters of the matching
``repro.experiments.tables`` function (``n_target`` -> ``--n-target``). A
flag left out is not passed, so that function's own default applies;
``run.py TABLE --help`` prints it. A SparkSession is started only for a
function that takes ``spark``.
"""
import argparse
import inspect
import os
import sys
import types
import typing

from repro.experiments import tables

# TABLE -> (harness, fixed keyword arguments)
TABLES = {
    "table3": (tables.table3, {}),
    "table4": (tables.table4, {}),
    "table5": (tables.exact_vs_gr, {"model": "TR"}),
    "table6": (tables.exact_vs_gr, {"model": "WC"}),
    "table7": (tables.table7, {}),
    "efficiency": (tables.efficiency, {}),
}


def get_spark(app: str):
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        f"--conf spark.driver.host=127.0.0.1 "
        f"--conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def emit(df, out_path: str | None):
    """Print a result frame and optionally write it as CSV."""
    text = df.to_string(index=False)
    print(text)
    if out_path:
        df.to_csv(out_path, index=False)
        print(f"[written] {out_path}", file=sys.stderr)


def parse(argv: list[str] | None) -> tuple[str, dict, str | None]:
    """``argv`` (default: ``sys.argv[1:]``) -> (TABLE, the keyword arguments
    given, the ``--out`` path)."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="table", required=True, metavar="TABLE")
    for table, (fn, _) in TABLES.items():
        sp = sub.add_parser(table, help=fn.__doc__.splitlines()[0])
        sp.add_argument("--out", default=None)
        hints = typing.get_type_hints(fn)
        for p in inspect.signature(fn).parameters.values():
            if p.kind is not p.KEYWORD_ONLY or p.name == "spark":
                continue
            kind, nargs = hints[p.name], None
            if isinstance(kind, types.UnionType):  # X | None -> X
                (kind,) = (a for a in typing.get_args(kind) if a is not type(None))
            if typing.get_origin(kind) is tuple:  # tuple[X, ...] -> X, nargs="+"
                kind, nargs = typing.get_args(kind)[0], "+"
            sp.add_argument(
                "--" + p.name.replace("_", "-"), dest=p.name, type=kind,
                nargs=nargs, default=argparse.SUPPRESS, help=f"default: {p.default!r}",
            )
    args = vars(ap.parse_args(argv))
    table, out = args.pop("table"), args.pop("out")
    return table, {k: tuple(v) if isinstance(v, list) else v for k, v in args.items()}, out


def main(argv: list[str] | None = None) -> None:
    table, kwargs, out = parse(argv)
    fn, fixed = TABLES[table]
    if "spark" in inspect.signature(fn).parameters:
        kwargs["spark"] = get_spark(table)
    emit(fn(**fixed, **kwargs), out)


if __name__ == "__main__":
    main()
