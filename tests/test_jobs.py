"""Tests of the spark-submit entrypoint ``jobs/run.py``: arg wiring + output."""
import functools
import importlib.util
import inspect
import re
import runpy
import shlex
import sys
from pathlib import Path

import pandas as pd
import pytest

from repro.graphs.datasets import DATASETS

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "jobs" / "run.py"
SPARK = "<spark>"  # stands in for the session in stubbed runs

# The call each per-table script made before ``run.py`` replaced them, with
# no flags given: (harness, every argument after the harness's defaults).
OLD_CALLS = {
    "table3": ("table3", {"theta": 400, "seed": 0, "spark": SPARK}),
    "table4": ("table4", {"scale": None, "seed": 0}),
    "table5": ("exact_vs_gr", {
        "spark": SPARK, "model": "TR", "n_subgraphs": 5, "n_target": 40,
        "n_seeds": 3, "budgets": (1, 2, 3, 4), "theta": 200,
        "theta_eval": 2000, "gr_theta": 400, "seed": 0,
    }),
    "table7": ("table7", {
        "spark": SPARK, "datasets": tuple(DATASETS), "models": ("TR", "WC"),
        "budgets": (20, 40, 60, 80, 100), "theta": 200, "r_eval": 2000,
        "n_seeds": 10, "scale": None, "seed": 0,
    }),
    "efficiency": ("efficiency", {
        "spark": SPARK, "dataset": "EmailCore", "model": "TR", "b": 10,
        "theta": 200, "r_bg": 50, "scale": None, "n_seeds": 10, "seed": 0,
    }),
}
OLD_CALLS["table6"] = ("exact_vs_gr", {**OLD_CALLS["table5"][1], "model": "WC"})
# Documented commands whose flags change that call.
DOC_OVERRIDES = {
    "table7 --datasets Wiki-Vote Stanford Youtube --models TR": {
        "datasets": ("Wiki-Vote", "Stanford", "Youtube"), "models": ("TR",),
    },
    "table7 --datasets Stanford --models WC": {
        "datasets": ("Stanford",), "models": ("WC",),
    },
}


@pytest.fixture
def run_mod():
    spec = importlib.util.spec_from_file_location("jobs_run", RUN)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def stubbed(run_mod, monkeypatch):
    """``run.py`` with recording harness stubs, no Spark and no output."""
    calls = []

    def stub_for(fn):
        @functools.wraps(fn)  # same signature, so the same flags
        def stub(**kwargs):
            bound = inspect.signature(fn).bind(**kwargs)
            bound.apply_defaults()
            calls.append((fn.__name__, kwargs, dict(bound.arguments)))
            return pd.DataFrame({"x": [1]})

        return stub

    for name, (fn, fixed) in list(run_mod.TABLES.items()):
        monkeypatch.setitem(run_mod.TABLES, name, (stub_for(fn), fixed))
    monkeypatch.setattr(run_mod, "get_spark", lambda app: SPARK)
    monkeypatch.setattr(run_mod, "emit", lambda df, out: calls.append(out))
    return run_mod, calls


def _documented_commands() -> list[list[str]]:
    """The ``python jobs/...`` lines of README "Running" and EXPERIMENTS.md
    "Commands used", as argv lists after the script."""
    blocks = [
        re.search(r"## Running\n+```bash\n(.*?)```", (ROOT / "README.md").read_text(), re.S),
        re.search(r"Commands used:\n+```bash\n(.*?)```", (ROOT / "EXPERIMENTS.md").read_text(), re.S),
    ]
    cmds = []
    for block in blocks:
        assert block is not None
        for line in block.group(1).splitlines():
            if line.startswith("python jobs/"):
                argv = shlex.split(line, comments=True)
                assert argv[1] == "jobs/run.py", line
                cmds.append(argv[2:])
    return cmds


def test_documented_commands_make_the_old_calls(stubbed):
    mod, calls = stubbed
    cmds = _documented_commands()
    assert len(cmds) >= 12
    for argv in cmds:
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        flags = [a for a in argv if a not in ("--out", out)]
        name, expected = OLD_CALLS[argv[0]]
        expected = {**expected, **DOC_OVERRIDES.get(" ".join(flags), {})}
        calls.clear()
        mod.main(argv)
        (fn, _, bound), written = calls
        assert (fn, bound, written) == (name, expected, out), argv


def test_flag_left_out_is_not_passed(stubbed, capsys):
    mod, calls = stubbed
    mod.main(["table5", "--n-target", "12", "--budgets", "1", "2"])
    _, kwargs, _ = calls[0]
    assert kwargs == {"model": "TR", "n_target": 12, "budgets": (1, 2), "spark": SPARK}
    mod.main(["table7", "--scale", "0.5"])
    assert calls[2][1] == {"scale": 0.5, "spark": SPARK}
    with pytest.raises(SystemExit) as e:
        mod.main(["table5", "--help"])
    assert e.value.code == 0
    assert "default: 40" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["table8"], [], ["table3", "--bogus", "1"], ["table4", "--theta", "5"],
     ["table3", "--theta", "many"]],
    ids=["unknown-table", "no-table", "unknown-flag", "other-tables-flag", "bad-type"],
)
def test_bad_command_exits_2(stubbed, argv):
    mod, calls = stubbed
    with pytest.raises(SystemExit) as e:
        mod.main(argv)
    assert e.value.code == 2
    assert calls == []


def test_table4_job_writes_csv(run_mod, monkeypatch, tmp_path, capsys):
    def no_session(app):
        raise AssertionError("table4 started a SparkSession")

    monkeypatch.setattr(run_mod, "get_spark", no_session)
    out = tmp_path / "t4.csv"
    run_mod.main(["table4", "--scale", "0.01", "--out", str(out)])
    df = pd.read_csv(out)
    assert len(df) == 8
    assert "paper n" in df.columns and "ours n" in df.columns
    assert "EmailCore" in capsys.readouterr().out


def _run_job(monkeypatch, argv: list[str]):
    monkeypatch.setattr(sys, "argv", [str(RUN)] + argv)
    runpy.run_path(str(RUN), run_name="__main__")


def test_table3_job_runs(monkeypatch, tmp_path, spark, capsys):
    # spark fixture keeps the session alive; get_spark reuses it
    out = tmp_path / "t3.csv"
    _run_job(monkeypatch, ["table3", "--theta", "200", "--out", str(out)])
    df = pd.read_csv(out)
    assert set(df["Algorithm"]) == {"Greedy", "OutNeighbors", "GreedyReplace"}
    assert df["E (b=2)"].min() == pytest.approx(1.0)


def test_table7_job_tiny_grid(monkeypatch, tmp_path, spark):
    out = tmp_path / "t7.csv"
    _run_job(
        monkeypatch,
        [
            "table7",
            "--datasets", "EmailCore",
            "--models", "WC",
            "--budgets", "5",
            "--theta", "100",
            "--r-eval", "300",
            "--out", str(out),
        ],
    )
    df = pd.read_csv(out)
    assert list(df.columns) == ["Dataset", "Model", "b", "RA", "OD", "AG", "GR"]
    assert len(df) == 1


def test_table5_job_tiny(monkeypatch, tmp_path, spark):
    out = tmp_path / "t5.csv"
    _run_job(
        monkeypatch,
        [
            "table5",
            "--n-subgraphs", "1",
            "--n-target", "10",
            "--n-seeds", "2",
            "--budgets", "1",
            "--theta", "80",
            "--out", str(out),
        ],
    )
    df = pd.read_csv(out)
    assert list(df["b"]) == [1]
    assert "Exact time (s)" in df.columns


def test_efficiency_job_tiny(monkeypatch, tmp_path, spark):
    out = tmp_path / "eff.csv"
    _run_job(
        monkeypatch,
        [
            "efficiency",
            "--b", "1",
            "--theta", "80",
            "--r-bg", "5",
            "--scale", "0.2",
            "--out", str(out),
        ],
    )
    df = pd.read_csv(out)
    assert list(df["Algorithm"]) == ["BG", "AG", "GR"]
