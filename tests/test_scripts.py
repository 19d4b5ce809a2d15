"""Smoke runs of the benchmark scripts at a small size, so a script that
imports a name the library no longer defines fails here."""

import ast
import csv
import importlib.util
from pathlib import Path

import pytest

from groupcs import patches, work
from groupcs.pgm import read_pgm

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# Arguments beyond --side and --csv for each script that writes a table:
# one noise level or subrate, and two outer iterations where it recovers.
CSV_RUNS = {
    "denoise_benchmark": ["--sigmas", "20", "--kinds", "log", "mcp"],
    "robust_noise_benchmark": ["--iters", "2", "--snrs", "20"],
    "weighting_benchmark": ["--iters", "2", "--subrates", "0.3"],
    "stage_split": ["--repeats", "1", "--kinds", "dense"],
}


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_are_all_covered():
    assert sorted(p.stem for p in SCRIPTS.glob("*.py")) == sorted(
        ["make_benchmark_image", *CSV_RUNS]
    )


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_script_imports_only_public_names(script):
    """A script stands on the library's public names: no
    `from groupcs... import _name`."""
    tree = ast.parse((SCRIPTS / script).read_text(), filename=script)
    private = [
        f"line {node.lineno}: from {node.module} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "groupcs"
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


def test_make_benchmark_image(tmp_path, capsys):
    out = tmp_path / "bench.pgm"
    assert load_script("make_benchmark_image").main([str(out), "--side", "32"]) == 0
    assert read_pgm(out).shape == (32, 32)


# stage_split.py writes both of its splits into one table: X-step rows name
# the operator kind, Z-step rows only the worker count.
SPLITS = {"xstep_split": True, "zstep_split": False}


@pytest.mark.parametrize("name", sorted(set(CSV_RUNS) - {"stage_split"} | set(SPLITS)))
def test_script_writes_one_row(name, tmp_path, capsys):
    """One row, or for each split of stage_split one per stage: a build at
    each worker count and four X-step stages for the one kind, three Z-step
    stages at each worker count."""
    script = "stage_split" if name in SPLITS else name
    table = tmp_path / "out.csv"
    argv = ["--side", "32", *CSV_RUNS[script], "--csv", str(table)]
    assert load_script(script).main(argv) == 0
    with open(table, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert all(len(row) == len(header) for row in rows)
    counts = len({1, work.WORKERS})
    stages = {"xstep_split": counts + 4, "zstep_split": 3 * counts}
    if name in SPLITS:
        assert len(rows) == sum(stages.values())
        rows = [row for row in rows if bool(row[header.index("kind")]) == SPLITS[name]]
    assert len(rows) == stages.get(name, 1)


def test_stage_split_times_one_worker_and_the_pool(tmp_path, capsys, monkeypatch):
    """Z-step rows at 1 worker and at work.WORKERS, with the same groups,
    positive times inside their min and max, and a positive peak_mb on
    each z_step row only; the worker count is restored afterwards."""
    monkeypatch.setattr(work, "WORKERS", 3)
    table = tmp_path / "out.csv"
    assert load_script("stage_split").main(["--side", "32", "--repeats", "1", "--kinds", "dft",
                                            "--csv", str(table)]) == 0
    with open(table, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if not r["kind"]]
    assert [(r["stage"], r["workers"]) for r in rows] == [
        (stage, workers) for workers in ("1", "3")
        for stage in ("match_aggregate", "spectra", "z_step")]
    assert {r["groups"] for r in rows} == {rows[0]["groups"]}
    assert int(rows[0]["groups"]) > 0
    assert all(0 < float(r["min_s"]) <= float(r["seconds"]) <= float(r["max_s"]) for r in rows)
    assert all(float(r["peak_mb"]) > 0 for r in rows if r["stage"] == "z_step")
    assert all(r["peak_mb"] == "" for r in rows if r["stage"] != "z_step")
    assert work.WORKERS == 3


def test_stage_split_runs_no_one_band_function(tmp_path, capsys, monkeypatch):
    """Every Z-step row times the banded path that z_step runs: with the
    whole-image, one-band functions made to fail, the script still
    writes all its rows."""
    import groupcs
    from groupcs import lowrank

    def fail(*args, **kwargs):
        raise AssertionError("a one-band function was called")

    for module, name in [(groupcs, "group_stack"), (groupcs, "aggregate_stack"),
                         (groupcs, "irnn_denoise_stack"), (patches, "group_stack"),
                         (patches, "aggregate_stack"), (lowrank, "irnn_denoise_stack")]:
        monkeypatch.setattr(module, name, fail)
    table = tmp_path / "out.csv"
    assert load_script("stage_split").main(["--side", "32", "--repeats", "1", "--kinds", "dft",
                                            "--csv", str(table)]) == 0
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * len({1, work.WORKERS}) + 4


def test_stage_split_refuses_what_does_not_fit(tmp_path, capsys, monkeypatch):
    """A build row per worker count and four X-step rows per kind; a kind
    whose recovery would not fit in physical memory gives one refused row
    and is never built."""
    from groupcs.solver import recovery_bytes

    script = load_script("stage_split")
    # Room for a 64x64 block recovery, not for the dense one.
    limit = recovery_bytes("block", (64, 64), script.SUBRATE, script.SolverConfig().grouping)
    monkeypatch.setattr("groupcs.work.physical_memory", lambda: limit)
    built = []
    make_operator = script.make_operator
    monkeypatch.setattr(script, "make_operator",
                        lambda kind, *args: built.append(kind) or make_operator(kind, *args))
    table = tmp_path / "out.csv"
    assert script.main(["--side", "64", "--repeats", "1", "--csv", str(table)]) == 0
    with open(table, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["kind"]]
    counts = len({1, work.WORKERS})
    # The build rows' and the X-step's.
    assert built == ["block"] * (counts + 1) + ["dft"] * (counts + 1)
    assert [(r["side"], r["stage"], r["kind"], r["seconds"]) for r in rows[:1]] == [
        ("64", "", "dense", "refused")]
    assert [(r["stage"], r["kind"]) for r in rows[1:]] == [
        (stage, kind) for kind in ("block", "dft")
        for stage in ("build",) * counts + ("forward", "adjoint", "normal", "gd_steps")]
    assert all(r["side"] == "64" and float(r["seconds"]) > 0 for r in rows[1:])
    assert all(r["peak_mb"] == "" for r in rows)
