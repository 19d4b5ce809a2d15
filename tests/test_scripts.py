"""Smoke runs of the benchmark scripts at a small size, so a script that
imports a name the library no longer defines fails here."""

import csv
import importlib.util
from pathlib import Path

import pytest

from groupcs import patches
from groupcs.pgm import read_pgm

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# Arguments beyond --side and --csv for each script that writes a table:
# one noise level or subrate, and two outer iterations where it recovers.
CSV_RUNS = {
    "denoise_benchmark": ["--sigmas", "20", "--kinds", "log", "mcp"],
    "robust_noise_benchmark": ["--iters", "2", "--snrs", "20"],
    "weighting_benchmark": ["--iters", "2", "--subrates", "0.3"],
    "xstep_split": ["--repeats", "1", "--kinds", "dense"],
    "zstep_split": ["--repeats", "1"],
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


def test_make_benchmark_image(tmp_path, capsys):
    out = tmp_path / "bench.pgm"
    assert load_script("make_benchmark_image").main([str(out), "--side", "32"]) == 0
    assert read_pgm(out).shape == (32, 32)


@pytest.mark.parametrize("name", sorted(CSV_RUNS))
def test_script_writes_one_row(name, tmp_path, capsys):
    """One row, or for zstep_split one per worker count it times."""
    table = tmp_path / "out.csv"
    argv = ["--side", "32", *CSV_RUNS[name], "--csv", str(table)]
    assert load_script(name).main(argv) == 0
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + (len({1, patches.WORKERS}) if name == "zstep_split" else 1)
    assert all(len(row) == len(rows[0]) for row in rows[1:])


def test_zstep_split_times_one_worker_and_the_pool(tmp_path, capsys, monkeypatch):
    """A row at 1 worker and one at patches.WORKERS, with the same groups;
    the worker count is restored afterwards."""
    monkeypatch.setattr(patches, "WORKERS", 3)
    table = tmp_path / "out.csv"
    assert load_script("zstep_split").main(["--side", "32", "--repeats", "1",
                                            "--csv", str(table)]) == 0
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["workers"] for r in rows] == ["1", "3"]
    assert rows[0]["groups"] == rows[1]["groups"]
    assert all(float(r[c]) > 0 for r in rows for c in ("group_stack_s", "irnn_denoise_stack_s"))
    assert patches.WORKERS == 3


def test_xstep_split_times_every_kind_and_skips_what_does_not_fit(tmp_path, capsys,
                                                                  monkeypatch):
    """One row per side and kind; a kind whose recovery would not fit in
    physical memory is reported as refused instead of being built."""
    from groupcs.solver import recovery_bytes

    script = load_script("xstep_split")
    # Room for a 64x64 block recovery, not for the dense one.
    limit = recovery_bytes("block", (64, 64), script.SUBRATE, script.SolverConfig().grouping)
    monkeypatch.setattr("groupcs.measurement.physical_memory", lambda: limit)
    table = tmp_path / "out.csv"
    assert script.main(["--side", "64", "--repeats", "1", "--csv", str(table)]) == 0
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["side"], r["kind"]) for r in rows] == [("64", "dense"), ("64", "block"),
                                                      ("64", "dft")]
    assert rows[0]["normal_s"] == "refused"
    for row in rows[1:]:
        assert all(float(row[c]) > 0 for c in ("forward_s", "adjoint_s", "normal_s",
                                               "x_iterate_s"))
