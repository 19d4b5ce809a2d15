"""End-to-end command line flows: subcommand round trips, trace files,
sweep CSVs, exit codes, and byte-level determinism."""

import csv
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from groupcs import cli
from groupcs.cli import main
from groupcs.config import KEYS, build_noise_spec, build_solver_config, merge_config
from groupcs.lowrank import INIT_WEIGHTS, WEIGHTINGS
from groupcs.measfile import MeasurementFile, read_measurements, write_measurements
from groupcs.measurement import NOISE_MODELS, OPERATOR_KINDS, NoiseSpec, make_operator
from groupcs.metrics import psnr
from groupcs.penalties import KINDS
from groupcs.pgm import read_pgm, write_pgm
from groupcs.solver import FIDELITIES, SolverConfig

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def stdout_psnr(text):
    for line in text.splitlines():
        if line.startswith("psnr_db="):
            return float(line.split()[0].split("=")[1])
    raise AssertionError(f"no psnr_db line in {text!r}")


@pytest.fixture
def flat_image(tmp_path, rng):
    img = np.round(rng.uniform(0, 255, (32, 32)))
    path = tmp_path / "input.pgm"
    write_pgm(path, img)
    return path, img


# ------------------------------------------------------------------- measure


def test_measure_writes_parseable_file(tmp_path, flat_image, capsys):
    img_path, img = flat_image
    meas = tmp_path / "out.meas"
    code, out, _ = run(
        capsys, "measure", img_path, "--output", meas,
        "--op", "dense", "--subrate", "0.25", "--seed", "7",
    )
    assert code == 0
    mf = read_measurements(meas)
    op = make_operator("dense", (32, 32), 0.25, 7)
    assert mf.op_kind == "dense"
    assert mf.shape == (32, 32)
    assert mf.seed == 7
    assert mf.snr_db == math.inf
    np.testing.assert_array_equal(mf.y, op.forward(img))
    assert f"m={op.m} n={op.n} snr_db=inf" in out


def test_measure_hits_target_snr(tmp_path, flat_image, capsys):
    img_path, _ = flat_image
    meas = tmp_path / "noisy.meas"
    code, out, _ = run(
        capsys, "measure", img_path, "--output", meas, "--seed", "3",
        "--noise", "gaussian_mixture", "--target_snr_db", "15",
    )
    assert code == 0
    mf = read_measurements(meas)
    assert mf.snr_db == pytest.approx(15.0, abs=1e-9)
    assert mf.noise.model == "gaussian_mixture"
    assert mf.noise.target_snr_db == 15.0


# ------------------------------------------------------------------- recover


def test_recover_full_mask_is_near_exact(tmp_path, flat_image, capsys):
    img_path, img = flat_image
    meas = tmp_path / "full.meas"
    out_img = tmp_path / "rec.pgm"
    run(capsys, "measure", img_path, "--output", meas,
        "--op", "dft", "--subrate", "1.0", "--seed", "0")
    code, out, _ = run(
        capsys, "recover", meas, "--output", out_img,
        "--ground-truth", img_path,
        "--solver_lambda", "1e-8", "--mu", "0.5",
        "--outer_iters", "3", "--gd_steps", "10",
    )
    assert code == 0
    assert stdout_psnr(out) >= 40.0
    assert psnr(read_pgm(out_img), img).psnr_db >= 40.0


def test_recover_trace_layout(tmp_path, flat_image, capsys):
    img_path, _ = flat_image
    meas = tmp_path / "m.meas"
    trace = tmp_path / "trace.csv"
    run(capsys, "measure", img_path, "--output", meas,
        "--op", "dense", "--subrate", "0.3", "--seed", "1")
    code, _, _ = run(
        capsys, "recover", meas, "--output", tmp_path / "r.pgm",
        "--ground-truth", img_path, "--trace", trace,
        "--outer_iters", "4", "--gd_steps", "5",
        "--solver_lambda", "100", "--mu", "0.5",
    )
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "# fidelity=l2"
    assert lines[1] == "iteration,data_fidelity,reg_surrogate,x_minus_z_norm,psnr_db"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]
    for r in rows:
        assert float(r[1]) >= 0 and float(r[2]) >= 0 and float(r[3]) >= 0
        float(r[4])


def test_recover_trace_without_truth_omits_psnr(tmp_path, flat_image, capsys):
    img_path, _ = flat_image
    meas = tmp_path / "m.meas"
    trace = tmp_path / "trace.csv"
    run(capsys, "measure", img_path, "--output", meas,
        "--op", "dense", "--subrate", "0.3", "--seed", "1")
    code, out, _ = run(
        capsys, "recover", meas, "--output", tmp_path / "r.pgm",
        "--trace", trace, "--outer_iters", "2", "--gd_steps", "5",
        "--solver_lambda", "100", "--mu", "0.5",
    )
    assert code == 0
    assert "psnr_db" not in out
    lines = trace.read_text().splitlines()
    assert lines[1] == "iteration,data_fidelity,reg_surrogate,x_minus_z_norm"


def test_recover_robust_trace_has_weight_columns(tmp_path, flat_image, capsys):
    img_path, _ = flat_image
    meas = tmp_path / "m.meas"
    trace = tmp_path / "trace.csv"
    run(capsys, "measure", img_path, "--output", meas,
        "--op", "dense", "--subrate", "0.3", "--seed", "1",
        "--noise", "gaussian_mixture", "--target_snr_db", "15")
    code, _, _ = run(
        capsys, "recover", meas, "--output", tmp_path / "r.pgm",
        "--ground-truth", img_path, "--trace", trace,
        "--fidelity", "m_estimator", "--outer_iters", "3", "--gd_steps", "5",
        "--solver_lambda", "100", "--mu", "0.5",
    )
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "# fidelity=m_estimator"
    assert lines[1] == (
        "iteration,data_fidelity,reg_surrogate,x_minus_z_norm,psnr_db,q_min,q_max"
    )
    for line in lines[2:]:
        q_min, q_max = map(float, line.split(",")[5:])
        assert 0 < q_min <= q_max <= 1.0


def test_recover_byte_deterministic(tmp_path, flat_image, capsys):
    img_path, _ = flat_image
    meas = tmp_path / "m.meas"
    run(capsys, "measure", img_path, "--output", meas,
        "--op", "block", "--subrate", "0.3", "--seed", "5")
    blobs = []
    for tag in ("a", "b"):
        out_img = tmp_path / f"rec_{tag}.pgm"
        trace = tmp_path / f"trace_{tag}.csv"
        code, _, _ = run(
            capsys, "recover", meas, "--output", out_img, "--trace", trace,
            "--outer_iters", "3", "--gd_steps", "5",
            "--solver_lambda", "1e4", "--mu", "0.5",
        )
        assert code == 0
        blobs.append((out_img.read_bytes(), trace.read_bytes()))
    assert blobs[0] == blobs[1]


# ------------------------------------------------------------------- denoise


def test_denoise_zero_tau_is_identity(tmp_path, flat_image, capsys):
    img_path, _ = flat_image
    out_img = tmp_path / "out.pgm"
    code, _, _ = run(
        capsys, "denoise", img_path, "--output", out_img, "--tau", "0",
    )
    assert code == 0
    assert out_img.read_bytes() == img_path.read_bytes()


def test_denoise_all_zero_image_zero_lambda_epsilon(tmp_path, capsys):
    """Zero spectra with lam = 0 and epsilon = 0 give zero weights, not
    0/0, and a flat image still has every reference in its own group."""
    img_path = tmp_path / "zero.pgm"
    out_img = tmp_path / "out.pgm"
    write_pgm(img_path, np.zeros((32, 32)))
    code, _, err = run(
        capsys, "denoise", img_path, "--output", out_img, "--tau", "1",
        "--lambda", "0", "--epsilon", "0",
    )
    assert code == 0, err
    assert out_img.read_bytes() == img_path.read_bytes()


def test_denoise_improves_noisy_texture(tmp_path, motif_benchmark, capsys):
    rng = np.random.default_rng(11)
    noisy = np.floor(
        np.clip(motif_benchmark + rng.normal(0, 20, motif_benchmark.shape), 0, 255)
        + 0.5
    )
    clean_path = tmp_path / "clean.pgm"
    noisy_path = tmp_path / "noisy.pgm"
    write_pgm(clean_path, motif_benchmark)
    write_pgm(noisy_path, noisy)
    baseline = psnr(noisy, motif_benchmark).psnr_db
    code, out, _ = run(
        capsys, "denoise", noisy_path, "--output", tmp_path / "out.pgm",
        "--ground-truth", clean_path, "--tau", "3e7",
    )
    assert code == 0
    assert stdout_psnr(out) >= baseline + 2.0


def test_denoise_config_file_with_cli_override(tmp_path, flat_image, capsys):
    img_path, _ = flat_image
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\ntau = 1e15\nsweeps = 1\n")
    crushed = tmp_path / "crushed.pgm"
    kept = tmp_path / "kept.pgm"
    code, _, _ = run(
        capsys, "denoise", img_path, "--config", cfg, "--output", crushed,
    )
    assert code == 0
    assert crushed.read_bytes() != img_path.read_bytes()
    # command line beats the file
    code, _, _ = run(
        capsys, "denoise", img_path, "--config", cfg, "--output", kept,
        "--tau", "0",
    )
    assert code == 0
    assert kept.read_bytes() == img_path.read_bytes()


# --------------------------------------------------------------------- sweep


def test_sweep_single_cell_matches_recover(tmp_path, flat_image, capsys):
    img_path, img = flat_image
    meas = tmp_path / "m.meas"
    run(capsys, "measure", img_path, "--output", meas,
        "--op", "dense", "--subrate", "0.3", "--seed", "2")
    solver = ["--solver_lambda", "1e4", "--mu", "0.5",
              "--outer_iters", "3", "--gd_steps", "5"]
    code, out, _ = run(
        capsys, "recover", meas, "--output", tmp_path / "r.pgm",
        "--ground-truth", img_path, *solver,
    )
    assert code == 0
    want = stdout_psnr(out)

    csv_path = tmp_path / "grid.csv"
    code, _, _ = run(
        capsys, "sweep", img_path, "--output", csv_path,
        "--op", "dense", "--subrate", "0.3", "--seed", "2", *solver,
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "subrate,snr_db,kind,weighting,psnr_db,wall_s,status"
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "0.3" and row[1] == "" and row[2] == "log"
    assert row[3] == "combined" and row[6] == "ok"
    assert float(row[4]) == want


def test_sweep_grid_cardinality(tmp_path, flat_image, capsys):
    """Three penalties crossed with two subrates give six result rows."""
    img_path, _ = flat_image
    csv_path = tmp_path / "grid.csv"
    code, _, _ = run(
        capsys, "sweep", img_path, "--output", csv_path,
        "--op", "dense", "--seed", "2",
        "--sweep_subrates", "0.2,0.3",
        "--sweep_kinds", "log,mcp,scad",
        "--shape", "3.7",
        "--solver_lambda", "1e4", "--mu", "0.5",
        "--outer_iters", "2", "--gd_steps", "5",
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 1 + 6
    cells = [tuple(line.split(",")[i] for i in (0, 2)) for line in lines[1:]]
    assert cells == [
        ("0.2", "log"), ("0.2", "mcp"), ("0.2", "scad"),
        ("0.3", "log"), ("0.3", "mcp"), ("0.3", "scad"),
    ]
    for line in lines[1:]:
        row = line.split(",")
        assert row[6] == "ok"
        float(row[4])


def test_sweep_deterministic_apart_from_wall_clock(tmp_path, flat_image, capsys):
    img_path, _ = flat_image
    args = [
        "sweep", img_path,
        "--op", "dense", "--seed", "4",
        "--sweep_weightings", "combined,none",
        "--solver_lambda", "1e4", "--mu", "0.5",
        "--outer_iters", "2", "--gd_steps", "5",
    ]
    rows = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"grid_{tag}.csv"
        code, _, _ = run(capsys, *args, "--output", csv_path)
        assert code == 0
        rows.append([
            line.split(",")[:5] + line.split(",")[6:]
            for line in csv_path.read_text().splitlines()
        ])
    assert rows[0] == rows[1]


def test_sweep_parallel_jobs_match_serial(tmp_path, flat_image, capsys):
    img_path, _ = flat_image
    outs = []
    for jobs in ("1", "2"):
        csv_path = tmp_path / f"grid_{jobs}.csv"
        code, _, _ = run(
            capsys, "sweep", img_path, "--output", csv_path,
            "--op", "dense", "--seed", "4", "--jobs", jobs,
            "--sweep_subrates", "0.2,0.3",
            "--solver_lambda", "1e4", "--mu", "0.5",
            "--outer_iters", "2", "--gd_steps", "5",
        )
        assert code == 0
        outs.append([
            line.split(",")[:5] + line.split(",")[6:]
            for line in csv_path.read_text().splitlines()
        ])
    assert outs[0] == outs[1]


def test_sweep_failed_cells_become_rows(tmp_path, flat_image, capsys):
    """A bad cell is recorded with a failure status; the sweep still
    finishes with exit 0."""
    img_path, _ = flat_image
    csv_path = tmp_path / "g.csv"
    code, _, _ = run(
        capsys, "sweep", img_path, "--output", csv_path,
        "--sweep_snrs", "15,25",
        "--outer_iters", "1", "--gd_steps", "1",
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 1 + 2
    for line in lines[1:]:
        row = line.split(",")
        assert row[4] == ""
        assert "failed" in row[6] and "noise" in row[6]


# ------------------------------------------------------------------- metrics


def test_metrics_identical_images(tmp_path, flat_image, capsys):
    img_path, _ = flat_image
    code, out, _ = run(
        capsys, "metrics", img_path, "--ground-truth", img_path,
    )
    assert code == 0
    assert out == "psnr_db=inf mse=0.0\n"


def test_metrics_reports_psnr(tmp_path, flat_image, capsys):
    img_path, img = flat_image
    other = np.clip(img + 4.0, 0, 255)
    other_path = tmp_path / "other.pgm"
    write_pgm(other_path, other)
    code, out, _ = run(
        capsys, "metrics", other_path, "--ground-truth", img_path,
    )
    assert code == 0
    assert stdout_psnr(out) == pytest.approx(
        psnr(other, img).psnr_db, abs=5e-3
    )


def test_metrics_shape_mismatch_is_config_error(tmp_path, flat_image, capsys):
    img_path, _ = flat_image
    small = tmp_path / "small.pgm"
    write_pgm(small, np.zeros((8, 8)))
    code, _, err = run(capsys, "metrics", img_path, "--ground-truth", small)
    assert code == 2
    assert "config error" in err


# ---------------------------------------------------------------- exit codes


def test_unknown_config_key_exits_2(tmp_path, flat_image, capsys):
    img_path, _ = flat_image
    code, _, err = run(
        capsys, "denoise", img_path, "--output", tmp_path / "o.pgm",
        "--tau", "0", "--taau", "1",
    )
    assert code == 2
    assert "taau" in err


def test_config_defaults_are_library_defaults():
    cfg = merge_config({}, {})
    assert build_solver_config(cfg) == SolverConfig()
    assert build_noise_spec(cfg) == NoiseSpec()


@pytest.mark.parametrize(
    "command, key, value, message",
    [
        ("recover", "weighting", "bogus",
         "weighting must be one of supergradient, combined, none; got 'bogus'"),
        # at the parent every cell became a failed: row, with exit 0
        ("sweep", "mu", "-1", "mu must be finite and > 0, got -1.0"),
    ],
)
def test_bad_solver_setting_exits_2_before_operator(tmp_path, flat_image, capsys, monkeypatch,
                                                    command, key, value, message):
    img_path, _ = flat_image
    source = img_path
    if command == "recover":
        source = tmp_path / "m.meas"
        run(capsys, "measure", img_path, "--output", source, "--seed", "0")

    def refuse(*args):
        raise AssertionError("operator built before the settings were checked")

    monkeypatch.setattr(cli, "make_operator", refuse)
    out = tmp_path / "out"
    code, _, err = run(capsys, command, source, "--output", out, f"--{key}", value)
    assert code == 2
    assert err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["measure", "sweep"])
def test_unknown_operator_kind_exits_2_before_reading_input(tmp_path, capsys, command):
    out = tmp_path / "out"
    code, _, err = run(capsys, command, tmp_path / "missing.pgm", "--output", out,
                       "--op", "bogus")
    assert code == 2
    assert err == "config error: operator kind must be one of dense, block, dft; got 'bogus'\n"
    assert not out.exists()


@pytest.mark.parametrize("kinds", ["lp,log", "log,lp"])
def test_sweep_kind_that_does_not_fit_shape_is_a_row(tmp_path, flat_image, capsys, kinds):
    """The default shape 10 fits log but not lp, in either order."""
    img_path, _ = flat_image
    csv_path = tmp_path / "g.csv"
    code, _, _ = run(
        capsys, "sweep", img_path, "--output", csv_path, "--sweep_kinds", kinds,
        "--outer_iters", "1", "--gd_steps", "1",
    )
    assert code == 0
    rows = {row[2]: row for row in list(csv.reader(csv_path.read_text().splitlines()))[1:]}
    assert sorted(rows) == ["log", "lp"]
    assert rows["log"][6] == "ok"
    assert rows["lp"][4] == ""
    assert rows["lp"][6] == "failed: lp exponent must lie in (0, 1), got 10.0"


@pytest.mark.parametrize(
    "argv, message",
    [
        # no swept kind fits: the first one's error
        (["--sweep_kinds", "lp,scad", "--shape", "2"], "lp exponent must lie in (0, 1), got 2.0"),
        # lp does not fit shape 10, but log does, so the error is the one of mu
        (["--sweep_kinds", "lp,log", "--mu", "-1"], "mu must be finite and > 0, got -1.0"),
    ],
)
def test_sweep_setting_no_cell_can_meet_exits_2(tmp_path, flat_image, capsys, argv, message):
    img_path, _ = flat_image
    csv_path = tmp_path / "g.csv"
    code, _, err = run(capsys, "sweep", img_path, "--output", csv_path, *argv)
    assert code == 2
    assert err == f"config error: {message}\n"
    assert not csv_path.exists()


def test_unknown_penalty_kind_exits_2(tmp_path, flat_image, capsys):
    img_path, _ = flat_image
    code, _, err = run(
        capsys, "denoise", img_path, "--output", tmp_path / "o.pgm",
        "--tau", "0", "--kind", "quux",
    )
    assert code == 2
    assert "quux" in err
    assert "log" in err and "scad" in err


def test_dangling_override_exits_2(tmp_path, flat_image, capsys):
    img_path, _ = flat_image
    code, _, err = run(
        capsys, "denoise", img_path, "--output", tmp_path / "o.pgm", "--tau",
    )
    assert code == 2
    assert "tau" in err


def test_measure_dense_beyond_memory_exits_2(tmp_path, capsys):
    img_path = tmp_path / "big.pgm"
    write_pgm(img_path, np.zeros((1024, 1024)))
    meas = tmp_path / "big.meas"
    code, _, err = run(
        capsys, "measure", img_path, "--output", meas,
        "--op", "dense", "--subrate", "1.0", "--seed", "1",
    )
    assert code == 2
    assert "physical memory" in err
    assert not meas.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("window", "5"),          # 25 candidates for a group of 60
        ("group_size", "1000"),   # more than any window holds
        ("patch", "100"),         # patch larger than the 32x32 image
        ("epsilon", "-1"),
        ("epsilon", "inf"),       # lp weights would be inf / inf at sigma 0
        ("lambda", "1e308"),      # the log penalty's slope overflows
        ("solver_lambda", "inf"),
    ],
)
def test_bad_solver_settings_exit_2(tmp_path, flat_image, capsys, key, value):
    img_path, _ = flat_image
    out = tmp_path / "o.pgm"
    code, _, err = run(
        capsys, "denoise", img_path, "--output", out, "--tau", "1e3", f"--{key}", value,
    )
    assert code == 2
    assert "config error" in err
    assert not out.exists()


def test_recover_infeasible_grouping_exits_2(tmp_path, flat_image, capsys):
    img_path, _ = flat_image
    meas = tmp_path / "m.meas"
    run(capsys, "measure", img_path, "--output", meas, "--op", "dft", "--seed", "0")
    code, _, err = run(
        capsys, "recover", meas, "--output", tmp_path / "o.pgm", "--patch", "100",
    )
    assert code == 2
    assert "patch side 100" in err


@pytest.mark.parametrize(
    "command, argv",
    [
        ("denoise", ["--tau", "1", "--sweeps", "0"]),
        # inf * 0 would give NaN thresholds where the mcp weight is 0
        ("denoise", ["--tau", "inf", "--kind", "mcp", "--shape", "1.5"]),
        # tau = lam * K / (mu * n) overflows to inf
        ("recover", ["--solver_lambda", "1e308", "--kind", "mcp", "--shape", "1.5"]),
    ],
)
def test_threshold_arguments_exit_2(tmp_path, flat_image, capsys, command, argv):
    img_path, _ = flat_image
    source = img_path
    if command == "recover":
        source = tmp_path / "m.meas"
        run(capsys, "measure", img_path, "--output", source, "--seed", "0")
    out = tmp_path / "o.pgm"
    code, _, err = run(capsys, command, source, "--output", out, *argv)
    assert code == 2
    assert err.startswith("config error") and err.count("\n") == 1
    assert not out.exists()


def test_missing_input_exits_3(tmp_path, capsys):
    missing = tmp_path / "nowhere.pgm"
    code, _, err = run(
        capsys, "denoise", missing, "--output", tmp_path / "o.pgm", "--tau", "0",
    )
    assert code == 3
    assert "nowhere.pgm" in err


def test_bad_measurement_file_exits_3(tmp_path, capsys):
    junk = tmp_path / "junk.meas"
    junk.write_bytes(b"JUNK\nnot a measurement file\n")
    code, _, err = run(
        capsys, "recover", junk, "--output", tmp_path / "o.pgm",
    )
    assert code == 3
    assert "file error" in err


@pytest.mark.parametrize(
    "op, old, new",
    [
        # rebuilds a dense operator of 512 rows for a file of 307
        ("dense", b"subrate=0.3", b"subrate=0.5"),
        # a 32x32 DFT mask keeps 307 frequencies for seed 0, 308 for seed 2
        ("dft", b"seed=0", b"seed=2"),
    ],
)
def test_header_for_other_operator_exits_3(tmp_path, flat_image, capsys, op, old, new):
    meas = tmp_path / "m.meas"
    run(capsys, "measure", flat_image[0], "--output", meas, "--op", op, "--seed", "0")
    meas.write_bytes(meas.read_bytes().replace(old, new, 1))
    out = tmp_path / "o.pgm"
    code, _, err = run(capsys, "recover", meas, "--output", out)
    assert code == 3
    assert "307" in err and err.count("\n") == 1
    assert not out.exists()


def test_header_with_overflowing_shape_exits_3(tmp_path, flat_image, capsys):
    # 400 digits: the shape's pixel count does not convert to a float
    meas = tmp_path / "m.meas"
    run(capsys, "measure", flat_image[0], "--output", meas, "--seed", "0")
    meas.write_bytes(meas.read_bytes().replace(b"height=32", b"height=" + b"9" * 400, 1))
    code, _, err = run(capsys, "recover", meas, "--output", tmp_path / "o.pgm")
    assert code == 3
    assert err.startswith("file error") and err.count("\n") == 1


def test_non_finite_measurements_exit_4(tmp_path, capsys):
    op = make_operator("dense", (32, 32), 0.2, 3)
    mf = MeasurementFile(
        op_kind="dense", shape=(32, 32), subrate=0.2, seed=3,
        noise=NoiseSpec("none", 1.0, 0.1, 100.0, None),
        snr_db=math.inf, y=np.full(op.m, np.inf),
    )
    meas = tmp_path / "inf.meas"
    write_measurements(meas, mf)
    code, _, err = run(
        capsys, "recover", meas, "--output", tmp_path / "o.pgm",
        "--outer_iters", "1", "--gd_steps", "1",
    )
    assert code == 4
    assert "numerical failure" in err


def write_overflowing_file(path):
    """A dense 32x32 file whose measurements are all 1.7e308: finite, but
    the adjoint start overflows, so HX holds NaN."""
    op = make_operator("dense", (32, 32), 0.2, 3)
    write_measurements(path, MeasurementFile(
        op_kind="dense", shape=(32, 32), subrate=0.2, seed=3,
        noise=NoiseSpec("none", 1.0, 0.1, 100.0, None),
        snr_db=math.inf, y=np.full(op.m, 1.7e308),
    ))


@pytest.mark.parametrize("fidelity", FIDELITIES)
def test_overflowing_start_exits_4(tmp_path, capsys, fidelity):
    # The M-estimator's MAD scale of that residual would be NaN too.
    meas = tmp_path / "big.meas"
    write_overflowing_file(meas)
    out = tmp_path / "o.pgm"
    code, _, err = run(
        capsys, "recover", meas, "--output", out,
        "--outer_iters", "2", "--fidelity", fidelity,
    )
    assert code == 4
    assert err.startswith("numerical failure") and err.count("\n") == 1
    assert not out.exists()


def test_overflowing_start_prints_one_line_from_a_shell(tmp_path):
    """Run as its own process, so numpy's warnings would reach stderr."""
    meas = tmp_path / "big.meas"
    write_overflowing_file(meas)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "groupcs.cli", "recover", str(meas),
         "--output", str(tmp_path / "o.pgm"), "--outer_iters", "2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == ["numerical failure: non-finite HX at iteration 1"]


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# ---------------------------------------------------------------------- fuzz


FUZZ_VALUES = sorted(
    {"0", "-1", "inf", "1e308", "abc", "auto", "none"}
    | {choice for choices in (KINDS, WEIGHTINGS, INIT_WEIGHTS, FIDELITIES,
                              NOISE_MODELS, OPERATOR_KINDS) for choice in choices}
)


@given(
    command=st.sampled_from(["measure", "recover", "denoise", "sweep", "metrics"]),
    overrides=st.dictionaries(
        st.sampled_from(sorted(KEYS)), st.sampled_from(FUZZ_VALUES),
        min_size=1, max_size=3,
    ),
    iters=st.integers(1, 2),
)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzz_overrides_keep_exit_code_contract(tmp_path, monkeypatch, command,
                                                overrides, iters):
    """Any mix of bad and good override values exits 0, 2, 3 or 4."""
    monkeypatch.chdir(tmp_path)
    img_path = tmp_path / "in.pgm"
    if not img_path.exists():
        write_pgm(img_path, np.random.default_rng(5).uniform(0, 255, (32, 32)))
        assert main(["measure", str(img_path), "--output", "in.meas", "--seed", "1"]) == 0
    source = "in.meas" if command == "recover" else str(img_path)
    argv = [command, source, "--output", "out", "--ground-truth", str(img_path),
            "--tau", "1e3", "--outer_iters", str(iters), "--gd_steps", str(iters)]
    for key, value in overrides.items():
        argv += [f"--{key}", value]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects its own typed options
        code = exc.code
    assert code in (0, 2, 3, 4), argv


@given(
    cut=st.none() | st.floats(0.0, 1.0, exclude_max=True),
    edits=st.lists(
        st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255),
                  st.booleans()),
        min_size=1, max_size=3,
    ),
)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzz_corrupt_measurement_file(tmp_path, flat_image, capsys, cut, edits):
    """A truncated file exits 3; flipped or inserted bytes exit 0, 3 or 4."""
    meas = tmp_path / "m.meas"
    if not meas.exists():
        run(capsys, "measure", flat_image[0], "--output", meas, "--seed", "3",
            "--noise", "gaussian_mixture", "--target_snr_db", "20")
    raw = bytearray(meas.read_bytes())
    if cut is not None:
        raw = raw[: int(cut * len(raw))]
    else:
        # each edit xors a byte with a nonzero mask, or inserts that byte
        for where, byte, insert in edits:
            pos = int(where * len(raw))
            if insert:
                raw.insert(pos, byte)
            else:
                raw[pos] ^= byte
    bad = tmp_path / "bad.meas"
    bad.write_bytes(bytes(raw))
    code, _, _ = run(capsys, "recover", bad, "--output", tmp_path / "o.pgm",
                     "--outer_iters", "1", "--gd_steps", "2")
    if cut is not None:
        assert code == 3
    else:
        assert code in (0, 3, 4), edits
