"""End-to-end command line flows: subcommand round trips, trace files,
sweep CSVs, exit codes, and byte-level determinism."""

import csv
import math
import os
import pathlib
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from groupcs import cli, make_motif_image, work
from groupcs.cli import main
from groupcs.config import (
    KEYS, RunConfig, build_noise_spec, build_settings, build_solver_config, merge_config,
)
from groupcs.lowrank import INIT_WEIGHTS, WEIGHTINGS
from groupcs.measfile import MeasurementFile, read_measurements, write_measurements
from groupcs.measurement import (
    NOISE_MODELS, OPERATOR_KINDS, NoiseSpec, add_noise, make_operator, operator_bytes,
)
from groupcs.metrics import psnr
from groupcs.patches import GroupingConfig, stack_bytes, z_step_bytes
from groupcs.penalties import KINDS
from groupcs.pgm import read_pgm, write_pgm
from groupcs.solver import FIDELITIES, SolverConfig, recovery_bytes

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def src_env():
    """The environment of a child process that imports this tree's groupcs."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


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


def test_measure_zero_sigma_adds_no_noise(tmp_path, flat_image, capsys):
    """sigma = 0 draws no noise: the clean measurements at infinite SNR.
    No scale of zero noise meets a target SNR, so a target exits 2."""
    img_path, img = flat_image
    meas = tmp_path / "clean.meas"
    code, out, _ = run(capsys, "measure", img_path, "--output", meas, "--op", "dft",
                       "--noise", "gaussian", "--noise_sigma", "0")
    assert code == 0
    mf = read_measurements(meas)
    assert mf.snr_db == math.inf
    assert mf.noise.sigma == 0.0
    np.testing.assert_array_equal(mf.y, make_operator("dft", (32, 32), 0.3, 0).forward(img))
    meas = tmp_path / "target.meas"
    code, _, err = run(capsys, "measure", img_path, "--output", meas, "--op", "dft",
                       "--noise", "gaussian", "--noise_sigma", "0", "--target_snr_db", "15")
    assert code == 2
    assert err == ("config error: cannot add gaussian noise: "
                   "cannot rescale noise to a target SNR here\n")
    assert not meas.exists()


def test_measure_noise_norm_overflow_exits_2(tmp_path, flat_image, capsys):
    meas = tmp_path / "t.meas"
    code, _, err = run(capsys, "measure", flat_image[0], "--output", meas, "--op", "dft",
                       "--noise", "gaussian", "--noise_sigma", "1e200")
    assert code == 2
    assert err == ("config error: cannot add gaussian noise: noise norm overflows: "
                   "noise_sigma or noise_kappa is too large\n")
    assert not meas.exists()


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


def test_denoise_all_zero_image_zero_lambda(tmp_path, capsys):
    """Zero spectra with lam = 0 give zero weights, not NaN, and a flat
    image still has every reference in its own group."""
    img_path = tmp_path / "zero.pgm"
    out_img = tmp_path / "out.pgm"
    write_pgm(img_path, np.zeros((32, 32)))
    code, _, err = run(
        capsys, "denoise", img_path, "--output", out_img, "--tau", "1",
        "--lambda", "0",
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


def test_config_file_that_is_not_utf8_exits_2(tmp_path, flat_image, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"tau=1e3\n\xff\xfe=1\n")
    out = tmp_path / "o.pgm"
    code, _, err = run(capsys, "denoise", flat_image[0], "--output", out, "--config", cfg)
    assert code == 2
    assert err.startswith(f"config error: cannot read config {cfg}: 'utf-8' codec")
    assert err.count("\n") == 1
    assert not out.exists()


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


def test_sweep_none_snr_cell_has_no_target(tmp_path, flat_image, capsys, monkeypatch):
    """A swept SNR of none replaces the configured target, as 15 does."""
    img_path, _ = flat_image
    specs = []

    def record(y, spec, seed):
        specs.append(spec.target_snr_db)
        return add_noise(y, spec, seed)

    monkeypatch.setattr(cli, "add_noise", record)
    code, _, err = run(
        capsys, "sweep", img_path, "--output", tmp_path / "g.csv",
        "--noise", "gaussian", "--target_snr_db", "15", "--sweep_snrs", "none,15",
        "--outer_iters", "1", "--gd_steps", "1",
    )
    assert code == 0, err
    assert specs == [None, 15.0]


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


@pytest.mark.parametrize("command", ["recover", "denoise"])
def test_ground_truth_of_another_shape_exits_2_before_work(tmp_path, flat_image, capsys,
                                                           monkeypatch, command):
    img_path, _ = flat_image
    source = img_path
    if command == "recover":
        source = tmp_path / "m.meas"
        run(capsys, "measure", img_path, "--output", source, "--op", "dft", "--seed", "0")
    truth = tmp_path / "big.pgm"
    write_pgm(truth, np.zeros((64, 64)))

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the ground truth was checked")

    monkeypatch.setattr(cli, "make_operator", refuse)
    monkeypatch.setattr(cli, "z_step", refuse)
    out = tmp_path / "o.pgm"
    code, _, err = run(capsys, command, source, "--output", out, "--ground-truth", truth,
                       "--tau", "1")
    assert code == 2
    assert err == "config error: shape mismatch (32, 32) vs (64, 64)\n"
    assert not out.exists()


# ---------------------------------------------------------------- exit codes


@pytest.mark.parametrize("order", [
    ["--tau", "0", "IN", "--output", "OUT"],
    ["--output", "OUT", "--tau", "0", "IN"],
    ["--input", "IN", "--tau", "0", "--output", "OUT"],
])
def test_input_and_settings_in_any_order(tmp_path, flat_image, capsys, order):
    img_path, _ = flat_image
    out = tmp_path / "o.pgm"
    argv = [{"IN": img_path, "OUT": out}.get(token, token) for token in order]
    code, _, err = run(capsys, "denoise", *argv)
    assert code == 0, err
    assert out.read_bytes() == img_path.read_bytes()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--seed", "abc"], "key 'seed' wants an integer, got 'abc'"),
        (["measure", "--seed", "abc"], "key 'seed' wants an integer, got 'abc'"),
        (["sweep", "--jobs", "abc"], "key 'jobs' wants an integer, got 'abc'"),
        # keys are never abbreviated, and --key=value is not a key
        (["denoise", "--out", "x"], "unknown config key 'out'"),
        (["denoise", "--seed=1", "--tau", "0"], "unknown config key 'seed=1'"),
        (["denoise", "--tau", "0", "y"], "expected one input, got '{input}', 'y'"),
    ],
)
def test_bad_command_line_exits_2_with_one_line(tmp_path, flat_image, capsys, argv, message):
    command, *rest = argv
    code, _, err = run(capsys, command, flat_image[0], "--output", tmp_path / "o", *rest)
    assert code == 2
    assert err == f"config error: {message.format(input=flat_image[0])}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["-h"], ["denoise", "-h"], ["sweep", "in.pgm", "--help"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    usage = "usage: groupcs {measure," if argv[0] == "-h" else f"usage: groupcs {argv[0]} "
    assert out.startswith(usage)
    assert "Keys: config, fidelity" in out
    assert err == ""


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
    assert build_settings(cfg) == (RunConfig(), SolverConfig(), NoiseSpec())


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


@pytest.mark.parametrize(
    "command, argv, message",
    [
        ("measure", ["--subrate", "5"], "subrate must lie in (0, 1], got 5.0"),
        ("measure", ["--seed", "-1"], "seed must be >= 0, got -1"),
        ("sweep", ["--subrate", "5"], "subrate must lie in (0, 1], got 5.0"),
        ("sweep", ["--sweep_subrates", "0.3,0"], "subrate must lie in (0, 1], got 0.0"),
        ("sweep", ["--seed", "-1"], "seed must be >= 0, got -1"),
        ("sweep", ["--jobs", "0"], "jobs must be >= 1, got 0"),
        # l2 has no scale for a fixed sigma_m to pin
        ("recover", ["--sigma_m", "5"], "a fixed sigma_m needs fidelity m_estimator, got l2"),
        ("measure", ["--op", "dft", "--target_snr_db", "15"], "a target SNR needs a noise model"),
        ("measure", ["--noise", "gaussian", "--noise_sigma", "inf", "--target_snr_db", "15"],
         "noise sigma must be finite and >= 0"),
        ("measure", ["--noise", "gaussian_mixture", "--noise_kappa", "inf",
                     "--target_snr_db", "15"], "mixture kappa must be finite and >= 1"),
        ("measure", ["--noise", "gaussian", "--target_snr_db", "-inf"],
         "target SNR must be finite"),
        # squares to 0, so every robust weight would be 0 / 0
        ("recover", ["--fidelity", "m_estimator", "--sigma_m", "1e-200"],
         "a fixed sigma_m must be positive with a square above 0, got 1e-200"),
    ],
)
def test_bad_run_setting_exits_2_before_reading_input(tmp_path, capsys, command, argv, message):
    out = tmp_path / "out"
    code, _, err = run(capsys, command, tmp_path / "missing.pgm", "--output", out, *argv)
    assert code == 2
    assert err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["measure", "recover", "denoise", "sweep", "metrics"])
@pytest.mark.parametrize("key, value", [
    ("seed", "abc"), ("seed", "-1"), ("jobs", "0"), ("sweeps", "0"), ("subrate", "7"),
    ("op", "bogus"), ("tau", "inf"), ("sweep_kinds", "bogus"), ("mu", "-1"),
    ("noise", "bogus"),
])
def test_every_key_is_checked_on_every_subcommand(tmp_path, capsys, command, key, value):
    """A key the subcommand does not use is still parsed and checked, before
    the input is read (reading it would exit 3)."""
    out = tmp_path / "out"
    code, _, err = run(capsys, command, tmp_path / "missing.pgm", "--output", out,
                       f"--{key}", value)
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


def test_recover_ignores_sweep_kinds(tmp_path, flat_image, capsys):
    """Only a sweep's cells run with a swept kind."""
    meas = tmp_path / "m.meas"
    run(capsys, "measure", flat_image[0], "--output", meas, "--op", "dft", "--seed", "0")
    outs = []
    for extra in ([], ["--sweep_kinds", "log"]):
        out = tmp_path / f"r{len(outs)}.pgm"
        code, _, err = run(capsys, "recover", meas, "--output", out, "--kind", "mcp",
                           "--shape", "5", "--outer_iters", "2", "--gd_steps", "3", *extra)
        assert code == 0, err
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


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
        # kind and weighting are checked as given, whatever the cells sweep
        (["--kind", "lp", "--shape", "2", "--sweep_kinds", "log"],
         "lp exponent must lie in (0, 1), got 2.0"),
        (["--sweep_kinds", "lp,log", "--mu", "-1"], "mu must be finite and > 0, got -1.0"),
        (["--kind", "bogus", "--sweep_kinds", "log"],
         "penalty kind must be one of lp, scad, log, mcp, etp, capped_l1, geman, laplace; "
         "got 'bogus'"),
        (["--weighting", "bogus", "--sweep_weightings", "none"],
         "weighting must be one of supergradient, combined, none; got 'bogus'"),
        # the unset kind is log, whose slope overflows here
        (["--lambda", "1.5e308", "--shape", "0.5", "--sweep_kinds", "lp"],
         "log penalty with lam=1.5e+308, shape=0.5 has an infinite slope at 0"),
    ],
)
def test_sweep_setting_no_cell_can_meet_exits_2(tmp_path, flat_image, capsys, argv, message):
    img_path, _ = flat_image
    csv_path = tmp_path / "g.csv"
    code, _, err = run(capsys, "sweep", img_path, "--output", csv_path, *argv)
    assert code == 2
    assert err == f"config error: {message}\n"
    assert not csv_path.exists()


def test_sweep_with_no_fitting_kind_writes_failed_rows(tmp_path, flat_image, capsys):
    """A swept kind that does not fit shape fails its own cells, also when
    no swept kind fits."""
    csv_path = tmp_path / "g.csv"
    code, _, err = run(capsys, "sweep", flat_image[0], "--output", csv_path,
                       "--sweep_kinds", "lp,scad", "--shape", "2")
    assert code == 0, err
    rows = list(csv.reader(csv_path.read_text().splitlines()))[1:]
    assert [(row[2], row[4], row[6]) for row in rows] == [
        ("lp", "", "failed: lp exponent must lie in (0, 1), got 2.0"),
        ("scad", "", "failed: scad gamma must exceed 2, got 2.0"),
    ]


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


def test_two_outputs_naming_one_file_exit_2(tmp_path, capsys, monkeypatch):
    """A trace written over the reconstruction would lose it: refused
    before the (here missing) input is read."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "recover", "missing.meas", "--output", "same.out",
                         "--trace", tmp_path / "same.out")
    assert code == 2 and out == ""
    assert err.startswith("config error: two outputs name one file") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, argv, need, message", [
    ("measure", ["--op", "dense", "--subrate", "0.3"], operator_bytes("dense", (32, 32), 0.3),
     "dense operator of 307 rows of 1024 entries needs"),
    ("denoise", ["--tau", "1"], stack_bytes((32, 32), GroupingConfig()),
     "grouping a 32x32 image needs"),
])
def test_beyond_memory_exits_2(tmp_path, flat_image, capsys, monkeypatch,
                               command, argv, need, message):
    """The operator (measure) and the group stack (denoise) one byte past
    physical memory."""
    monkeypatch.setattr("groupcs.work.physical_memory", lambda: need - 1)
    out = tmp_path / "out"
    code, _, err = run(capsys, command, flat_image[0], "--output", out, *argv)
    assert code == 2
    [line] = err.splitlines()
    assert line.startswith(f"config error: {message}")
    assert line.endswith("GiB of physical memory")
    assert not out.exists()


def test_recovery_counts_operator_and_stack_together(tmp_path, flat_image, capsys,
                                                     monkeypatch):
    """With memory for the dense operator and for the Z-step
    (z_step_bytes), but not for both, recover exits 3 before the operator
    is built and the sweep cell fails."""
    img_path, _ = flat_image
    meas = tmp_path / "m.meas"
    run(capsys, "measure", img_path, "--output", meas, "--op", "dense", "--subrate", "0.3")
    op_need = operator_bytes("dense", (32, 32), 0.3)
    stack_need = z_step_bytes((32, 32), GroupingConfig())
    assert op_need + stack_need > max(op_need, stack_need) + 1
    monkeypatch.setattr("groupcs.work.physical_memory",
                        lambda: max(op_need, stack_need) + 1)
    out = tmp_path / "o.pgm"
    code, _, err = run(capsys, "recover", meas, "--output", out, "--outer_iters", "1")
    assert code == 3
    [line] = err.splitlines()
    assert line.startswith(f"file error: {meas}: recovering a 32x32 image needs")
    assert line.endswith("GiB of physical memory")
    assert not out.exists()

    csv_path = tmp_path / "s.csv"
    code, _, err = run(capsys, "sweep", img_path, "--output", csv_path, "--op", "dense",
                       "--subrate", "0.3", "--outer_iters", "1")
    assert code == 0, err
    with csv_path.open() as fh:
        [row] = csv.DictReader(fh)
    assert row["status"].startswith("failed: recovering a 32x32 image needs")


def recovery_need(subrate, shape=(32, 32)):
    """Bytes the pre-flight counts for one dense recovery at the default grouping."""
    return recovery_bytes("dense", shape, subrate, GroupingConfig())


@pytest.mark.parametrize("jobs, code", [("2", 2), ("1", 0)])
def test_sweep_counts_the_cells_jobs_runs_at_once(tmp_path, flat_image, capsys, monkeypatch,
                                                  jobs, code):
    """With memory for one and a half 32x32 dense recoveries, two cells
    are refused with --jobs 2, before either starts, and run with --jobs 1."""
    img_path, _ = flat_image
    monkeypatch.setattr("groupcs.work.physical_memory",
                        lambda: int(1.5 * recovery_need(0.3)))
    csv_path = tmp_path / "s.csv"
    got, _, err = run(capsys, "sweep", img_path, "--output", csv_path, "--op", "dense",
                      "--sweep_subrates", "0.3,0.3", "--jobs", jobs, "--outer_iters", "1")
    assert got == code, err
    if code == 2:
        [line] = err.splitlines()
        assert line.startswith("config error: running 2 sweep cells at once (--jobs 2) needs")
        assert line.endswith("GiB of physical memory")
        assert not csv_path.exists()
    else:
        with csv_path.open() as fh:
            assert [row["status"] for row in csv.DictReader(fh)] == ["ok", "ok"]


def test_sweep_leaves_a_cell_too_large_alone_out_of_the_jobs_count(tmp_path, flat_image,
                                                                    capsys, monkeypatch):
    """A cell that does not fit on its own fails as a row and is not
    counted among the cells --jobs runs at once."""
    img_path, _ = flat_image
    small, large = recovery_need(0.1), recovery_need(1.0)
    assert small < large - 1 < small + large
    monkeypatch.setattr("groupcs.work.physical_memory", lambda: large - 1)
    csv_path = tmp_path / "s.csv"
    code, _, err = run(capsys, "sweep", img_path, "--output", csv_path, "--op", "dense",
                       "--sweep_subrates", "0.1,1.0", "--jobs", "2", "--outer_iters", "1")
    assert code == 0, err
    with csv_path.open() as fh:
        small_row, large_row = csv.DictReader(fh)
    assert small_row["status"] == "ok"
    assert large_row["status"].startswith("failed: recovering a 32x32 image needs")


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


@pytest.mark.parametrize("key", ["patch", "stride", "window", "group_size"])
def test_huge_grouping_value_keeps_exit_code_contract(tmp_path, flat_image, capsys, key):
    """A grouping value past any C integer is run or refused, never a crash.
    A window that wide searches the whole image, as one of 2 * 64 + 1 does
    on a 64x64 image."""
    if key == "window":
        image = tmp_path / "m64.pgm"
        write_pgm(image, np.round(np.random.default_rng(5).uniform(0, 255, (64, 64))))
        for value, out in (("100000000000000000000", "o.pgm"), ("129", "w.pgm")):
            assert run(capsys, "denoise", image, "--output", tmp_path / out,
                       "--tau", "1e7", "--window", value) == (0, "", "")
        assert (tmp_path / "o.pgm").read_bytes() == (tmp_path / "w.pgm").read_bytes()
        return
    code, _, err = run(capsys, "denoise", flat_image[0], "--output", tmp_path / "o.pgm",
                       "--tau", "1e3", f"--{key}", "100000000000000000000")
    assert code in (0, 2)
    assert err == "" if code == 0 else err.startswith("config error") and err.count("\n") == 1


def test_recover_infeasible_grouping_exits_2(tmp_path, flat_image, capsys):
    img_path, _ = flat_image
    meas = tmp_path / "m.meas"
    run(capsys, "measure", img_path, "--output", meas, "--op", "dft", "--seed", "0")
    code, _, err = run(
        capsys, "recover", meas, "--output", tmp_path / "o.pgm", "--patch", "100",
    )
    assert code == 2
    assert "patch side 100" in err


def no_operator(*args):
    pytest.fail("an operator was built")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--group_size", "1000"], "window at (0, 0) holds 100 candidates, need group_size=1000"),
        (["--patch", "200"], "image (32, 32) smaller than patch side 200"),
        (["--solver_lambda", "1e308", "--mu", "1e-300"],
         "threshold tau = lam*K/(mu*n) overflows to inf"),
    ],
    ids=["group_size", "patch", "threshold"],
)
def test_grouping_and_threshold_refused_before_the_operator(tmp_path, flat_image, capsys,
                                                            monkeypatch, argv, message):
    """recover exits 2, and a sweep cell fails, with the message recover()
    gives, without building an operator."""
    img_path, _ = flat_image
    meas = tmp_path / "m.meas"
    run(capsys, "measure", img_path, "--output", meas, "--op", "dense", "--seed", "0")
    monkeypatch.setattr("groupcs.cli.make_operator", no_operator)
    out = tmp_path / "o.pgm"
    assert run(capsys, "recover", meas, "--output", out, *argv) == (
        2, "", f"config error: {message}\n")
    assert not out.exists()

    csv_path = tmp_path / "s.csv"
    code, _, err = run(capsys, "sweep", img_path, "--output", csv_path, "--op", "dense",
                       "--outer_iters", "1", *argv)
    assert code == 0, err
    with csv_path.open() as fh:
        [row] = csv.DictReader(fh)
    assert row["status"] == f"failed: {message}"


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


def limited_child(*argv, limit=3 << 29):
    """Run groupcs in its own process under an address-space limit (1.5
    GiB by default), a limit below physical memory that the refusals do
    not weigh."""
    return subprocess.run(
        [sys.executable, "-m", "groupcs.cli", *map(str, argv)],
        env=src_env(), capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def test_grouping_beyond_physical_memory_is_refused(tmp_path):
    """At stride 1 with 500-patch groups and a window that reaches every
    row, so that the Z-step holds every band to the end, a 1024x1024
    image needs a 147 GiB stack: denoise exits 2 and a sweep cell fails,
    before any allocation.  Run as its own process under a 2 GiB
    address-space limit, so a stack allocated anyway fails at once
    instead of filling the machine."""
    img_path = tmp_path / "big.pgm"
    write_pgm(img_path, np.random.default_rng(2).uniform(0, 255, (1024, 1024)))
    grouping = ["--stride", "1", "--window", "2049", "--group_size", "500"]
    message = "grouping a 1024x1024 image needs 147."
    limit = 2 << 30

    out = tmp_path / "o.pgm"
    proc = limited_child("denoise", img_path, "--output", out, "--tau", "1", *grouping,
                         limit=limit)
    assert proc.returncode == 2, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"config error: {message}")
    assert line.endswith("GiB of physical memory")
    assert not out.exists()

    csv_path = tmp_path / "g.csv"
    proc = limited_child("sweep", img_path, "--output", csv_path, "--op", "dft",
                         "--outer_iters", "1", *grouping, limit=limit)
    assert proc.returncode == 0, proc.stderr
    with csv_path.open() as fh:
        [row] = csv.DictReader(fh)
    assert row["status"].startswith(f"failed: {message}")


# The subrate 1.0 cells below pass the physical-memory refusals only where
# their recovery fits in physical memory.
beyond_the_limit_only = pytest.mark.skipif(
    not work.fits_in_memory(recovery_bytes("dense", (128, 128), 1.0, GroupingConfig())),
    reason="a 128x128 dense recovery at subrate 1.0 exceeds physical memory here")


@pytest.fixture
def motif128(tmp_path):
    path = tmp_path / "img128.pgm"
    write_pgm(path, make_motif_image(128, 3))
    return path


@beyond_the_limit_only
def test_measure_beyond_the_process_limit_exits_2(tmp_path, motif128):
    """A 128x128 dense operator at subrate 1.0 (2.0 GiB) passes the
    physical-memory refusal, and its allocation fails under the limit:
    exit 2 with one line, and no output."""
    out = tmp_path / "big.meas"
    proc = limited_child("measure", motif128, "--output", out, "--op", "dense",
                         "--subrate", "1.0", "--seed", "1")
    assert proc.returncode == 2, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("config error: Unable to allocate ")
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == [motif128]


@beyond_the_limit_only
def test_sweep_cell_beyond_the_process_limit_fails_as_a_row(tmp_path, motif128):
    """Under the same limit, the subrate 1.0 cell of a 128x128 dense sweep
    fails as a row, and the subrate 0.1 cell runs."""
    csv_path = tmp_path / "s.csv"
    proc = limited_child("sweep", motif128, "--output", csv_path, "--op", "dense",
                         "--sweep_subrates", "0.1,1.0", "--outer_iters", "1")
    assert proc.returncode == 0, proc.stderr
    with csv_path.open() as fh:
        small, large = csv.DictReader(fh)
    assert small["status"] == "ok"
    assert large["status"].startswith("failed: Unable to allocate ")


def test_denoise_counts_the_aggregation_arrays(tmp_path, flat_image, capsys, monkeypatch):
    """A memory that holds a 32x32 Z-step's bands (stack_bytes) but not
    also its input and the image-sized arrays of its aggregation refuses
    denoise, exit 2, before any group is matched."""
    monkeypatch.setattr("groupcs.work.physical_memory",
                        lambda: stack_bytes((32, 32), GroupingConfig()) + 24 * 32 * 32)

    def no_matcher(*args):
        pytest.fail("denoise matched groups")

    monkeypatch.setattr("groupcs.patches._matcher", no_matcher)
    out = tmp_path / "o.pgm"
    code, _, err = run(capsys, "denoise", flat_image[0], "--output", out, "--tau", "1")
    assert code == 2
    [line] = err.splitlines()
    assert line.startswith("config error: grouping a 32x32 image needs")
    assert line.endswith("GiB of physical memory")
    assert not out.exists()


def test_unwritable_output_names_the_path_once(tmp_path, flat_image, capsys):
    out = tmp_path / "missing" / "o.pgm"
    code, _, err = run(capsys, "denoise", flat_image[0], "--output", out, "--tau", "1e3")
    assert code == 3
    assert err == f"file error: [Errno 2] No such file or directory: '{out}'\n"


MISSING = "[Errno 2] No such file or directory"


@pytest.mark.parametrize("command, outputs, error", [
    ("measure", ["--output", "missing/m.meas"], f"{MISSING}: 'missing/m.meas'"),
    ("denoise", ["--output", "missing/o.pgm"], f"{MISSING}: 'missing/o.pgm'"),
    ("recover", ["--output", "missing/r.pgm"], f"{MISSING}: 'missing/r.pgm'"),
    ("recover", ["--output", "r.pgm", "--trace", "missing/t.csv"], f"{MISSING}: 'missing/t.csv'"),
    ("recover", ["--output", "."], "[Errno 21] Is a directory: '.'"),
], ids=["measure", "denoise", "recover", "recover-trace", "recover-directory"])
def test_unwritable_output_exits_3_before_any_work(tmp_path, flat_image, capsys, monkeypatch,
                                                   command, outputs, error):
    """Every output is checked before the input is read: a path that
    cannot be written exits 3 without running the work, and leaves the
    old output as it was and no temporary file."""
    meas = tmp_path / "m.meas"
    run(capsys, "measure", flat_image[0], "--output", meas, "--op", "dft", "--seed", "0")
    old = tmp_path / "r.pgm"
    old.write_bytes(b"an earlier output")
    before = sorted(tmp_path.iterdir())
    work = []
    for name in ("make_operator", "z_step", "recover"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real, **k: work.append(a) or real(*a, **k))
    monkeypatch.chdir(tmp_path)
    source = meas if command == "recover" else flat_image[0]
    code, _, err = run(capsys, command, source, *outputs, "--tau", "1e3")
    assert code == 3
    assert err == f"file error: {error}\n"
    assert work == []
    assert sorted(tmp_path.iterdir()) == before
    assert old.read_bytes() == b"an earlier output"


@pytest.mark.parametrize("existing", [None, 0o600])
def test_output_file_mode(tmp_path, flat_image, capsys, existing):
    """A new output gets 0666 less the umask; an existing one keeps its mode."""
    out = tmp_path / "o.pgm"
    if existing is not None:
        out.write_bytes(b"")
        out.chmod(existing)
    umask = os.umask(0o022)
    try:
        code, _, _ = run(capsys, "denoise", flat_image[0], "--output", out, "--tau", "0")
    finally:
        os.umask(umask)
    assert code == 0
    assert out.read_bytes() == flat_image[0].read_bytes()
    assert out.stat().st_mode & 0o777 == (existing or 0o644)


def test_sweep_unwritable_output_exits_3_before_any_cell(tmp_path, flat_image, capsys,
                                                          monkeypatch):
    cells = []
    monkeypatch.setattr(cli, "_run_cell", lambda *args: cells.append(args))
    out = tmp_path / "missing" / "g.csv"
    code, _, err = run(capsys, "sweep", flat_image[0], "--output", out)
    assert code == 3
    assert err.startswith("file error: ") and err.count("\n") == 1
    assert cells == []


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


@pytest.mark.parametrize("side", ["0", "-5"])
def test_header_with_a_side_below_1_exits_3(tmp_path, capsys, side):
    """At subrate 0.0005 a 32x32 file holds one measurement, and so would
    a 0x32 one, so only the header's own check can refuse the side."""
    img_path, meas = tmp_path / "img.pgm", tmp_path / "m.meas"
    write_pgm(img_path, make_motif_image(32))
    run(capsys, "measure", img_path, "--output", meas, "--op", "dense", "--subrate", "0.0005")
    meas.write_bytes(meas.read_bytes().replace(b"height=32", f"height={side}".encode(), 1))
    out = tmp_path / "o.pgm"
    code, _, err = run(capsys, "recover", meas, "--output", out)
    assert code == 3
    [line] = err.splitlines()
    assert line.startswith(f"file error: {meas}: bad header field")
    assert not out.exists()


@pytest.mark.parametrize("old, new, message", [
    (b"m=307", b"m=-1", "m must be >= 0, got -1"),
    (b"seed=0", b"seed=-1", "seed must be >= 0, got -1"),
    (b"snr_db=inf", b"snr_db=nan", "snr_db must be a number, got nan"),
])
def test_header_with_a_bad_count_seed_or_snr_exits_3(tmp_path, flat_image, capsys,
                                                    old, new, message):
    """A negative measurement count or seed, or a NaN SNR, is refused as a
    bad header field that names the key and the value."""
    meas = tmp_path / "m.meas"
    run(capsys, "measure", flat_image[0], "--output", meas, "--seed", "0")
    meas.write_bytes(meas.read_bytes().replace(old, new, 1))
    out = tmp_path / "o.pgm"
    code, _, err = run(capsys, "recover", meas, "--output", out)
    assert code == 3
    assert err == f"file error: {meas}: bad header field ({message})\n"
    assert not out.exists()


def test_header_claiming_a_huge_shape_exits_3(tmp_path, flat_image, capsys):
    """A 307-value 32x32 file that claims 20000x20000 passes the count
    check, but its group stack alone would take over 400 GB.  Run as its
    own process under a 2 GiB address-space limit, so a recovery that
    starts anyway fails at once instead of filling the machine."""
    meas = tmp_path / "m.meas"
    run(capsys, "measure", flat_image[0], "--output", meas, "--op", "dft", "--seed", "0")
    raw = meas.read_bytes()
    for old, new in ((b"height=32", b"height=20000"), (b"width=32", b"width=20000"),
                     (b"subrate=0.3", f"subrate={307 / 4e8!r}".encode())):
        raw = raw.replace(old, new, 1)
    meas.write_bytes(raw)
    out = tmp_path / "o.pgm"
    limit = 2 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "groupcs.cli", "recover", str(meas), "--output", str(out)],
        env=src_env(), capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 3, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"file error: {meas}: recovering a 20000x20000 image needs")
    assert line.endswith("GiB of physical memory")
    assert not out.exists()


def measure_with_entry(tmp_path, capsys, value):
    """A 64x64 dft file measured at subrate 0.3 with seed 1, entry 3 then set
    to value."""
    img_path, meas = tmp_path / "img.pgm", tmp_path / "m.meas"
    write_pgm(img_path, make_motif_image(64, 3))
    run(capsys, "measure", img_path, "--output", meas, "--op", "dft",
        "--subrate", "0.3", "--seed", "1")
    mf = read_measurements(meas)
    mf.y[3] = value
    write_measurements(meas, mf)
    return meas


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_measurements_exit_3(tmp_path, capsys, monkeypatch, value):
    """A damaged file is refused as it is read, before any operator is built."""
    meas = measure_with_entry(tmp_path, capsys, value)
    monkeypatch.setattr(cli, "make_operator", None)
    out = tmp_path / "o.pgm"
    code, _, err = run(capsys, "recover", meas, "--output", out)
    assert code == 3
    assert err == f"file error: {meas}: 1 of 1229 measurements are not finite\n"
    assert not out.exists()


def test_huge_finite_measurement_exits_4(tmp_path, capsys):
    """1e308 is valid input whose recovery overflows."""
    meas = measure_with_entry(tmp_path, capsys, 1e308)
    out = tmp_path / "o.pgm"
    code, _, err = run(capsys, "recover", meas, "--output", out,
                       "--outer_iters", "1", "--gd_steps", "1")
    assert code == 4
    assert err == "numerical failure: non-finite HX at iteration 1\n"
    assert not out.exists()


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
    proc = subprocess.run(
        [sys.executable, "-m", "groupcs.cli", "recover", str(meas),
         "--output", str(tmp_path / "o.pgm"), "--outer_iters", "2"],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == ["numerical failure: non-finite HX at iteration 1"]


def test_trace_does_not_depend_on_blas_threads(tmp_path, capsys):
    """A 128x128 dense recovery, where x - z has 16384 entries, enough
    for a BLAS dot to run threaded: its trace and image are the same
    bytes on one OpenBLAS thread and on two."""
    img_path, meas = tmp_path / "img.pgm", tmp_path / "m.meas"
    write_pgm(img_path, make_motif_image(128, 3))
    run(capsys, "measure", img_path, "--output", meas, "--op", "dense",
        "--subrate", "0.05", "--seed", "1")
    outputs = []
    for threads in ("1", "2"):
        trace, out = tmp_path / f"t{threads}.csv", tmp_path / f"r{threads}.pgm"
        proc = subprocess.run(
            [sys.executable, "-m", "groupcs.cli", "recover", str(meas), "--output", str(out),
             "--trace", str(trace), "--outer_iters", "3", "--gd_steps", "5",
             "--fidelity", "m_estimator"],
            env=dict(src_env(), OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((trace.read_bytes(), out.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("noise", ["gaussian", "gaussian_mixture"])
def test_target_snr_measurement_does_not_depend_on_blas_threads(tmp_path, noise):
    """A 256x256 dft measurement at subrate 0.5 holds 32768 entries, enough
    for a BLAS dot to run threaded: rescaled to a target SNR, its file is
    the same bytes on one OpenBLAS thread and on two."""
    img_path = tmp_path / "img.pgm"
    write_pgm(img_path, make_motif_image(256, 3))
    files = []
    for threads in ("1", "2"):
        meas = tmp_path / f"m{threads}.meas"
        proc = subprocess.run(
            [sys.executable, "-m", "groupcs.cli", "measure", str(img_path), "--output", str(meas),
             "--op", "dft", "--subrate", "0.5", "--seed", "1", "--noise", noise,
             "--target_snr_db", "20"],
            env=dict(src_env(), OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        files.append(meas.read_bytes())
    assert files[0] == files[1]


SUBCOMMAND_ERROR = "config error: subcommand must be one of measure, recover, denoise, sweep, metrics"


def test_missing_subcommand_exits_2(capsys):
    code, out, err = run(capsys)
    assert code == 2
    assert out == ""
    assert err == f"{SUBCOMMAND_ERROR}; got none\n"


@pytest.mark.parametrize("argv", [["bogus"], ["--tau", "1", "denoise"], ["Measure"]])
def test_unknown_subcommand_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"{SUBCOMMAND_ERROR}; got {argv[0]!r}\n"


def test_unknown_subcommand_prints_one_line_from_a_shell():
    proc = subprocess.run(
        [sys.executable, "-m", "groupcs.cli", "bogus"],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"{SUBCOMMAND_ERROR}; got 'bogus'"]


# ---------------------------------------------------------------------- fuzz


FUZZ_VALUES = sorted(
    {"0", "-1", "inf", "1e308", "abc", "auto", "none"}
    | {choice for choices in (KINDS, WEIGHTINGS, INIT_WEIGHTS, FIDELITIES,
                              NOISE_MODELS, OPERATOR_KINDS) for choice in choices}
)


SUBCOMMANDS = ["measure", "recover", "denoise", "sweep", "metrics"]


@given(
    # None leaves the subcommand out, so argv starts with a setting
    command=st.sampled_from(SUBCOMMANDS + [None, "bogus", "-h", "--help", "--tau"]),
    overrides=st.dictionaries(
        st.sampled_from(sorted(KEYS)), st.sampled_from(FUZZ_VALUES),
        min_size=1, max_size=3,
    ),
    iters=st.integers(1, 2),
    where=st.integers(0, 8),
)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzz_overrides_keep_exit_code_contract(tmp_path, monkeypatch, capsys, command,
                                                overrides, iters, where):
    """Any mix of bad and good override values, with the input anywhere
    among them, exits 0, 2, 3 or 4, with one line on stderr when it fails
    and none when it succeeds.  Without a subcommand first it exits 2, or
    0 with usage on stdout for -h and --help.  A measurement file that
    measure writes holds finite measurements and an SNR that is not NaN."""
    monkeypatch.chdir(tmp_path)
    img_path = tmp_path / "in.pgm"
    if not img_path.exists():
        write_pgm(img_path, np.random.default_rng(5).uniform(0, 255, (32, 32)))
        assert main(["measure", str(img_path), "--output", "in.meas", "--seed", "1"]) == 0
    source = "in.meas" if command == "recover" else str(img_path)
    pairs = [("--output", "out"), ("--ground-truth", str(img_path)), ("--tau", "1e3"),
             ("--outer_iters", str(iters)), ("--gd_steps", str(iters))]
    pairs += [(f"--{key}", value) for key, value in overrides.items()]
    pairs.insert(min(where, len(pairs)), (source,))
    argv = [*([command] if command else []), *(token for pair in pairs for token in pair)]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in ((0, 2, 3, 4) if command in SUBCOMMANDS else
                    (0,) if command in ("-h", "--help") else (2,)), argv
    assert err == "" if code == 0 else err.endswith("\n") and err.count("\n") == 1, (argv, err)
    if code == 0 and command == "measure":
        mf = read_measurements(overrides.get("output", "out"))
        assert np.all(np.isfinite(mf.y)) and not math.isnan(mf.snr_db), argv


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
