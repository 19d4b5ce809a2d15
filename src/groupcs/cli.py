"""Command line front end.

Subcommands:

    measure   image -> compressed measurements (+ optional noise)
    recover   measurements -> reconstructed image
    denoise   noisy image -> group low-rank denoised image
    sweep     grid of recover runs, one CSV row per cell
    metrics   PSNR report between two images

Any config key can be overridden on the command line as --key value,
e.g. --kind mcp --solver_lambda 0.3.  Exit codes: 0 success, 2 config
error, 3 file I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
import time

import numpy as np

from .config import (
    ConfigError, as_choice, as_float, as_float_list, as_int, as_str_list,
    build_grouping, build_noise_spec, build_penalty, build_solver_config,
    merge_config, need, parse_kv_file,
)
from .measfile import MeasFileError, MeasurementFile, read_measurements, write_measurements
from .lowrank import WEIGHTINGS
from .measurement import OPERATOR_KINDS, add_noise, make_operator, measurement_count
from .metrics import psnr
from .patches import GroupingError
from .penalties import KINDS
from .pgm import PgmError, read_pgm, write_pgm
from .solver import IterStats, NumericalError, ThresholdError, recover, z_step


def _quantize(image):
    # Must mirror the PGM writer exactly so reported PSNR matches the file.
    return np.floor(np.clip(image, 0.0, 255.0) + 0.5)


def _parse_overrides(extras):
    if len(extras) % 2 != 0:
        raise ConfigError(f"dangling override near {extras[-1]!r}")
    out = {}
    for flag, value in zip(extras[::2], extras[1::2]):
        if not flag.startswith("--"):
            raise ConfigError(f"expected --key value override, got {flag!r}")
        out[flag[2:].replace("-", "_")] = value
    return out


def _load_config(args, extras):
    file_pairs = parse_kv_file(args.config) if args.config else {}
    overrides = _parse_overrides(extras)
    for key, value in (
        ("input", args.input),
        ("seed", args.seed),
        ("output", args.output),
        ("trace", args.trace),
        ("ground_truth", args.ground_truth),
        ("jobs", args.jobs),
    ):
        if value is not None:
            overrides[key] = str(value)
    return merge_config(file_pairs, overrides)


def cmd_measure(cfg):
    image = read_pgm(need(cfg, "input"))
    kind = as_choice(cfg, "op", OPERATOR_KINDS)
    subrate = as_float(cfg, "subrate")
    seed = as_int(cfg, "seed")
    try:
        op = make_operator(kind, image.shape, subrate, seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    nspec = build_noise_spec(cfg)
    y = op.forward(image)
    try:
        noisy, _, snr_db = add_noise(y, nspec, (seed, 1))
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot add {nspec.model} noise: {exc}") from exc
    mf = MeasurementFile(
        op_kind=kind, shape=op.shape, subrate=subrate, seed=seed,
        noise=nspec, snr_db=snr_db, y=noisy,
    )
    write_measurements(need(cfg, "output"), mf)
    print(f"m={op.m} n={op.n} snr_db={snr_db!r}")
    return 0


def _format_stat(name, value):
    if name == "psnr_db":
        return f"{value:.2f}"
    return repr(value) if isinstance(value, float) else str(value)


def _write_trace(path, trace, fidelity):
    # One column per IterStats field, in declaration order, leaving out
    # stats this run never set (psnr_db without ground truth, q_* for l2).
    names = [
        f.name for f in dataclasses.fields(IterStats)
        if any(getattr(st, f.name) is not None for st in trace)
    ]
    with open(path, "w", newline="") as fh:
        fh.write(f"# fidelity={fidelity}\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        for st in trace:
            writer.writerow([_format_stat(n, getattr(st, n)) for n in names])


def _recover_from_file(cfg, meas_path, ground_truth):
    mf = read_measurements(meas_path)
    m, (h, w) = mf.y.shape[0], mf.shape
    # Checked before the operator is built, so a damaged header cannot
    # start a large allocation.  The masked DFT may take one more.
    try:
        want = measurement_count(mf.shape, mf.subrate)
    except (ValueError, OverflowError) as exc:
        raise MeasFileError(f"{meas_path}: {exc}") from exc
    if not 0 <= m - want <= 1:
        raise MeasFileError(
            f"{meas_path}: {m} measurements do not fit subrate {mf.subrate} "
            f"of a {h}x{w} image"
        )
    try:
        op = make_operator(mf.op_kind, mf.shape, mf.subrate, mf.seed)
    except ValueError as exc:
        raise MeasFileError(f"{meas_path}: {exc}") from exc
    if op.m != m:
        raise MeasFileError(f"{meas_path}: header rebuilds an operator with {op.m} "
                            f"measurements, file holds {m}")
    scfg = build_solver_config(cfg)
    return recover(mf.y, op, scfg, ground_truth=ground_truth), scfg


def cmd_recover(cfg):
    gt_path = cfg.get("ground_truth")
    gt = read_pgm(gt_path) if gt_path else None
    (x, trace), scfg = _recover_from_file(cfg, need(cfg, "input"), gt)
    write_pgm(need(cfg, "output"), x)
    if cfg.get("trace"):
        _write_trace(cfg["trace"], trace, scfg.fidelity)
    if gt is not None:
        print(f"psnr_db={psnr(_quantize(x), gt).psnr_db:.2f}")
    return 0


def cmd_denoise(cfg):
    scfg = build_solver_config(cfg)
    tau = as_float(cfg, "tau")
    if not (math.isfinite(tau) and tau >= 0):
        raise ConfigError(f"tau must be finite and >= 0, got {tau}")
    sweeps = as_int(cfg, "sweeps")
    if sweeps < 1:
        raise ConfigError(f"sweeps must be >= 1, got {sweeps}")
    image = read_pgm(need(cfg, "input"))
    z, _ = z_step(image, scfg, tau, sweeps=sweeps)
    write_pgm(need(cfg, "output"), z)
    gt_path = cfg.get("ground_truth")
    if gt_path:
        print(f"psnr_db={psnr(_quantize(z), read_pgm(gt_path)).psnr_db:.2f}")
    return 0


def _sweep_grid(cfg):
    subrates = (
        as_float_list(cfg, "sweep_subrates")
        if cfg.get("sweep_subrates") is not None
        else [as_float(cfg, "subrate")]
    )
    if cfg.get("sweep_snrs") is not None:
        snrs = as_float_list(cfg, "sweep_snrs", allow_none_token=True)
    else:
        snrs = [as_float(cfg, "target_snr_db")] if cfg.get("target_snr_db") else [None]
    kinds = (
        as_str_list(cfg, "sweep_kinds", KINDS)
        if cfg.get("sweep_kinds") is not None
        else [as_choice(cfg, "kind", KINDS)]
    )
    weightings = (
        as_str_list(cfg, "sweep_weightings", WEIGHTINGS)
        if cfg.get("sweep_weightings") is not None
        else [as_choice(cfg, "weighting", WEIGHTINGS)]
    )
    return [
        (s, t, k, wg)
        for s in subrates
        for t in snrs
        for k in kinds
        for wg in weightings
    ]


def _run_cell(cfg, image, cell):
    subrate, snr, kind_name, weighting = cell
    cell_cfg = dict(cfg)
    cell_cfg["subrate"] = repr(subrate)
    cell_cfg["kind"] = kind_name
    cell_cfg["weighting"] = weighting
    if snr is not None:
        cell_cfg["target_snr_db"] = repr(snr)
        if cell_cfg.get("noise") in (None, "none"):
            raise ConfigError("sweep over SNR needs a noise model")
    op_kind = as_choice(cell_cfg, "op", OPERATOR_KINDS)
    seed = as_int(cell_cfg, "seed")
    op = make_operator(op_kind, image.shape, subrate, seed)
    nspec = build_noise_spec(cell_cfg)
    noisy, _, _ = add_noise(op.forward(image), nspec, (seed, 1))
    scfg = build_solver_config(cell_cfg)
    x, _ = recover(noisy, op, scfg, ground_truth=image)
    return psnr(_quantize(x), image).psnr_db


def cmd_sweep(cfg):
    image = read_pgm(need(cfg, "input"))
    cells = _sweep_grid(cfg)
    jobs = as_int(cfg, "jobs")

    def run(cell):
        start = time.monotonic()
        try:
            value = _run_cell(cfg, image, cell)
            return f"{value:.2f}", time.monotonic() - start, "ok"
        except (ConfigError, ValueError, OverflowError, NumericalError,
                np.linalg.LinAlgError) as exc:
            return "", time.monotonic() - start, f"failed: {exc}"

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, cells))
    else:
        results = [run(cell) for cell in cells]

    with open(need(cfg, "output"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["subrate", "snr_db", "kind", "weighting", "psnr_db", "wall_s", "status"]
        )
        for (subrate, snr, kind_name, weighting), (val, wall, status) in zip(
            cells, results
        ):
            writer.writerow(
                [
                    repr(subrate),
                    "" if snr is None else repr(snr),
                    kind_name,
                    weighting,
                    val,
                    f"{wall:.3f}",
                    status,
                ]
            )
    return 0


def cmd_metrics(cfg):
    image = read_pgm(need(cfg, "input"))
    reference = read_pgm(need(cfg, "ground_truth"))
    try:
        report = psnr(image, reference)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"psnr_db={report.psnr_db:.2f} mse={report.mse!r}")
    return 0


_COMMANDS = {
    "measure": cmd_measure,
    "recover": cmd_recover,
    "denoise": cmd_denoise,
    "sweep": cmd_sweep,
    "metrics": cmd_metrics,
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", nargs="?", help="input file (or config key 'input')")
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--seed", type=int, help="RNG seed")
    common.add_argument("--output", help="output file path")
    common.add_argument("--trace", help="per-iteration CSV trace path")
    common.add_argument("--ground-truth", dest="ground_truth",
                        help="reference image for PSNR")
    common.add_argument("--jobs", type=int, help="sweep cells run in parallel")
    parser = argparse.ArgumentParser(
        prog="groupcs",
        description="Compressed-sensing recovery with group low-rank patches.",
        epilog="Any config key can be overridden as --key value.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("measure", parents=[common],
                   help="compress an image into a measurement file")
    sub.add_parser("recover", parents=[common],
                   help="reconstruct an image from a measurement file")
    sub.add_parser("denoise", parents=[common],
                   help="one group low-rank denoising pass over an image")
    sub.add_parser("sweep", parents=[common],
                   help="grid of recoveries, summarized as CSV")
    sub.add_parser("metrics", parents=[common], help="PSNR between two images")
    return parser


def main(argv=None):
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        cfg = _load_config(args, extras)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, GroupingError, ThresholdError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PgmError, MeasFileError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        name = getattr(exc, "filename", None)
        where = f" ({name})" if name else ""
        print(f"file error: {exc}{where}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
