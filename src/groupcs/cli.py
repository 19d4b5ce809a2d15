"""Command line front end.

Subcommands:

    measure   image -> compressed measurements (+ optional noise)
    recover   measurements -> reconstructed image
    denoise   noisy image -> group low-rank denoised image
    sweep     grid of recover runs, one CSV row per cell
    metrics   PSNR report between two images

The first argument is the subcommand, or -h/--help for usage.  After it,
the one bare argument is the input and every other setting is a config key
given as --key value, in any order, e.g. --kind mcp --solver_lambda 0.3.
Exit codes: 0 success, 2 config error, 3 file I/O error, 4 numerical
failure.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import errno
import itertools
import os
import shutil
import sys
import tempfile
import textwrap
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .config import KEYS, ConfigError, build_settings, merge_config, parse_kv_file
from .measfile import MeasFileError, MeasurementFile, read_measurements, write_measurements
from .measurement import add_noise, make_operator, measurement_count
from .metrics import check_shapes, psnr
from .pgm import PgmError, quantize, read_pgm, write_pgm
from .solver import (
    IterStats, NumericalError, group_threshold, recover, recovery_bytes, z_step,
)
from .work import fits_in_memory, refuse_beyond_memory


# Floating-point errors end as NumericalError or a failed sweep cell, so
# numpy's warnings would only add lines to stderr.  Not "raise": block
# matching lets distances overflow to +inf on purpose.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")
# Refusals (exit 2, MemoryError too) and numerical failures (exit 4); either
# fails a sweep cell.  LinAlgError is a ValueError, so main sorts _NUMERICAL first.
_REFUSED = (ValueError, OverflowError)
_NUMERICAL = (NumericalError, np.linalg.LinAlgError)


def _load_config(tokens):
    """The config given by the command line after the subcommand, or None
    when it asks for help (-h or --help where a key may stand).

    The one bare token is the input; each --key takes the next token as
    its value, with '-' in the key read as '_'.  The `config` key names a
    key=value file, and the command line is applied on top of it.
    """
    pairs, inputs = {}, []
    tokens = iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if token.startswith("--"):
            key, value = token[2:].replace("-", "_"), next(tokens, None)
            if value is None:
                raise ConfigError(f"dangling override near {token!r}")
        else:
            key, value = "input", token
            inputs.append(token)
        pairs[key] = value
    path = pairs.pop("config", None)
    cfg = merge_config(parse_kv_file(path) if path else {}, pairs)
    # After the key check, so '--key=value next' names the unknown key
    # rather than the value it left bare.
    if len(inputs) > 1:
        raise ConfigError(f"expected one input, got {', '.join(map(repr, inputs))}")
    return cfg


@contextlib.contextmanager
def _outputs(*paths):
    """Temporary files beside each output path (None for an output not
    asked for), made before any input is read so a bad path fails before
    the work.  Each is moved onto its output if the block succeeds, and
    removed otherwise, so a failed run leaves the old output or none.
    Two outputs that resolve to one file are refused with ValueError."""
    given = [path for path in paths if path]
    if len(set(map(os.path.realpath, given))) < len(given):
        raise ValueError(f"two outputs name one file: {', '.join(map(str, given))}")
    temps = []
    try:
        for path in paths:
            temps.append(path and _temp_beside(path))
        yield temps
        for temp, path in zip(temps, paths):
            if temp:
                os.replace(temp, path)
    finally:
        for temp in temps:
            if temp:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(temp)


def _temp_beside(path):
    # An empty file with the mode writing `path` would give: an existing
    # output's own, else 0666 less the umask.  A failure names the output,
    # not the temporary file; a directory would only fail at the replace.
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        fd, temp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp",
                                    dir=os.path.dirname(path) or ".")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    os.close(fd)
    try:
        shutil.copymode(path, temp)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(temp, 0o666 & ~umask)
    return temp


def _measure(image, run, subrate, nspec):
    """(operator, noisy measurements, realized SNR) of image at subrate.

    The operator is run's op at run's seed; the noise is drawn with the
    seed (run.seed, 1).  Raises ValueError when either cannot be made.
    """
    op = make_operator(run.op, image.shape, subrate, run.seed)
    try:
        noisy, _, snr_db = add_noise(op.forward(image), nspec, (run.seed, 1))
    except _REFUSED as exc:
        raise ValueError(f"cannot add {nspec.model} noise: {exc}") from exc
    return op, noisy, snr_db


def cmd_measure(run, scfg, nspec):
    with _outputs(run.required("output")) as (output,):
        image = read_pgm(run.required("input"))
        op, noisy, snr_db = _measure(image, run, run.subrate, nspec)
        write_measurements(output, MeasurementFile(
            op_kind=run.op, shape=op.shape, subrate=run.subrate, seed=run.seed,
            noise=nspec, snr_db=snr_db, y=noisy,
        ))
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


def _refuse_sweep_beyond_memory(run, shape, grouping, subrates):
    """Raise ValueError when the recoveries `--jobs` runs at once, the
    largest ones counted, would not fit in physical memory together.  A
    cell too large on its own is left out: it fails alone, before its
    operator is built."""
    needs = [recovery_bytes(run.op, shape, subrate, grouping) for subrate in subrates]
    fitting = sorted((need for need in needs if fits_in_memory(need)), reverse=True)
    at_once = min(run.jobs, len(fitting))
    refuse_beyond_memory(sum(fitting[:at_once]),
                         f"running {at_once} sweep cells at once (--jobs {run.jobs})")


def _operator_for(mf, meas_path, scfg):
    """Rebuild the operator of a measurement file, checking its header,
    that a recovery at its shape fits in physical memory, and that scfg's
    grouping and threshold fit that shape."""
    m, (h, w) = mf.y.shape[0], mf.shape
    # Checked before the operator is built, so a damaged header cannot
    # start a large allocation.  The masked DFT may take one more.
    try:
        want = measurement_count(mf.shape, mf.subrate)
    except _REFUSED as exc:
        raise MeasFileError(f"{meas_path}: {exc}") from exc
    if not 0 <= m - want <= 1:
        raise MeasFileError(
            f"{meas_path}: {m} measurements do not fit subrate {mf.subrate} "
            f"of a {h}x{w} image"
        )
    try:
        refuse_beyond_memory(recovery_bytes(mf.op_kind, mf.shape, mf.subrate, scfg.grouping),
                             f"recovering a {h}x{w} image")
    except ValueError as exc:
        raise MeasFileError(f"{meas_path}: {exc}") from exc
    # Not wrapped: a grouping or threshold the shape cannot take is a config
    # error (exit 2), and is refused before the operator is built.
    group_threshold(scfg, mf.shape)
    try:
        op = make_operator(mf.op_kind, mf.shape, mf.subrate, mf.seed)
    except ValueError as exc:
        raise MeasFileError(f"{meas_path}: {exc}") from exc
    if op.m != m:
        raise MeasFileError(f"{meas_path}: header rebuilds an operator with {op.m} "
                            f"measurements, file holds {m}")
    return op


def cmd_recover(run, scfg, nspec):
    with _outputs(run.required("output"), run.trace) as (output, trace_path):
        gt = read_pgm(run.ground_truth) if run.ground_truth else None
        meas_path = run.required("input")
        mf = read_measurements(meas_path)
        if gt is not None:
            check_shapes(mf.shape, gt.shape)
        x, trace = recover(mf.y, _operator_for(mf, meas_path, scfg), scfg,
                           ground_truth=gt)
        write_pgm(output, x)
        if trace_path:
            _write_trace(trace_path, trace, scfg.fidelity)
    if gt is not None:
        print(f"psnr_db={psnr(quantize(x), gt).psnr_db:.2f}")
    return 0


def cmd_denoise(run, scfg, nspec):
    tau = run.required("tau")
    with _outputs(run.required("output")) as (output,):
        image = read_pgm(run.required("input"))
        gt = read_pgm(run.ground_truth) if run.ground_truth else None
        if gt is not None:
            check_shapes(image.shape, gt.shape)
        z, _ = z_step(image, scfg, tau, sweeps=run.sweeps)
        write_pgm(output, z)
    if gt is not None:
        print(f"psnr_db={psnr(quantize(z), gt).psnr_db:.2f}")
    return 0


def _run_cell(image, run, nspec, scfg, cell):
    subrate, snr, kind_name, weighting = cell
    # A grouping the image cannot take, its stack too large included, or a
    # threshold that overflows fails the cell before the recovery is counted.
    group_threshold(scfg, image.shape)
    refuse_beyond_memory(recovery_bytes(run.op, image.shape, subrate, scfg.grouping),
                         "recovering a {}x{} image".format(*image.shape))
    op, noisy, _ = _measure(image, run, subrate, dataclasses.replace(nspec, target_snr_db=snr))
    penalty = dataclasses.replace(scfg.penalty, kind=kind_name)
    scfg = dataclasses.replace(scfg, penalty=penalty, weighting=weighting)
    x, _ = recover(noisy, op, scfg, ground_truth=image)
    return psnr(quantize(x), image).psnr_db


def cmd_sweep(run, scfg, nspec):
    cells = list(itertools.product(
        run.sweep_subrates or [run.subrate], run.sweep_snrs or [nspec.target_snr_db],
        run.sweep_kinds or [scfg.penalty.kind], run.sweep_weightings or [scfg.weighting],
    ))

    def timed(image, cell):
        start = time.monotonic()
        try:
            with np.errstate(**_QUIET):  # worker threads start from numpy's defaults
                value = _run_cell(image, run, nspec, scfg, cell)
            return f"{value:.2f}", time.monotonic() - start, "ok"
        except _REFUSED + _NUMERICAL + (MemoryError,) as exc:
            return "", time.monotonic() - start, f"failed: {exc}"

    with _outputs(run.required("output")) as (output,):
        image = read_pgm(run.required("input"))
        _refuse_sweep_beyond_memory(run, image.shape, scfg.grouping,
                                    [subrate for subrate, *_ in cells])
        with ThreadPoolExecutor(max_workers=run.jobs) as pool:
            results = list(pool.map(timed, itertools.repeat(image), cells))
        with open(output, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subrate", "snr_db", "kind", "weighting", "psnr_db", "wall_s",
                             "status"])
            for (subrate, snr, kind_name, weighting), (val, wall, status) in zip(cells, results):
                writer.writerow([repr(subrate), "" if snr is None else repr(snr), kind_name,
                                 weighting, val, f"{wall:.3f}", status])
    return 0


def cmd_metrics(run, scfg, nspec):
    image = read_pgm(run.required("input"))
    reference = read_pgm(run.required("ground_truth"))
    report = psnr(image, reference)
    print(f"psnr_db={report.psnr_db:.2f} mse={report.mse!r}")
    return 0


_COMMANDS = {
    "measure": (cmd_measure, "compress an image into a measurement file"),
    "recover": (cmd_recover, "reconstruct an image from a measurement file"),
    "denoise": (cmd_denoise, "one group low-rank denoising pass over an image"),
    "sweep": (cmd_sweep, "grid of recoveries, summarized as CSV"),
    "metrics": (cmd_metrics, "PSNR between two images"),
}


def _usage(command=None):
    """Usage text of groupcs, or of one of its subcommands."""
    names = [command] if command else list(_COMMANDS)
    head = command or "{" + ",".join(names) + "}"
    lines = [f"usage: groupcs {head} [input] [--key value ...]", "",
             *(f"  {name:<9}{_COMMANDS[name][1]}" for name in names), ""]
    return "\n".join(lines) + "\n" + textwrap.fill(
        "The one bare argument is the input; every other setting is --key value, in any "
        "order, applied on top of the key=value file named by --config.  Keys: config, "
        + ", ".join(sorted(KEYS)) + ".")


def main(argv=None):
    """Run the subcommand argv[0] on the settings after it; return the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        print(_usage())
        return 0
    try:
        if command not in _COMMANDS:
            raise ConfigError(f"subcommand must be one of {', '.join(_COMMANDS)}; "
                              f"got {'none' if command is None else repr(command)}")
        cfg = _load_config(argv[1:])
        if cfg is None:
            print(_usage(command))
            return 0
        with np.errstate(**_QUIET):
            return _COMMANDS[command][0](*build_settings(cfg))
    except (PgmError, MeasFileError, OSError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3
    except _NUMERICAL as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except _REFUSED + (MemoryError,) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
