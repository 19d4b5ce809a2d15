"""Time each stage of the X-step and of the Z-step.

Set OPENBLAS_NUM_THREADS=1 for figures comparable across machines.
X-step rows measure the self-similar test image at subrate 0.2 plus
N(0, 5^2) noise, from the adjoint of the measurements with robust weights
from its residual: one `build` of the operator (make_operator, with no
other operator held) at 1 worker and at work.WORKERS, then one
`forward`, `adjoint` and `normal` and one X-step of `gd_steps` gradient
steps per operator kind.  A kind whose recovery would not fit in
physical memory gives one `refused` row and is never built.  Z-step rows
denoise the test image plus N(0, 10^2) noise in three nested runs of the
banded path, at 1 worker and at work.WORKERS:
`match_aggregate` is patches.denoise_bands with a shrink that does
nothing, `spectra` is z_step at tau = 0, which adds every group's Gram
spectrum and the penalty sum, and `z_step` at tau = 1.5e7 adds the
reweighting sweeps and the rebuild.  The difference of two rows is the
cost of what the later run adds; matching and aggregation share a row
because the caller aggregates while the pool matches.  Each row reads
side, stage, kind, workers, groups, seconds (the median of --repeats
runs), min_s, max_s and peak_mb, with the fields that do not apply left
empty.  peak_mb, on the z_step rows only, is tracemalloc's peak over one
separate, untimed z_step call, in MiB above its input.
"""

import argparse
import csv
import statistics
import tracemalloc
from time import perf_counter

import numpy as np

from groupcs import SolverConfig, make_motif_image, make_operator, patches, work
from groupcs import q_update, x_step, z_step
from groupcs.measurement import OPERATOR_KINDS
from groupcs.solver import recovery_bytes, robust_sigma

SUBRATE = 0.2
OP_SEED = 1
NOISE_SEED = 11
TAU = 1.5e7
COLUMNS = ["side", "stage", "kind", "workers", "groups", "seconds", "min_s", "max_s", "peak_mb"]


def timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return perf_counter() - start, result


def spreads(repeats, run_once):
    """Each stage's median, min and max seconds over `repeats` calls of run_once()."""
    runs = [run_once() for _ in range(repeats)]
    stats = {"seconds": statistics.median, "min_s": min, "max_s": max}
    return {stage: {key: f"{stat([run[stage] for run in runs]):.5f}" for key, stat in stats.items()}
            for stage in runs[0]}


def build_run(side, kind):
    """A function that times one make_operator call; the operator is
    dropped before the next call."""
    return lambda: {"build": timed(make_operator, kind, (side, side), SUBRATE, OP_SEED)[0]}


def x_run(side, kind, cfg):
    """A function that times one forward, adjoint, normal and X-step."""
    image = make_motif_image(side, 3)
    op = make_operator(kind, image.shape, SUBRATE, OP_SEED)
    y = op.forward(image) + np.random.default_rng(NOISE_SEED).normal(0.0, 5.0, op.m)
    x0 = op.adjoint(y)
    hx0 = op.forward(x0)
    q = q_update(y - hx0, robust_sigma(y - hx0))
    residual, w = q * (hx0 - y), np.zeros(image.shape)
    return lambda: {
        "forward": timed(op.forward, x0)[0],
        "adjoint": timed(op.adjoint, residual)[0],
        "normal": timed(op.normal, x0, q)[0],
        "gd_steps": timed(x_step, op, y, x0, hx0, x0, w, cfg.mu, cfg.gd_steps, q)[0],
    }


def no_shrink(stack):
    """A denoise_bands shrinker that leaves every group as matched."""
    return None, lambda part: None


def z_run(noisy, cfg):
    """One run of each nested Z-step, the whole z_step last."""
    return {
        "match_aggregate": timed(patches.denoise_bands, noisy, cfg.grouping, no_shrink)[0],
        "spectra": timed(z_step, noisy, cfg, 0.0)[0],
        "z_step": timed(z_step, noisy, cfg, TAU)[0],
    }


def z_peak_mb(noisy, cfg):
    """Peak traced allocation of one untimed z_step, in MiB above its input."""
    tracemalloc.start()
    try:
        z_step(noisy, cfg, TAU)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", type=int, nargs="+", default=[64, 128])
    ap.add_argument("--kinds", nargs="+", choices=OPERATOR_KINDS, default=list(OPERATOR_KINDS))
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--csv", help="also write the rows to this CSV file")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    cfg = SolverConfig()
    rows = []

    def add(**fields):
        rows.append(fields)
        print(" ".join(f"{fields.get(c, ''):>18}" for c in COLUMNS), flush=True)

    print(" ".join(f"{c:>18}" for c in COLUMNS))
    pool_workers = work.WORKERS
    try:
        for side in args.side:
            # Z-step first: after a dense X-step has freed its operator, the
            # 64x64 Z-step stages ran up to 2x faster than in a fresh process.
            image = make_motif_image(side, 3)
            noisy = image + np.random.default_rng(NOISE_SEED).normal(0.0, 10.0, image.shape)
            groups = len(patches.reference_anchors(noisy.shape, cfg.grouping))
            for workers in sorted({1, pool_workers}):
                work.WORKERS = workers
                times = spreads(args.repeats, lambda: z_run(noisy, cfg))
                peak = f"{z_peak_mb(noisy, cfg):.1f}"
                for stage, t in times.items():
                    add(**t, side=side, stage=stage, workers=workers, groups=groups,
                        peak_mb=peak if stage == "z_step" else "")
            for kind in args.kinds:
                need = recovery_bytes(kind, (side, side), SUBRATE, cfg.grouping)
                if not work.fits_in_memory(need):
                    add(seconds="refused", side=side, kind=kind)
                    continue
                for workers in sorted({1, pool_workers}):
                    work.WORKERS = workers
                    add(**spreads(args.repeats, build_run(side, kind))["build"], side=side,
                        stage="build", kind=kind, workers=workers)
                for stage, t in spreads(args.repeats, x_run(side, kind, cfg)).items():
                    add(**t, side=side, stage=stage, kind=kind)
    finally:
        work.WORKERS = pool_workers
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
