"""Time each stage of the X-step and of the Z-step.

Set OPENBLAS_NUM_THREADS=1 for figures comparable across machines.
X-step rows measure the self-similar test image at subrate 0.2 plus
N(0, 5^2) noise and start from the adjoint of the measurements, with
robust weights from that start's residual.  For each operator kind they
time one `forward`, `adjoint` and `normal`, and one X-step of `gd_steps`
gradient steps.  A kind whose recovery would not fit in physical memory
gives one `refused` row and is never built.  Z-step rows denoise the test
image plus N(0, 10^2) noise at tau = 1.5e7: `group_stack`,
`irnn_denoise_stack` and `aggregate_stack` on every group of the image
as one stack, then the whole `z_step`, at 1 worker and at
patches.WORKERS.  Each row is a median over --repeats runs: side, stage,
kind, workers, groups, seconds, peak_mb, with the fields that do not
apply left empty.  peak_mb, on the z_step rows only, is the peak of
tracemalloc's traced allocations over one separate, untimed z_step call,
in MiB above its input.

The three stage rows time the whole-image, one-band functions, which
`z_step` does not call: it streams the lattice in bands
(patches.denoise_bands), and no row times a band's patch vectors or how
much of the aggregation the pool's passes hide.  Only the z_step rows
and their peak_mb measure what `z_step` runs, so once an image has many
bands (22 at 256x256) the stage rows are not a split of a z_step row.
"""

import argparse
import csv
import statistics
import tracemalloc
from time import perf_counter

import numpy as np

from groupcs import SolverConfig, irnn_denoise_stack, make_motif_image, make_operator, patches
from groupcs import q_update, x_step, z_step
from groupcs.measurement import OPERATOR_KINDS, fits_in_memory
from groupcs.patches import aggregate_stack, group_stack, reference_anchors
from groupcs.solver import recovery_bytes, robust_sigma

SUBRATE = 0.2
OP_SEED = 1
NOISE_SEED = 11
TAU = 1.5e7
COLUMNS = ["side", "stage", "kind", "workers", "groups", "seconds", "peak_mb"]


def timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return perf_counter() - start, result


def medians(repeats, run_once):
    """Each stage's median seconds over `repeats` calls of run_once()."""
    runs = [run_once() for _ in range(repeats)]
    return {stage: statistics.median(run[stage] for run in runs) for stage in runs[0]}


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


def z_run(noisy, cfg):
    """One run of each Z-step stage, then of the whole z_step."""
    t_match, (stack, positions) = timed(group_stack, noisy, cfg.grouping)
    return {
        "group_stack": t_match,
        "irnn_denoise_stack": timed(irnn_denoise_stack, stack, cfg.penalty, TAU,
                                    weighting=cfg.weighting, init_weights=cfg.init_weights)[0],
        "aggregate_stack": timed(aggregate_stack, stack, positions, noisy.shape,
                                 cfg.grouping.patch_side)[0],
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

    def add(seconds, **fields):
        rows.append(dict(fields, seconds=seconds))
        print(" ".join(f"{rows[-1].get(c, ''):>18}" for c in COLUMNS), flush=True)

    print(" ".join(f"{c:>18}" for c in COLUMNS))
    pool_workers = patches.WORKERS
    try:
        for side in args.side:
            # Z-step first: after a dense X-step has freed its operator, the
            # 64x64 Z-step stages ran up to 2x faster than in a fresh process.
            image = make_motif_image(side, 3)
            noisy = image + np.random.default_rng(NOISE_SEED).normal(0.0, 10.0, image.shape)
            groups = len(reference_anchors(noisy.shape, cfg.grouping))
            for workers in sorted({1, pool_workers}):
                patches.WORKERS = workers
                times = medians(args.repeats, lambda: z_run(noisy, cfg))
                peak = f"{z_peak_mb(noisy, cfg):.1f}"
                for stage, t in times.items():
                    add(f"{t:.5f}", side=side, stage=stage, workers=workers, groups=groups,
                        peak_mb=peak if stage == "z_step" else "")
            for kind in args.kinds:
                if not fits_in_memory(recovery_bytes(kind, (side, side), SUBRATE, cfg.grouping)):
                    add("refused", side=side, kind=kind)
                    continue
                for stage, t in medians(args.repeats, x_run(side, kind, cfg)).items():
                    add(f"{t:.5f}", side=side, stage=stage, kind=kind)
    finally:
        patches.WORKERS = pool_workers
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
