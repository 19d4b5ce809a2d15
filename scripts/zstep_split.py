"""Time each stage of one Z-step: matching, group shrinkage, aggregation.

Denoises the self-similar test image plus N(0, 10^2) noise at
tau = 1.5e7 with the default solver settings, and prints the median over
--repeats runs of each stage's wall time next to the whole `z_step`
call.  The stages run on the same inputs `z_step` hands them, so their
sum is close to, but not exactly, the `z_step` time.  One row runs the
passes on 1 worker and one on patches.WORKERS (the CPUs this process may
use), when that is more; matching and shrinkage split across workers,
aggregation stays serial.  Timings depend on the BLAS thread count; set
OPENBLAS_NUM_THREADS=1 (or the variable of the BLAS in use) for figures
comparable across machines.
"""

import argparse
import csv
import statistics
from time import perf_counter

import numpy as np

from groupcs import SolverConfig, irnn_denoise_stack, make_motif_image, patches, z_step
from groupcs.patches import aggregate_stack, group_stack

TAU = 1.5e7
NOISE_SIGMA = 10.0
NOISE_SEED = 11
COLUMNS = ["side", "workers", "groups", "group_stack_s", "irnn_denoise_stack_s",
           "aggregate_stack_s", "z_step_s"]


def timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return perf_counter() - start, result


def split_once(noisy, cfg):
    """Seconds of each stage, then of the whole z_step, for one run."""
    grouping = cfg.grouping
    t_match, (stack, positions) = timed(group_stack, noisy, grouping)
    t_shrink, _ = timed(irnn_denoise_stack, stack, cfg.penalty, TAU,
                        weighting=cfg.weighting, init_weights=cfg.init_weights)
    t_aggregate, _ = timed(aggregate_stack, stack, positions, noisy.shape,
                           grouping.patch_side)
    t_total, _ = timed(z_step, noisy, cfg, TAU)
    return len(stack), [t_match, t_shrink, t_aggregate, t_total]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", type=int, default=128)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--csv", help="also write the rows to this CSV file")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    image = make_motif_image(args.side, 3)
    noisy = image + np.random.default_rng(NOISE_SEED).normal(0.0, NOISE_SIGMA, image.shape)
    cfg = SolverConfig()
    table = []
    pool_workers = patches.WORKERS
    try:
        for workers in sorted({1, pool_workers}):
            patches.WORKERS = workers
            runs = []
            for _ in range(args.repeats):
                groups, seconds = split_once(noisy, cfg)
                runs.append(seconds)
            medians = [statistics.median(stage) for stage in zip(*runs)]
            table.append([str(args.side), str(workers), str(groups)]
                         + [f"{t:.4f}" for t in medians])
    finally:
        patches.WORKERS = pool_workers
    print(" ".join(f"{c:>20}" for c in COLUMNS))
    for row in table:
        print(" ".join(f"{v:>20}" for v in row))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(COLUMNS)
            writer.writerows(table)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
