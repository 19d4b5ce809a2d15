"""Time the X-step's operator products for each operator kind.

Measures the self-similar test image at subrate 0.2 plus N(0, 5^2) noise
and starts from the adjoint of the measurements, with robust weights
from that start's residual.  For each side and operator kind it prints
the median over --repeats runs of one `forward`, one `adjoint`, one
`normal` and one X-step of the default 20 gradient steps.  A kind whose
recovery would not fit in physical memory (dense at 256x256 on an 8 GiB
machine) is reported as refused and never built.  Timings depend on the
BLAS thread count; set OPENBLAS_NUM_THREADS=1 (or the variable of the
BLAS in use) for figures comparable across machines.
"""

import argparse
import csv
import statistics
from time import perf_counter

import numpy as np

from groupcs import SolverConfig, make_motif_image, make_operator, q_update
from groupcs.measurement import OPERATOR_KINDS, fits_in_memory
from groupcs.solver import _x_iterate, recovery_bytes, robust_sigma

SUBRATE = 0.2
OP_SEED = 1
NOISE_SIGMA = 5.0
NOISE_SEED = 11
COLUMNS = ["side", "kind", "forward_s", "adjoint_s", "normal_s", "x_iterate_s"]


def median_time(repeats, fn, *args):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn(*args)
        times.append(perf_counter() - start)
    return statistics.median(times)


def split(side, kind, cfg, repeats):
    """Median seconds of forward, adjoint, normal and one X-step, or None
    when a recovery of this size would not fit in physical memory."""
    shape = (side, side)
    if not fits_in_memory(recovery_bytes(kind, shape, SUBRATE, cfg.grouping)):
        return None
    image = make_motif_image(side, 3)
    op = make_operator(kind, shape, SUBRATE, OP_SEED)
    y = op.forward(image) + np.random.default_rng(NOISE_SEED).normal(0.0, NOISE_SIGMA, op.m)
    x0 = op.adjoint(y)
    hx0 = op.forward(x0)
    q = q_update(y - hx0, robust_sigma(y - hx0))
    w = np.zeros(shape)
    return [median_time(repeats, op.forward, x0),
            median_time(repeats, op.adjoint, q * (hx0 - y)),
            median_time(repeats, op.normal, x0, q),
            median_time(repeats, _x_iterate, op, y, x0, hx0, x0, w, cfg.mu, cfg.gd_steps, q)]


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
    print(" ".join(f"{c:>12}" for c in COLUMNS))
    for side in args.side:
        for kind in args.kinds:
            seconds = split(side, kind, cfg, args.repeats)
            times = ["refused"] * 4 if seconds is None else [f"{t:.5f}" for t in seconds]
            rows.append([str(side), kind] + times)
            print(" ".join(f"{v:>12}" for v in rows[-1]), flush=True)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(COLUMNS)
            writer.writerows(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
