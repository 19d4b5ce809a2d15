"""A/B benchmark: spectral reweighting against the flat-weight baseline.

Reconstructs the self-similar test image from dense Gaussian measurements
twice, once with combined penalty-over-magnitude weights and once with
all-ones weights (the convex nuclear-norm baseline), and reports the
final PSNR of each arm.  Each arm takes its own shrinkage level tau; the
solver lambda is derived from it so the two arms are comparable at their
individually sensible operating points.
"""

import argparse
import csv

import numpy as np

from groupcs import (
    GroupingConfig,
    Penalty,
    SolverConfig,
    lam_for_tau,
    make_motif_image,
    make_operator,
    psnr,
    recover,
)


def run_arm(y, op, image, weighting, tau, args, grouping):
    cfg = SolverConfig(
        lam=lam_for_tau(tau, args.mu, image.shape, grouping),
        mu=args.mu,
        penalty=Penalty("log", 1.0, 10.0),
        weighting=weighting,
        grouping=grouping,
        outer_iters=args.iters,
        gd_steps=20,
    )
    x, _ = recover(y, op, cfg, ground_truth=image)
    return psnr(x, image).psnr_db


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", type=int, default=64)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--subrates", type=float, nargs="+", default=[0.1])
    ap.add_argument("--iters", type=int, default=80)
    ap.add_argument("--mu", type=float, default=0.05)
    ap.add_argument("--tau-weighted", type=float, default=2e10,
                    help="shrinkage level for the combined-weighting arm")
    ap.add_argument("--tau-flat", type=float, default=1e3,
                    help="shrinkage level for the all-ones-weights arm")
    ap.add_argument("--csv", help="also write rows to this CSV file")
    args = ap.parse_args(argv)

    image = make_motif_image(args.side, 3)
    grouping = GroupingConfig(6, 4, 20, 60)
    rows = []
    print(f"{'subrate':>8} {'combined':>9} {'flat':>9} {'gap':>7}")
    for subrate in args.subrates:
        op = make_operator("dense", image.shape, subrate, args.seed)
        y = op.forward(image)
        weighted = run_arm(y, op, image, "combined", args.tau_weighted, args, grouping)
        flat = run_arm(y, op, image, "none", args.tau_flat, args, grouping)
        print(f"{subrate:8.2f} {weighted:9.2f} {flat:9.2f} {weighted - flat:+7.2f}")
        rows.append([repr(subrate), f"{weighted:.2f}", f"{flat:.2f}"])

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subrate", "combined_psnr_db", "flat_psnr_db"])
            writer.writerows(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
