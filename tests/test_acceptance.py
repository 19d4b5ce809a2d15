"""Acceptance gate.

Ten checks covering the full pipeline: spectral-shrinkage oracles,
penalty calculus properties, majorization descent, grouping round trips,
X-step closed forms, robust/standard equivalence, paired directional
benchmarks, convergence shape, and the scope statement.  Each check
prints one verdict line.
"""

import time

import numpy as np
import pytest

from groupcs import (
    GroupingConfig,
    NoiseSpec,
    Penalty,
    SolverConfig,
    add_noise,
    make_motif_image,
    make_operator,
    psnr,
    recover,
    wsvt,
    x_step_robust,
    x_step_standard,
)
from groupcs.lowrank import irnn_denoise_stack
from groupcs.patches import aggregate_stack, group_stack
from groupcs.penalties import rho, supergradient
from groupcs.solver import lam_for_tau, robust_sigma


def _verdict(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


BENCH_SIDE = 64


def final_psnr(y, op, cfg, truth):
    x, _ = recover(y, op, cfg, ground_truth=truth)
    return psnr(x, truth).psnr_db


# --------------------------------------------------------------- criterion 1


def test_criterion_01_wsvt_oracle_and_minimality():
    start = time.monotonic()
    rng = np.random.default_rng(99)
    worst_spec_err = 0.0
    worst_gain = -np.inf
    for _ in range(200):
        mat = rng.normal(0, 3, (3, 4))
        w = np.sort(rng.uniform(0.0, 2.0, 3))
        tau = rng.uniform(0.1, 2.0)
        out = wsvt(mat, w, tau)

        s_in = np.linalg.svd(mat, full_matrices=False)[1]
        want = np.maximum(s_in - tau * w, 0.0)
        got = np.linalg.svd(out, compute_uv=False)
        worst_spec_err = max(worst_spec_err, float(np.max(np.abs(got - want))))

        def objective(spectra):
            fit = 0.5 * np.sum((spectra - s_in) ** 2, axis=-1)
            return fit + tau * np.sum(w * spectra, axis=-1)

        base = objective(want)
        pert = np.maximum(want + rng.uniform(-0.3, 0.3, (1000, 3)), 0.0)
        pert = -np.sort(-pert, axis=-1)
        worst_gain = max(worst_gain, float(np.max(base - objective(pert))))
    elapsed = time.monotonic() - start
    ok = worst_spec_err <= 1e-8 and worst_gain <= 1e-9 and elapsed < 10.0
    _verdict(
        1, ok,
        "spectral shrinkage oracle: max spectrum error "
        f"{worst_spec_err:.2e} (<=1e-8), best perturbation gain "
        f"{worst_gain:.2e} (<=1e-9), {elapsed:.1f}s (<10s)",
    )


# --------------------------------------------------------------- criterion 2


PENALTY_SETTINGS = {
    "lp": [(1, 0.5), (0.5, 0.3), (2, 0.7), (1, 0.9), (3, 0.2)],
    "scad": [(1, 3.7), (0.5, 2.5), (2, 4.0), (1, 6.0), (3, 3.0)],
}
for _kind in ("log", "mcp", "etp", "capped_l1", "geman", "laplace"):
    PENALTY_SETTINGS[_kind] = [(1, 1.5), (0.5, 0.5), (2, 3.0), (1, 10.0), (3, 0.8)]


def _kink_points(pen):
    if pen.kind == "scad":
        return [pen.lam, pen.shape * pen.lam]
    if pen.kind == "mcp":
        return [pen.shape * pen.lam]
    if pen.kind == "capped_l1":
        return [pen.shape]
    return []


def test_criterion_02_penalty_property_suite():
    start = time.monotonic()
    grid = np.linspace(0.0, 15.0, 200)
    checked = 0
    for kind, settings in PENALTY_SETTINGS.items():
        for lam, shape in settings:
            pen = Penalty(kind, lam, shape)
            r = rho(pen, grid)
            d = supergradient(pen, grid)
            assert rho(pen, 0.0) == 0.0, f"{pen}: rho(0) != 0"
            assert np.all(np.diff(r) >= -1e-10), f"{pen}: rho not nondecreasing"
            assert np.all(np.diff(d) <= 1e-10), f"{pen}: d not nonincreasing"

            finite = np.isfinite(d)
            bound = r[finite, None] + d[finite, None] * (grid[None, :] - grid[finite, None])
            assert np.all(r[None, :] <= bound + 1e-9), f"{pen}: concavity bound broken"

            smooth = grid >= 0.2 if kind == "lp" else grid > 0.0
            for kink in _kink_points(pen):
                smooth &= np.abs(grid - kink) > 0.06
            h = 1e-5
            t = grid[smooth]
            fd = (rho(pen, t + h) - rho(pen, t - h)) / (2 * h)
            err = np.abs(fd - d[smooth]) / np.maximum(1.0, np.abs(d[smooth]))
            assert np.all(err <= 1e-4), f"{pen}: finite differences disagree"
            checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 40 and elapsed < 5.0
    _verdict(
        2, ok,
        f"penalty calculus holds for {checked}/40 kind-parameter settings "
        f"on 200-point grids, {elapsed:.1f}s (<5s)",
    )


# --------------------------------------------------------------- criterion 3


def test_criterion_03_majorization_descent():
    rng = np.random.default_rng(17)
    pen = Penalty("log", 1.0, 10.0)
    worst = -np.inf
    for i in range(100):
        base = rng.normal(0, 40, (36, 3)) @ rng.normal(0, 1, (3, 60))
        noisy = base + rng.normal(0, 20, (36, 60))
        tau = float(rng.uniform(100, 2000))
        s = np.linalg.svd(noisy, full_matrices=False)[1]
        trace = []
        # The objective after sweep k, from a run of exactly k sweeps; the
        # data term is spectral because R and Z share singular vectors.
        for sweeps in range(1, 11):
            spec = irnn_denoise_stack(
                noisy[None].copy(), pen, tau,
                weighting="combined" if i % 2 == 0 else "supergradient",
                sweeps=sweeps,
                init_weights="observation" if i % 4 < 2 else "zero",
                tol=0.0,
            )[0]
            trace.append(0.5 * float(np.sum((s - spec) ** 2))
                         + tau * float(np.sum(rho(pen, spec))))
        trace = np.asarray(trace)
        rise = np.diff(trace) / np.maximum(1.0, np.abs(trace[:-1]))
        worst = max(worst, float(np.max(rise)))
    ok = worst <= 1e-8
    _verdict(
        3, ok,
        "reweighted shrinkage objective nonincreasing over 10 sweeps x 100 "
        f"groups, worst relative rise {worst:.2e} (<=1e-8)",
    )


# --------------------------------------------------------------- criterion 4


ROUND_TRIP_CONFIGS = [
    ((64, 64), GroupingConfig(6, 4, 20, 60)),
    ((64, 64), GroupingConfig(6, 6, 20, 60)),
    ((40, 40), GroupingConfig(4, 2, 12, 30)),
    ((64, 48), GroupingConfig(8, 8, 24, 40)),
    ((40, 56), GroupingConfig(5, 3, 15, 25)),
]


def test_criterion_04_grouping_round_trip():
    rng = np.random.default_rng(23)
    trips = 0
    for shape, gcfg in ROUND_TRIP_CONFIGS:
        for _ in range(4):
            img = rng.uniform(0, 255, shape)
            patches, positions = group_stack(img, gcfg)
            side = gcfg.patch_side
            np.testing.assert_array_equal(
                aggregate_stack(patches, positions, shape, side), img
            )
            # Per-pixel contribution counts: averaging all-ones copies of
            # the same groups must give exactly one everywhere.
            np.testing.assert_array_equal(
                aggregate_stack(np.ones_like(patches), positions, shape, side),
                np.ones(shape),
            )
            trips += 1
    _verdict(
        4, trips == 20,
        f"extract/aggregate bitwise round trip on {trips}/20 images across "
        "5 grouping configs, full pixel coverage",
    )


# --------------------------------------------------------------- criterion 5


def test_criterion_05_x_step_closed_forms():
    rng = np.random.default_rng(31)
    worst_rel = 0.0
    for i in range(10):
        shape = (16, 16)
        op = make_operator("dense", shape, float(rng.uniform(0.3, 0.8)), 300 + i)
        y = rng.normal(0, 5, op.m)
        z = rng.normal(0, 5, shape)
        w = rng.normal(0, 1, shape)
        mu = 0.5
        q = rng.uniform(0.05, 1.0, op.m)
        a = op.a

        for use_q in (False, True):
            qq = q if use_q else np.ones(op.m)
            lhs = a.T @ (qq[:, None] * a) + mu * np.eye(op.n)
            want = np.linalg.solve(
                lhs, a.T @ (qq * y) + mu * (z + w).ravel()
            ).reshape(shape)

            def objective(x):
                r = y - op.forward(x)
                return 0.5 * np.sum(qq * r * r) + 0.5 * mu * np.sum((x - z - w) ** 2)

            x = np.zeros(shape)
            prev = objective(x)
            for _ in range(200):
                if use_q:
                    x = x_step_robust(y, op, z, w, qq, mu, 1, x)
                else:
                    x = x_step_standard(y, op, z, w, mu, 1, x)
                cur = objective(x)
                assert cur <= prev + 1e-9 * max(1.0, abs(prev)), "objective rose"
                prev = cur
            rel = np.linalg.norm(x - want) / np.linalg.norm(want)
            worst_rel = max(worst_rel, float(rel))
    ok = worst_rel <= 1e-6
    _verdict(
        5, ok,
        "200 exact-line-search steps match direct normal-equation solves on "
        f"10 dense systems, worst relative error {worst_rel:.2e} (<=1e-6), "
        "per-step objective monotone",
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_06_robust_equals_standard_under_unit_weights():
    img = make_motif_image(BENCH_SIDE, 3)
    op = make_operator("dense", img.shape, 0.3, 7)
    y = op.forward(img)
    base = dict(
        lam=lam_for_tau(2e9, 0.05, img.shape, GroupingConfig()), mu=0.05,
        penalty=Penalty("log", 1.0, 10.0), weighting="combined",
        outer_iters=10, gd_steps=20,
    )
    xs, ts = recover(y, op, SolverConfig(fidelity="l2", **base), ground_truth=img)
    xr, tr = recover(
        y, op, SolverConfig(fidelity="m_estimator", sigma_m=np.inf, **base),
        ground_truth=img,
    )
    same_x = np.array_equal(xs, xr)
    same_trace = all(
        a.data_fidelity == b.data_fidelity
        and a.reg_surrogate == b.reg_surrogate
        and a.x_minus_z_norm == b.x_minus_z_norm
        and a.psnr_db == b.psnr_db
        for a, b in zip(ts, tr)
    )
    unit_q = all(t.q_min == t.q_max == 1.0 for t in tr)
    _verdict(
        6, same_x and same_trace and unit_q,
        "robust path with unit weights reproduces the standard trace "
        f"bit-for-bit over {len(ts)} iterations (final iterates identical: "
        f"{same_x})",
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_07_weighting_beats_unweighted_baseline():
    start = time.monotonic()
    img = make_motif_image(BENCH_SIDE, 3)
    op = make_operator("dense", img.shape, 0.1, 7)
    y = op.forward(img)

    weighted = final_psnr(y, op, SolverConfig(
        lam=lam_for_tau(2e10, 0.05, img.shape, GroupingConfig()), mu=0.05,
        penalty=Penalty("log", 1.0, 10.0), weighting="combined",
        outer_iters=80, gd_steps=20,
    ), img)
    flat = final_psnr(y, op, SolverConfig(
        lam=lam_for_tau(1000.0, 0.05, img.shape, GroupingConfig()), mu=0.05,
        penalty=Penalty("log", 1.0, 10.0), weighting="none",
        outer_iters=80, gd_steps=20,
    ), img)
    elapsed = time.monotonic() - start
    gap = weighted - flat
    ok = gap >= 0.3 and elapsed < 300.0
    _verdict(
        7, ok,
        f"10% sampling: combined weighting {weighted:.2f} dB vs flat-weight "
        f"baseline {flat:.2f} dB, gap {gap:.2f} (>=0.3), {elapsed:.0f}s (<300s)",
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_08_robust_beats_l2_under_impulsive_noise():
    start = time.monotonic()
    img = make_motif_image(BENCH_SIDE, 3)
    op = make_operator("dft", img.shape, 0.3, 7)
    spec = NoiseSpec(
        model="gaussian_mixture", sigma=1.0, xi=0.1, kappa=100.0,
        target_snr_db=15.0,
    )
    noisy, noise, realized = add_noise(op.forward(img), spec, (7, 1))
    assert realized == pytest.approx(15.0, abs=1e-9)

    base = dict(
        lam=lam_for_tau(3e7, 0.2, img.shape, GroupingConfig()), mu=0.2,
        penalty=Penalty("log", 1.0, 10.0), weighting="combined",
        outer_iters=100, gd_steps=20,
    )
    l2 = final_psnr(noisy, op, SolverConfig(fidelity="l2", **base), img)
    robust = final_psnr(noisy, op, SolverConfig(
        fidelity="m_estimator", sigma_m=3.0 * robust_sigma(noise), **base,
    ), img)
    elapsed = time.monotonic() - start
    gap = robust - l2
    ok = gap >= 1.0 and elapsed < 300.0
    _verdict(
        8, ok,
        f"15 dB mixture noise: robust fidelity {robust:.2f} dB vs least "
        f"squares {l2:.2f} dB, gap {gap:.2f} (>=1.0), {elapsed:.0f}s (<300s)",
    )


# --------------------------------------------------------------- criterion 9


def test_criterion_09_convergence_shape():
    img = make_motif_image(BENCH_SIDE, 3)
    op = make_operator("dense", img.shape, 0.1, 7)
    y = op.forward(img)
    _, trace = recover(y, op, SolverConfig(
        lam=lam_for_tau(6e10, 0.0125, img.shape, GroupingConfig()), mu=0.0125,
        penalty=Penalty("log", 1.0, 10.0), weighting="combined",
        outer_iters=80, gd_steps=20,
    ), ground_truth=img)
    psnrs = np.array([t.psnr_db for t in trace])
    smoothed = np.convolve(psnrs, np.ones(5) / 5, mode="valid")
    tail = smoothed[smoothed.size // 2:]
    worst_dip = float(np.min(np.diff(tail)))
    ok = worst_dip >= -0.1
    _verdict(
        9, ok,
        "5-point-smoothed PSNR trace nondecreasing over the final half of "
        f"80 iterations, worst step {worst_dip:+.3f} dB (>=-0.1)",
    )


# -------------------------------------------------------------- criterion 10


def test_criterion_10_scope_statement():
    """Absolute published-table reconstruction numbers are out of scope:
    they depend on external initializers, unspecified sampling masks and
    seeds, and similarity metrics this package does not implement.  The
    gate instead relies on the property and paired-directional checks
    above, which must all be present."""
    present = [
        name for name in sorted(globals())
        if name.startswith("test_criterion_") and name != "test_criterion_10_scope_statement"
    ]
    ok = len(present) == 9
    _verdict(
        10, ok,
        f"{len(present)}/9 substitute checks present; absolute external "
        "benchmark tables documented as out of scope",
    )
