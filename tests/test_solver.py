"""Solver building blocks: X-step against closed-form solves, robust
weights, Z-step semantics, multiplier recurrence, and small end-to-end
recoveries."""

import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from conftest import brute_force_match, gram_shrink, held_pool, patch_at

import groupcs.work
from groupcs import (
    GroupingConfig,
    Penalty,
    SolverConfig,
    aggregate_stack,
    make_motif_image,
    make_operator,
    multiplier_update,
    psnr,
    q_update,
    recover,
    rho,
    tau_from_config,
    x_step,
    z_step,
)
from groupcs import patches
from groupcs.measurement import DenseGaussianOp
from groupcs.patches import reference_anchors
from groupcs.solver import (
    Q_FLOOR, NumericalError, ThresholdError, lam_for_tau, recovery_bytes, robust_sigma,
)


class IdentityOp:
    """Minimal duck-typed operator: measurements are the pixels."""

    def __init__(self, shape):
        self.shape = shape
        self.n = shape[0] * shape[1]
        self.m = self.n

    def forward(self, image):
        return np.asarray(image, dtype=float).ravel().copy()

    def adjoint(self, y):
        return np.asarray(y, dtype=float).reshape(self.shape).copy()

    def normal(self, image, q):
        hx = self.forward(image)
        return hx, self.adjoint(q * hx)


def closed_form(op, y, z, w, mu, q=None):
    """Oracle: solve (H^T Q H + mu I) x = H^T Q y + mu (z + w) directly."""
    a = op.a
    if q is None:
        q = np.ones(op.m)
    lhs = a.T @ (q[:, None] * a) + mu * np.eye(op.n)
    rhs = a.T @ (q * y) + mu * (z + w).ravel()
    return np.linalg.solve(lhs, rhs).reshape(op.shape)


def small_cfg(**over):
    kw = dict(
        lam=1.0,
        mu=0.5,
        penalty=Penalty("log", 1.0, 10.0),
        weighting="combined",
        grouping=GroupingConfig(patch_side=3, stride=2, window_side=8, group_size=10),
        outer_iters=3,
        gd_steps=10,
    )
    kw.update(over)
    return SolverConfig(**kw)


# ------------------------------------------------------------- tau arithmetic


def test_tau_cancellation():
    # lam = mu and K = n_pixels cancel exactly
    cfg = small_cfg(lam=0.7, mu=0.7, grouping=GroupingConfig(2, 2, 4, 3))
    n_groups = 10
    k = n_groups * 3 * 4
    assert tau_from_config(cfg, n_groups, k) == 1.0


def test_tau_frozen_arithmetic():
    cfg = small_cfg(
        lam=0.01, mu=0.001, grouping=GroupingConfig(6, 4, 20, 60)
    )
    # 64 groups of 60 patches of 36 pixels over 1024 pixels
    assert tau_from_config(cfg, 64, 1024) == pytest.approx(1350.0, rel=1e-12)
    # a 32x32 image has those 64 groups, and lam_for_tau inverts tau there
    lam = lam_for_tau(1350.0, 0.001, (32, 32), cfg.grouping)
    assert tau_from_config(small_cfg(lam=lam, mu=0.001, grouping=cfg.grouping),
                           64, 1024) == 1350.0


def test_tau_mu_homogeneity():
    a = small_cfg(lam=2.0, mu=0.1)
    b = small_cfg(lam=2.0, mu=0.2)
    assert tau_from_config(a, 7, 100) == pytest.approx(
        2 * tau_from_config(b, 7, 100), rel=1e-12
    )


# ------------------------------------------------------------------- X-steps


def step_from(op, y, x0, z, w, mu, steps, q):
    """x_step from x0, with its precondition hx0 = H x0 met afresh."""
    return x_step(op, y, x0, op.forward(x0), z, w, mu, steps, q)[0]


def test_identity_operator_one_exact_step():
    op = IdentityOp((3, 3))
    y = np.arange(9, dtype=float)
    x = step_from(op, y, np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)), 0.0, 1,
                  np.ones(9))
    np.testing.assert_allclose(x.ravel(), y, atol=1e-12)


def test_objective_monotone_per_step(rng):
    op = DenseGaussianOp((8, 8), 0.5, 21)
    y = rng.normal(size=op.m)
    z = rng.normal(size=(8, 8))
    w = rng.normal(size=(8, 8))
    mu = 0.5

    def obj(x):
        r = y - op.forward(x)
        return 0.5 * np.sum(r * r) + 0.5 * mu * np.sum((x - z - w) ** 2)

    x = np.zeros((8, 8))
    prev = obj(x)
    for _ in range(25):
        x = step_from(op, y, x, z, w, mu, 1, np.ones(op.m))
        cur = obj(x)
        assert cur <= prev + 1e-12 * max(1.0, abs(prev))
        prev = cur


def test_standard_step_reaches_closed_form(rng):
    for seed in range(5):
        op = DenseGaussianOp((8, 8), 0.5, 30 + seed)
        y = rng.normal(size=op.m)
        z = rng.normal(size=(8, 8))
        w = rng.normal(size=(8, 8))
        x = step_from(op, y, np.zeros((8, 8)), z, w, 0.5, 200, np.ones(op.m))
        want = closed_form(op, y, z, w, 0.5)
        assert np.linalg.norm(x - want) <= 1e-6 * np.linalg.norm(want)


def test_robust_step_reaches_weighted_closed_form(rng):
    for seed in range(5):
        op = DenseGaussianOp((8, 8), 0.5, 40 + seed)
        y = rng.normal(size=op.m)
        z = rng.normal(size=(8, 8))
        w = rng.normal(size=(8, 8))
        q = rng.uniform(0.05, 1.0, op.m)
        x = step_from(op, y, np.zeros((8, 8)), z, w, 0.5, 200, q)
        want = closed_form(op, y, z, w, 0.5, q)
        assert np.linalg.norm(x - want) <= 1e-6 * np.linalg.norm(want)


def test_robust_zero_weight_drops_measurements(rng):
    """Weights clamped to ~0 reproduce the solve without those rows."""
    op = DenseGaussianOp((6, 6), 0.5, 60)
    y = rng.normal(size=op.m)
    z = rng.normal(size=(6, 6))
    w = np.zeros((6, 6))
    q = np.ones(op.m)
    dead = [1, 5, 10]
    q[dead] = 1e-300
    x = step_from(op, y, np.zeros((6, 6)), z, w, 0.5, 300, q)

    keep = np.setdiff1d(np.arange(op.m), dead)
    a = op.a[keep]
    lhs = a.T @ a + 0.5 * np.eye(op.n)
    rhs = a.T @ y[keep] + 0.5 * z.ravel()
    want = np.linalg.solve(lhs, rhs).reshape(6, 6)
    assert np.linalg.norm(x - want) <= 1e-6 * np.linalg.norm(want)


def test_robust_rejects_negative_weights(rng):
    op = DenseGaussianOp((4, 4), 0.5, 61)
    with pytest.raises(ValueError):
        x_step(
            op, np.zeros(op.m), np.zeros((4, 4)), np.zeros(op.m), np.zeros((4, 4)),
            np.zeros((4, 4)), 0.5, 1, np.full(op.m, -0.1),
        )


def fresh_forward_x_step(op, y, x0, z, w, mu, steps, q):
    """Reference X-step that applies H to x afresh on every step."""
    x = np.array(x0, dtype=float, copy=True)
    for _ in range(steps):
        resid = op.forward(x) - y
        grad = op.adjoint(q * resid) + mu * (x - z - w)
        gg = float(np.sum(grad * grad))
        if gg == 0.0:
            break
        hg = op.forward(grad)
        denom = float(np.sum(q * hg * hg)) + mu * gg
        if denom == 0.0:
            break
        x = x - (gg / denom) * grad
    return x


@pytest.mark.parametrize("kind", ["dense", "block", "dft"])
@pytest.mark.parametrize("unit_q", [True, False])
def test_carried_hx_matches_fresh_forward(kind, unit_q):
    """Carrying Hx through the steps agrees with a fresh forward per step
    to rounding over 20 steps, and exactly on the first step."""
    rng = np.random.default_rng(17)
    op = make_operator(kind, (32, 64), 0.3, 4)  # two blocks for "block"
    y = op.forward(rng.uniform(0, 255, op.shape)) + rng.normal(0, 5, op.m)
    z = rng.uniform(0, 255, op.shape)
    w = rng.normal(0, 3, op.shape)
    x0 = op.adjoint(y)
    q = np.ones(op.m) if unit_q else rng.uniform(0.05, 1.0, op.m)

    np.testing.assert_array_equal(
        step_from(op, y, x0, z, w, 0.05, 1, q),
        fresh_forward_x_step(op, y, x0, z, w, 0.05, 1, q))
    want = fresh_forward_x_step(op, y, x0, z, w, 0.05, 20, q)
    got = step_from(op, y, x0, z, w, 0.05, 20, q)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def fresh_adjoint_x_step(op, y, x0, hx0, z, w, mu, steps, q):
    """Reference X-step that carries Hx but takes the gradient afresh,
    with one adjoint and one forward, on every step."""
    x, hx = np.array(x0, dtype=float, copy=True), hx0
    for _ in range(steps):
        grad = op.adjoint(q * (hx - y)) + mu * (x - z - w)
        gg = float(np.sum(grad * grad))
        if gg == 0.0:
            break
        hg = op.forward(grad)
        denom = float(np.sum(q * hg * hg)) + mu * gg
        if denom == 0.0:
            break
        a = gg / denom
        x, hx = x - a * grad, hx - a * hg
    return x, hx


def test_carried_gradient_matches_fresh_adjoint():
    """Carrying the gradient through 20 robust steps on a 64x64 dense
    problem agrees with a fresh adjoint per step to 1e-12 relative."""
    rng = np.random.default_rng(23)
    img = make_motif_image(64, 3)
    op = make_operator("dense", img.shape, 0.2, 5)
    y = op.forward(img) + rng.normal(0, 5, op.m)
    y[rng.choice(op.m, 40, replace=False)] += rng.normal(0, 500, 40)
    x0 = op.adjoint(y)
    z = img + rng.normal(0, 10, img.shape)
    w = rng.normal(0, 3, img.shape)
    hx0 = op.forward(x0)
    q = q_update(y - hx0, robust_sigma(y - hx0))
    assert q.min() < 1e-3  # the outliers are discounted
    x, hx = x_step(op, y, x0, hx0, z, w, 0.05, 20, q)
    want_x, want_hx = fresh_adjoint_x_step(op, y, x0, hx0, z, w, 0.05, 20, q)
    assert np.linalg.norm(x - want_x) <= 1e-12 * np.linalg.norm(want_x)
    assert np.linalg.norm(hx - want_hx) <= 1e-12 * np.linalg.norm(want_hx)


class CountingOp:
    """Wraps an operator and counts forward, adjoint and normal applications."""

    def __init__(self, op):
        self.op = op
        self.shape, self.n, self.m = op.shape, op.n, op.m
        self.forwards = self.adjoints = self.normals = 0

    def forward(self, image):
        self.forwards += 1
        return self.op.forward(image)

    def adjoint(self, y):
        self.adjoints += 1
        return self.op.adjoint(y)

    def normal(self, image, q):
        self.normals += 1
        return self.op.normal(image, q)


@pytest.mark.parametrize("fidelity", ["l2", "m_estimator"])
def test_recover_operator_call_counts(fidelity, rng):
    """T outer iterations cost 2T forwards (one per iteration, for the
    residual, and each X-step's last gradient step, which needs only
    H g), T*(gd_steps - 1) normals (one per other gradient step) and T
    adjoints (each X-step's first gradient), plus the adjoint that starts
    x."""
    img = rng.uniform(0, 255, (32, 32))
    op = CountingOp(make_operator("dense", (32, 32), 0.2, 3))
    y = op.op.forward(img) + rng.normal(0, 2, op.m)
    cfg = small_cfg(fidelity=fidelity, outer_iters=3, gd_steps=7,
                    grouping=GroupingConfig(6, 4, 20, 60))
    recover(y, op, cfg)
    assert op.forwards == 2 * 3
    assert op.normals == 3 * (7 - 1)
    assert op.adjoints == 3 + 1


def test_recover_rejects_overflowing_tau(rng):
    """A finite lam and mu whose threshold overflows stop recover before
    the operator is applied."""
    op = CountingOp(IdentityOp((16, 16)))
    with pytest.raises(ThresholdError):
        recover(rng.uniform(0, 255, 256), op, small_cfg(lam=1e308, mu=1e-3))
    assert op.forwards == op.adjoints == op.normals == 0


# ------------------------------------------------------------ robust weights


def test_q_unit_at_zero_residual():
    np.testing.assert_array_equal(q_update(np.zeros(4), 2.0), np.ones(4))


def test_q_quarter_at_ln4():
    r = np.sqrt(np.log(4.0)) * 3.0
    assert q_update(np.array([r]), 3.0)[0] == pytest.approx(0.25, rel=1e-12)


def test_q_monotone_in_magnitude(rng):
    r = rng.normal(0, 5, 100)
    q = q_update(r, 2.0)
    order = np.argsort(np.abs(r))
    assert np.all(np.diff(q[order]) <= 0)


def test_q_floor_and_range():
    q = q_update(np.array([0.0, 1e6]), 1.0)
    assert q[0] == 1.0
    assert q[1] == 1e-300
    assert np.all((q > 0) & (q <= 1))


def test_q_infinite_sigma_all_ones():
    q = q_update(np.array([0.0, 3.0, -1e9]), np.inf)
    np.testing.assert_array_equal(q, np.ones(3))


def test_q_rejects_bad_sigma():
    with pytest.raises(ValueError):
        q_update(np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        q_update(np.zeros(3), -1.0)


def test_q_rejects_sigma_whose_square_underflows():
    """1e-200 squares to 0, so the weight at a zero residual would be 0/0;
    3e-162 squares to a subnormal and still gives weights in (0, 1]."""
    for sigma in (1e-200, 1e-163, math.nan):
        with pytest.raises(ValueError, match="square above 0"):
            q_update(np.array([0.0, 1.0]), sigma)
    with np.errstate(over="ignore"):
        q = q_update(np.array([0.0, 1.0]), 3e-162)
    np.testing.assert_array_equal(q, [1.0, Q_FLOOR])


def test_config_refuses_fixed_sigma_whose_square_underflows():
    with pytest.raises(ValueError, match="square above 0, got 1e-200"):
        small_cfg(fidelity="m_estimator", sigma_m=1e-200)
    small_cfg(fidelity="m_estimator", sigma_m=3e-162)
    small_cfg(fidelity="m_estimator", sigma_m=math.inf)


@given(sigma=st.floats(min_value=0.0, allow_nan=False).filter(lambda s: s * s > 0),
       residual=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6))
@settings(max_examples=300, deadline=None)
def test_q_in_unit_interval_for_every_allowed_sigma(sigma, residual):
    """For every sigma_m q_update accepts, +inf included, and every finite
    residual, the weights are finite and lie in (0, 1], 1 at zero."""
    with np.errstate(over="ignore"):
        q = q_update(np.array([0.0, *residual]), sigma)
    assert np.all(np.isfinite(q)) and np.all((q > 0) & (q <= 1))
    assert q[0] == 1.0


def test_robust_sigma_is_scaled_mad():
    r = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
    # median 3, |r - 3| = [2, 1, 0, 1, 97], MAD = 1
    assert robust_sigma(r) == pytest.approx(1.4826, rel=1e-12)
    assert robust_sigma(np.zeros(5)) == 1e-12


# -------------------------------------------------------------------- Z-step


def test_z_step_tau_zero_round_trip(rng):
    img = rng.uniform(0, 255, (16, 16))
    z, reg = z_step(img, small_cfg(), 0.0)
    np.testing.assert_array_equal(z, img)


def test_z_step_huge_tau_zeroes(rng):
    img = rng.uniform(0, 255, (16, 16))
    z, reg = z_step(img, small_cfg(), 1e15)
    np.testing.assert_allclose(z, 0.0, atol=1e-9)
    assert reg == 0.0


def test_z_step_denoises_low_rank_texture(motif_benchmark):
    rng = np.random.default_rng(11)
    noisy = motif_benchmark + rng.normal(0, 20, motif_benchmark.shape)
    cfg = SolverConfig(penalty=Penalty("log", 1.0, 10.0), weighting="combined")
    z, _ = z_step(noisy, cfg, 3e7)
    before = np.linalg.norm(noisy - motif_benchmark)
    after = np.linalg.norm(z - motif_benchmark)
    assert after < 0.7 * before


def per_group_z_step(img, cfg, tau, sweeps):
    """Reference Z-step: one group at a time, each matched by the
    brute-force oracle and shrunk through its own Gram eigendecomposition."""
    s_side = cfg.grouping.patch_side
    patches, positions = [], []
    reg = 0.0
    for a in reference_anchors(img.shape, cfg.grouping):
        pos = brute_force_match(img, a, cfg.grouping)
        mat = np.stack([patch_at(img, p, s_side) for p in pos], axis=1)
        z, spec = gram_shrink(mat, cfg.penalty, tau, cfg.weighting, sweeps, cfg.init_weights)
        patches.append(z.T)
        positions.append(pos)
        reg += float(np.sum(rho(cfg.penalty, spec)))
    return aggregate_stack(np.array(patches), np.array(positions), img.shape, s_side), reg


# tau per (weighting, init_weights) that zeroes some singular values and
# keeps others; "zero" starts every value at the steep weight d(0).
PARTIAL_TAU = {
    ("combined", "observation"): 1.5e7,
    ("combined", "zero"): 1e-14,
    ("supergradient", "observation"): 6e3,
    ("supergradient", "zero"): 50.0,
    ("none", "observation"): 300.0,
    ("none", "zero"): 300.0,
}


@pytest.mark.parametrize("sweeps", [1, 3])
@pytest.mark.parametrize("init_weights", ["observation", "zero"])
@pytest.mark.parametrize("weighting", ["combined", "supergradient", "none"])
def test_z_step_matches_per_group_reference(weighting, init_weights, sweeps):
    """The stacked Z-step equals the group-by-group loop bit for bit, on
    non-square images whose border windows are clipped."""
    rng = np.random.default_rng(21)
    cases = [
        ((40, 28), GroupingConfig()),
        ((23, 31), GroupingConfig(patch_side=4, stride=3, window_side=9, group_size=12)),
    ]
    for shape, grouping in cases:
        motif = make_motif_image(max(shape) + 3, 3)[: shape[0], : shape[1]]
        img = motif + rng.normal(0, 20, shape)
        cfg = SolverConfig(penalty=Penalty("log", 1.0, 10.0), weighting=weighting,
                           grouping=grouping, init_weights=init_weights)
        tau = PARTIAL_TAU[weighting, init_weights]
        z, reg = z_step(img, cfg, tau, sweeps=sweeps)
        z_ref, reg_ref = per_group_z_step(img, cfg, tau, sweeps)
        assert z.tobytes() == z_ref.tobytes()
        assert reg == reg_ref


def test_z_step_independent_of_pass_sizes(monkeypatch, motif_benchmark):
    """Matching, shrinkage and aggregation run in passes of PASS_ENTRIES
    entries; other budgets, one that leaves a partial last pass in every
    stage and one that passes a single item at a time, give the same
    bytes."""
    cfg = SolverConfig(penalty=Penalty("log", 1.0, 10.0))
    z, reg = z_step(motif_benchmark, cfg, 1.5e7, sweeps=3)
    # 50_000 entries a pass, shared among the workers: 23 groups, or 1388
    # patches, in bands of 240 and 16 groups.
    for budget in (50_000, 1):
        monkeypatch.setattr(groupcs.work, "PASS_ENTRIES", budget)
        z_small, reg_small = z_step(motif_benchmark, cfg, 1.5e7, sweeps=3)
        assert z_small.tobytes() == z.tobytes()
        assert reg_small == reg


@pytest.mark.parametrize("tau", [0.0, 1.5e7])
def test_z_step_independent_of_worker_count(monkeypatch, motif_benchmark, tau):
    """Matching and shrinkage run their passes on work.WORKERS threads;
    one worker and two give the same bytes, and at tau = 0 both return
    the input."""
    cfg = SolverConfig(penalty=Penalty("log", 1.0, 10.0))
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(groupcs.work, "WORKERS", workers)
        results.append(z_step(motif_benchmark, cfg, tau, sweeps=3))
    (z1, reg1), (z2, reg2) = results
    assert z2.tobytes() == z1.tobytes()
    assert reg2 == reg1
    if tau == 0.0:
        assert z1.tobytes() == motif_benchmark.tobytes()


def test_busy_pool_makes_the_caller_run_the_z_step_passes(monkeypatch, motif_benchmark):
    """With every pool thread held by other work, a two-worker z_step
    runs the passes it queued on the calling thread and returns before
    the pool is free, with the bytes the free pool gives."""
    monkeypatch.setattr(groupcs.work, "WORKERS", 2)
    monkeypatch.setattr(groupcs.work, "PASS_ENTRIES", 20_000)  # several passes a band
    cfg = SolverConfig(penalty=Penalty("log", 1.0, 10.0))
    z, reg = z_step(motif_benchmark, cfg, 1.5e7, sweeps=3)
    with held_pool() as blockers:
        z_held, reg_held = z_step(motif_benchmark, cfg, 1.5e7, sweeps=3)
        assert not any(blocker.done() for blocker in blockers)
    assert z_held.tobytes() == z.tobytes()
    assert reg_held == reg


# Groupings of the band-size test: the default, two smaller ones, and a
# wide one whose every window reaches every row, so that no band is
# dropped before the end.
BAND_GROUPINGS = [GroupingConfig(), GroupingConfig(8, 4, 24, 30), GroupingConfig(4, 3, 12, 16),
                  GroupingConfig(16, 8, 113, 10)]


@pytest.mark.parametrize("tau", [0.0, 1.5e7])
@pytest.mark.parametrize("shape", [(96, 160), (200, 120), (64, 64)])
def test_z_step_independent_of_band_size(monkeypatch, shape, tau):
    """z_step walks the lattice in bands of BAND_ENTRIES group entries,
    several for the default grouping here; bands of one anchor row each
    and one band for the whole image give the same bytes, and at tau = 0
    all three return the input."""
    rng = np.random.default_rng(shape[0] + shape[1])
    img = make_motif_image(max(shape) + 3, 3)[: shape[0], : shape[1]] + rng.normal(0, 20, shape)
    default = patches.BAND_ENTRIES
    for grouping in BAND_GROUPINGS:
        cfg = SolverConfig(penalty=Penalty("log", 1.0, 10.0), grouping=grouping)
        results, bands = [], []
        for budget in (default, 1, 1 << 62):
            monkeypatch.setattr(patches, "BAND_ENTRIES", budget)
            results.append(z_step(img, cfg, tau, sweeps=3))
            bands.append(len(patches._bands(shape, grouping)[1]))
        assert bands[1:] == [patches._anchor_count(shape[0], grouping)[0], 1]
        assert bands[0] > 1 or grouping != GroupingConfig()
        (z, reg), *others = results
        for z_band, reg_band in others:
            assert z_band.tobytes() == z.tobytes(), grouping
            assert reg_band == reg, grouping
        if tau == 0.0:
            assert z.tobytes() == img.tobytes()


class PieceFailed(Exception):
    pass


@pytest.mark.parametrize("bad", [0, 1], ids=["caller", "pool"])
def test_run_passes_raises_after_every_piece_stopped(monkeypatch, bad):
    """Pieces 0, 2, 4, 6 run on the caller and 1, 3, 5, 7 on the pool.
    When one piece raises, the caller gets that exception only once no
    piece is running any more, and the other share has run to its end."""
    monkeypatch.setattr(groupcs.work, "WORKERS", 2)
    lock = threading.Lock()
    running, finished, threads = set(), [], set()

    def work(part):
        with lock:
            running.add(part.start)
            threads.add(threading.get_ident())
        try:
            time.sleep(0.01)
            if part.start == bad:
                raise PieceFailed(bad)
        finally:
            with lock:
                running.discard(part.start)
        with lock:
            finished.append(part.start)

    with pytest.raises(PieceFailed) as info:
        groupcs.work.run_passes(8, groupcs.work.worker_budget(), work)
    assert info.value.args == (bad,)
    assert running == set()
    assert set(range(1 - bad, 8, 2)) <= set(finished)
    assert len(threads) == 2


def test_run_passes_before_raises_after_every_pass_stopped(monkeypatch):
    """The calling thread runs before() while the pool pulls passes; when
    before() raises, the caller takes no pass, and the exception surfaces
    only once the pool has pulled and finished every other pass."""
    monkeypatch.setattr(groupcs.work, "WORKERS", 2)
    lock = threading.Lock()
    running, finished = set(), []

    def work(part):
        with lock:
            running.add(part.start)
        time.sleep(0.01)
        with lock:
            running.discard(part.start)
            finished.append(part.start)

    def before():
        time.sleep(0.02)
        raise PieceFailed("before")

    with pytest.raises(PieceFailed, match="before"):
        groupcs.work.run_passes(8, groupcs.work.worker_budget(), work, before)
    assert running == set()
    assert finished == list(range(1, 8))


def test_run_passes_pool_raise_waits_for_the_caller(monkeypatch):
    """A pool pass that raises while the caller is still in before() stops
    the pool thread only: the caller finishes before(), then pulls every
    pass left, and the pool's exception surfaces after that."""
    monkeypatch.setattr(groupcs.work, "WORKERS", 2)
    lock, raised = threading.Lock(), threading.Event()
    events = []

    def work(part):
        if part.start == 1:
            with lock:
                events.append("raised")
            raised.set()
            raise PieceFailed(1)
        with lock:
            events.append(part.start)

    def before():
        assert raised.wait(10)
        time.sleep(0.01)
        with lock:
            events.append("before")

    with pytest.raises(PieceFailed) as info:
        groupcs.work.run_passes(8, groupcs.work.worker_budget(), work, before)
    assert info.value.args == (1,)
    assert events == ["raised", "before", 0, 2, 3, 4, 5, 6, 7]


def test_run_passes_divides_workers_among_concurrent_callers(monkeypatch):
    """While one run_passes call is in progress, a second one from
    another thread (as from a second sweep cell) gets WORKERS // 2 = 1
    share and runs every piece on its own thread; once both are done,
    a call gets both workers again."""
    monkeypatch.setattr(groupcs.work, "WORKERS", 2)
    first_in, second_done = threading.Event(), threading.Event()
    seen = {"first": set(), "second": set(), "after": set()}
    # Each thread's first item waits for the other's, so the caller
    # cannot take the pool's item as unstarted.
    both_in = threading.Barrier(2)

    def work_of(name):
        def work(part):
            seen[name].add(threading.get_ident())
            if name == "first" and part.start == 0:
                first_in.set()
                assert second_done.wait(10)
            if name == "after" and part.start < 2:
                both_in.wait(10)
        return work

    each = groupcs.work.worker_budget()  # one piece per item
    first = threading.Thread(target=groupcs.work.run_passes, args=(4, each, work_of("first")))
    first.start()
    try:
        assert first_in.wait(10)
        groupcs.work.run_passes(4, each, work_of("second"))
    finally:
        second_done.set()
        first.join(10)
    assert not first.is_alive()
    assert seen["second"] == {threading.get_ident()}
    groupcs.work.run_passes(4, each, work_of("after"))
    assert len(seen["after"]) == 2


def test_caller_count_survives_concurrent_callers(monkeypatch):
    """Eight threads entering and leaving work.caller() at once, under a
    short switch interval, each get a grant of WORKERS divided by some
    caller count, and leave the count at zero, so no update was lost."""
    monkeypatch.setattr(groupcs.work, "WORKERS", 4)
    grants, grants_lock = [], threading.Lock()

    def enter():
        for _ in range(200):
            with groupcs.work.caller() as grant:
                with grants_lock:
                    grants.append(grant)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert groupcs.work._callers == 0
    assert len(grants) == 1600 and set(grants) <= {4, 2, 1}


def test_z_step_workers_keep_the_callers_errstate(monkeypatch):
    """Under np.errstate(all="ignore") the shrink passes of an input
    5e306 large overflow without a warning, on the pool's threads too;
    the overflowed result is then refused."""
    monkeypatch.setattr(groupcs.work, "WORKERS", 2)
    monkeypatch.setattr(groupcs.work, "PASS_ENTRIES", 20_000)  # 100 groups in 20 passes
    img = 5e306 * np.random.default_rng(0).uniform(-1, 1, (40, 40))
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="leaving the Z-step"):
            z_step(img, SolverConfig(), 1.5e7)


@pytest.mark.parametrize("scale, message", [(5e306, "leaving the Z-step"),
                                            (1.7e308, "spectrum overflows")])
def test_z_step_refuses_an_overflowed_result(scale, message):
    """Finite input near the float range: at 5e306 the penalty of the
    spectra and the aggregated image overflow, and at 1.7e308 the group
    spectra do.  Either is a NumericalError, not a silent inf or a
    penalty's ValueError."""
    img = scale * np.random.default_rng(0).uniform(-1, 1, (40, 40))
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match=message):
        z_step(img, SolverConfig(), 1.5e7)


def test_z_step_overflow_in_a_pool_pass_surfaces(monkeypatch):
    """Two shrink passes of 50 groups: the caller's (anchor rows 0 to 16)
    sees only rows 0..30, which are small, and the pool's groups reach
    the 1.7e308 rows below, so only the pool's pass raises."""
    monkeypatch.setattr(groupcs.work, "WORKERS", 2)
    monkeypatch.setattr(groupcs.work, "PASS_ENTRIES", 2 * 50 * 60 * 36)
    img = np.random.default_rng(0).uniform(-1, 1, (40, 40))
    img[31:] *= 1.7e308
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="spectrum overflows"):
        z_step(img, SolverConfig(), 1.5e7)


@pytest.mark.parametrize(
    "side, grouping",
    [(64, GroupingConfig(12, 4, 60, 500)), (64, GroupingConfig()),
     (128, GroupingConfig(16, 8, 113, 10)),  # a 25 MB candidate box per anchor
     (256, GroupingConfig())],  # 22 bands, three held at once
    ids=["grouping0", "grouping1", "grouping2", "grouping3"],
)
def test_z_step_memory_is_stack_plus_fixed_allowance(side, grouping):
    """Beyond stack_bytes, the patch vectors of one band's rows and the
    bands held with it, a Z-step holds what the passes in flight hold,
    whatever the group size, the window and the image size.

    The passes in flight together hold at most four temporaries of
    PASS_ENTRIES float64 or index entries at once (matching: the
    distances of the search box, then their tie ranks, and the gathered
    candidates of a slice of the box; shrinkage: the eigenvectors, which
    are scaled in place, and the projected and rebuilt groups;
    aggregation, which the calling thread runs in place of a pass: the
    entry indices, gathered means and residuals).  stack_bytes counts the
    patch anchors, two words per stack row, beside the stacks; the flat
    indices are built pass by pass, so the three words per stack row
    allowed here are spare.  The Z-step also keeps a few image-sized
    arrays (sums, counts, means and output of aggregation).
    """
    noise = np.random.default_rng(5).normal(0, 10, (side, side))
    img = make_motif_image(side, 3) + noise
    rows = len(reference_anchors(img.shape, grouping)) * grouping.group_size
    allowance = (4 * groupcs.work.PASS_ENTRIES + 3 * rows + 8 * img.size) * 8
    tracemalloc.start()
    try:
        z_step(img, SolverConfig(grouping=grouping), 1.5e7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - patches.stack_bytes(img.shape, grouping) <= allowance


@pytest.mark.parametrize("workers", [1, None], ids=["one-worker", "all-workers"])
@pytest.mark.parametrize("side, grouping", [
    (64, GroupingConfig(4, 1, 9, 16)), (128, GroupingConfig(4, 1, 9, 16)),
    (128, GroupingConfig(3, 1, 7, 9)), (128, GroupingConfig(2, 1, 5, 4)),
    (96, GroupingConfig(2, 2, 41, 100)),
    (64, GroupingConfig()), (128, GroupingConfig()), (256, GroupingConfig()),
    (512, GroupingConfig()),
    (512, GroupingConfig(2, 1, 5, 4)),  # every group's spectrum would not fit beside the rest
])
def test_z_step_bytes_covers_the_traced_peak(monkeypatch, side, grouping, workers):
    """z_step_bytes, which reference_anchors refuses a Z-step by, is at
    least what z_step and its input allocate at their peak, on stride-1
    and small-patch groupings as on the default, whose spectra add up
    over the whole image."""
    if workers is not None:
        monkeypatch.setattr(groupcs.work, "WORKERS", workers)
    noisy = make_motif_image(side, 3) + np.random.default_rng(5).normal(0, 10, (side, side))
    tracemalloc.start()
    try:
        img = noisy.copy()
        z_step(img, SolverConfig(grouping=grouping), 1.5e7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= patches.z_step_bytes(img.shape, grouping)


@pytest.mark.parametrize("fidelity", ["l2", "m_estimator"])
@pytest.mark.parametrize("kind, side, grouping", [
    pytest.param(kind, side, grouping, id=f"{kind}-{side}{suffix}")
    for grouping, suffix in [(GroupingConfig(), ""), (GroupingConfig(4, 1, 9, 16), "-stride1")]
    for kind, side in [("dense", 64), ("block", 128), ("dft", 256)]
])
def test_recovery_bytes_covers_the_traced_peak(kind, side, grouping, fidelity):
    """recovery_bytes, which the CLI refuses a recovery by, is at least
    what building the operator and two outer iterations allocate at their
    peak: it counts the operator, a Z-step (z_step_bytes) and the loop's
    image-sized arrays."""
    img = make_motif_image(side, 3)
    cfg = SolverConfig(fidelity=fidelity, outer_iters=2, grouping=grouping)
    tracemalloc.start()
    try:
        op = make_operator(kind, img.shape, 0.2, 1)
        recover(op.forward(img), op, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert recovery_bytes(kind, img.shape, 0.2, cfg.grouping) >= peak


def test_z_step_takes_no_svd(monkeypatch, rng):
    """Every group is shrunk through its Gram, at tau = 0 as well: with
    np.linalg.svd refused, z_step still returns its input bitwise at
    tau = 0 and runs at tau > 0."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    img = rng.uniform(0, 255, (16, 16))
    z, _ = z_step(img, small_cfg(), 0.0)
    assert z.tobytes() == img.tobytes()
    z, reg = z_step(img, small_cfg(), 1e3)
    assert np.all(np.isfinite(z)) and reg > 0


def test_z_step_memory_at_256():
    """One default-grouping Z-step on a 256x256 image (4096 groups) keeps
    its traced allocations below 300 MB, and, streamed in bands, below
    half of the whole image's group stack (4096 x 60 x 36 float64,
    70.8 MB)."""
    img = make_motif_image(256, 3)
    tracemalloc.start()
    try:
        z_step(img, SolverConfig(), 1.5e7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 2**20
    assert peak < 4096 * 60 * 36 * 8 / 2


def test_z_step_on_huge_values():
    """Groups near 1e162 square past the float range in their Gram; the
    Z-step scales each group first.  With tau = 1 nothing is shrunk, so
    z is the input up to the rounding of u @ u.T @ m and aggregation."""
    rng = np.random.default_rng(4)
    img = 1e160 * (make_motif_image(32, 3) + rng.normal(0, 10, (32, 32)))
    z, reg = z_step(img, SolverConfig(), 1.0)
    assert np.isfinite(reg)
    assert np.max(np.abs(z - img)) <= 1e-12 * np.max(np.abs(img))


def test_z_step_rejects_non_finite(rng):
    img = rng.uniform(0, 255, (16, 16))
    img[3, 5] = np.nan
    with pytest.raises(NumericalError):
        z_step(img, small_cfg(), 1.0)


@pytest.mark.parametrize("shape", [(16,), (2, 16, 16)])
def test_z_step_rejects_an_image_that_is_not_2d(shape):
    with pytest.raises(ValueError, match="image must be 2-D"):
        z_step(np.zeros(shape), small_cfg(), 1.0)


# ---------------------------------------------------------------- multiplier


def test_multiplier_fixed_point():
    w = np.array([[1.0, -2.0]])
    assert np.array_equal(multiplier_update(w, w * 0 + 5, w * 0 + 5), w)


def test_multiplier_negated_gap():
    d = np.array([[2.0, -1.0]])
    np.testing.assert_array_equal(multiplier_update(np.zeros((1, 2)), d, np.zeros((1, 2))), -d)


def test_multiplier_three_step_recurrence():
    w = 0.0
    for x, z, expect in [(5.0, 3.0, -2.0), (4.0, 4.5, -1.5), (1.0, 0.0, -2.5)]:
        w = multiplier_update(w, x, z)
        assert w == expect


# ---------------------------------------------------------------- validation


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(lam=-1.0)
    with pytest.raises(ValueError):
        small_cfg(mu=0.0)
    with pytest.raises(ValueError, match="supergradient, combined, none; got 'soft'"):
        small_cfg(weighting="soft")
    with pytest.raises(ValueError):
        small_cfg(fidelity="l1")
    with pytest.raises(ValueError):
        small_cfg(outer_iters=0)
    with pytest.raises(ValueError):
        small_cfg(sigma_m=0.0)
    # l2 has no scale to pin; auto (None) stays allowed with it
    with pytest.raises(ValueError, match="fixed sigma_m needs fidelity m_estimator"):
        small_cfg(sigma_m=5.0)
    small_cfg(sigma_m=None)
    small_cfg(fidelity="m_estimator", sigma_m=5.0)
    with pytest.raises(ValueError):
        small_cfg(init_weights="spectral")
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            small_cfg(lam=bad)
        with pytest.raises(ValueError):
            small_cfg(mu=bad)


# ------------------------------------------------------------------- recover


def test_recover_trivial_inverse(rng):
    """Full-mask Fourier sampling with negligible regularization returns
    the measured image."""
    img = np.round(rng.uniform(0, 255, (32, 32)))
    op = make_operator("dft", (32, 32), 1.0, 0)
    y = op.forward(img)
    cfg = small_cfg(
        lam=1e-8, mu=0.5,
        grouping=GroupingConfig(6, 4, 20, 60), outer_iters=3, gd_steps=10,
    )
    x, trace = recover(y, op, cfg, ground_truth=img)
    assert psnr(x, img).psnr_db >= 40.0
    assert len(trace) == 3
    assert trace[-1].psnr_db >= 40.0


def test_recover_trace_fields(rng):
    img = rng.uniform(0, 255, (32, 32))
    op = make_operator("dense", (32, 32), 0.2, 3)
    y = op.forward(img)
    cfg = small_cfg(outer_iters=2, grouping=GroupingConfig(6, 4, 20, 60))
    x, trace = recover(y, op, cfg)
    assert [t.iteration for t in trace] == [1, 2]
    for t in trace:
        assert t.data_fidelity >= 0
        assert t.reg_surrogate >= 0
        assert t.x_minus_z_norm >= 0
        assert t.psnr_db is None
        assert t.q_min is None and t.q_max is None


def test_recover_robust_trace_has_weights(rng):
    img = rng.uniform(0, 255, (32, 32))
    op = make_operator("dense", (32, 32), 0.2, 3)
    y = op.forward(img)
    cfg = small_cfg(
        fidelity="m_estimator", outer_iters=2,
        grouping=GroupingConfig(6, 4, 20, 60),
    )
    _, trace = recover(y, op, cfg)
    for t in trace:
        assert 0 < t.q_min <= t.q_max <= 1.0


def test_recover_given_init_used(rng):
    img = rng.uniform(0, 255, (32, 32))
    op = make_operator("dense", (32, 32), 0.2, 3)
    y = op.forward(img)
    cfg = small_cfg(
        init_image=img, lam=1e-8,
        outer_iters=1, gd_steps=1, grouping=GroupingConfig(6, 4, 20, 60),
    )
    x, _ = recover(y, op, cfg, ground_truth=img)
    # starting at the truth with negligible pull stays at the truth
    assert psnr(x, img).psnr_db > 45.0


@pytest.mark.parametrize("kind", ["dense", "block", "dft"])
def test_recover_infinite_sigma_matches_l2_bitwise(kind, rng):
    img = rng.uniform(0, 255, (32, 64))  # two blocks for "block"
    op = make_operator(kind, img.shape, 0.25, 9)
    y = op.forward(img) + rng.normal(0, 2, op.m)
    base = dict(
        lam=50.0, mu=0.5, penalty=Penalty("log", 1.0, 10.0),
        grouping=GroupingConfig(6, 4, 20, 60), outer_iters=4, gd_steps=8,
    )
    xa, ta = recover(y, op, SolverConfig(fidelity="l2", **base), ground_truth=img)
    xb, tb = recover(
        y, op, SolverConfig(fidelity="m_estimator", sigma_m=np.inf, **base),
        ground_truth=img,
    )
    np.testing.assert_array_equal(xa, xb)
    for sa, sb in zip(ta, tb):
        assert sa.data_fidelity == sb.data_fidelity
        assert sa.reg_surrogate == sb.reg_surrogate
        assert sa.x_minus_z_norm == sb.x_minus_z_norm
        assert sa.psnr_db == sb.psnr_db
    assert all(s.q_min == s.q_max == 1.0 for s in tb)


def test_recover_deterministic(rng):
    img = rng.uniform(0, 255, (32, 32))
    op = make_operator("block", (32, 32), 0.3, 2)
    y = op.forward(img)
    cfg = small_cfg(outer_iters=2, grouping=GroupingConfig(6, 4, 20, 60))
    xa, _ = recover(y, op, cfg)
    xb, _ = recover(y, op, cfg)
    np.testing.assert_array_equal(xa, xb)


def test_recover_rejects_non_finite_start():
    op = make_operator("dense", (32, 32), 0.2, 3)
    bad = np.full((32, 32), np.inf)
    cfg = small_cfg(init_image=bad, grouping=GroupingConfig(6, 4, 20, 60))
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError):
            recover(np.zeros(op.m), op, cfg)


def test_recover_rejects_wrong_measurement_length():
    op = make_operator("dense", (32, 32), 0.2, 3)
    cfg = small_cfg(grouping=GroupingConfig(6, 4, 20, 60))
    with pytest.raises(ValueError):
        recover(np.zeros(op.m + 2), op, cfg)
