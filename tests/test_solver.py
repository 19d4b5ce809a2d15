"""Solver building blocks: X-step against closed-form solves, robust
weights, Z-step semantics, multiplier recurrence, and small end-to-end
recoveries."""

import tracemalloc

import numpy as np
import pytest
from conftest import brute_force_match, patch_at

from groupcs import (
    GroupingConfig,
    Penalty,
    SolverConfig,
    aggregate_stack,
    group_weights,
    make_motif_image,
    make_operator,
    multiplier_update,
    psnr,
    q_update,
    recover,
    rho,
    tau_from_config,
    x_step_robust,
    x_step_standard,
    z_step,
)
from groupcs import lowrank, patches
from groupcs.measurement import DenseGaussianOp
from groupcs.patches import reference_anchors
from groupcs.solver import NumericalError, ThresholdError, lam_for_tau, robust_sigma


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


def test_identity_operator_one_exact_step():
    op = IdentityOp((3, 3))
    y = np.arange(9, dtype=float)
    x = x_step_standard(y, op, np.zeros((3, 3)), np.zeros((3, 3)), 0.0, 1,
                        np.zeros((3, 3)))
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
        x = x_step_standard(y, op, z, w, mu, 1, x)
        cur = obj(x)
        assert cur <= prev + 1e-12 * max(1.0, abs(prev))
        prev = cur


def test_standard_step_reaches_closed_form(rng):
    for seed in range(5):
        op = DenseGaussianOp((8, 8), 0.5, 30 + seed)
        y = rng.normal(size=op.m)
        z = rng.normal(size=(8, 8))
        w = rng.normal(size=(8, 8))
        x = x_step_standard(y, op, z, w, 0.5, 200, np.zeros((8, 8)))
        want = closed_form(op, y, z, w, 0.5)
        assert np.linalg.norm(x - want) <= 1e-6 * np.linalg.norm(want)


def test_robust_step_reaches_weighted_closed_form(rng):
    for seed in range(5):
        op = DenseGaussianOp((8, 8), 0.5, 40 + seed)
        y = rng.normal(size=op.m)
        z = rng.normal(size=(8, 8))
        w = rng.normal(size=(8, 8))
        q = rng.uniform(0.05, 1.0, op.m)
        x = x_step_robust(y, op, z, w, q, 0.5, 200, np.zeros((8, 8)))
        want = closed_form(op, y, z, w, 0.5, q)
        assert np.linalg.norm(x - want) <= 1e-6 * np.linalg.norm(want)


def test_robust_all_ones_matches_standard_bitwise(rng):
    op = DenseGaussianOp((8, 8), 0.5, 50)
    y = rng.normal(size=op.m)
    z = rng.normal(size=(8, 8))
    w = rng.normal(size=(8, 8))
    a = x_step_standard(y, op, z, w, 0.3, 7, np.zeros((8, 8)))
    b = x_step_robust(y, op, z, w, np.ones(op.m), 0.3, 7, np.zeros((8, 8)))
    np.testing.assert_array_equal(a, b)


def test_robust_zero_weight_drops_measurements(rng):
    """Weights clamped to ~0 reproduce the solve without those rows."""
    op = DenseGaussianOp((6, 6), 0.5, 60)
    y = rng.normal(size=op.m)
    z = rng.normal(size=(6, 6))
    w = np.zeros((6, 6))
    q = np.ones(op.m)
    dead = [1, 5, 10]
    q[dead] = 1e-300
    x = x_step_robust(y, op, z, w, q, 0.5, 300, np.zeros((6, 6)))

    keep = np.setdiff1d(np.arange(op.m), dead)
    a = op.a[keep]
    lhs = a.T @ a + 0.5 * np.eye(op.n)
    rhs = a.T @ y[keep] + 0.5 * z.ravel()
    want = np.linalg.solve(lhs, rhs).reshape(6, 6)
    assert np.linalg.norm(x - want) <= 1e-6 * np.linalg.norm(want)


def test_robust_rejects_negative_weights(rng):
    op = DenseGaussianOp((4, 4), 0.5, 61)
    with pytest.raises(ValueError):
        x_step_robust(
            np.zeros(op.m), op, np.zeros((4, 4)), np.zeros((4, 4)),
            np.full(op.m, -0.1), 0.5, 1, np.zeros((4, 4)),
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

    def step(steps):
        if unit_q:
            return x_step_standard(y, op, z, w, 0.05, steps, x0)
        return x_step_robust(y, op, z, w, q, 0.05, steps, x0)

    np.testing.assert_array_equal(
        step(1), fresh_forward_x_step(op, y, x0, z, w, 0.05, 1, q))
    want = fresh_forward_x_step(op, y, x0, z, w, 0.05, 20, q)
    assert np.linalg.norm(step(20) - want) <= 1e-12 * np.linalg.norm(want)


class CountingOp:
    """Wraps an operator and counts forward and adjoint applications."""

    def __init__(self, op):
        self.op = op
        self.shape, self.n, self.m = op.shape, op.n, op.m
        self.forwards = self.adjoints = 0

    def forward(self, image):
        self.forwards += 1
        return self.op.forward(image)

    def adjoint(self, y):
        self.adjoints += 1
        return self.op.adjoint(y)


@pytest.mark.parametrize("fidelity", ["l2", "m_estimator"])
def test_recover_operator_call_counts(fidelity, rng):
    """T outer iterations cost T*(gd_steps+1) forwards and T*gd_steps
    adjoints, plus the adjoint that starts x."""
    img = rng.uniform(0, 255, (32, 32))
    op = CountingOp(make_operator("dense", (32, 32), 0.2, 3))
    y = op.op.forward(img) + rng.normal(0, 2, op.m)
    cfg = small_cfg(fidelity=fidelity, outer_iters=3, gd_steps=7,
                    grouping=GroupingConfig(6, 4, 20, 60))
    recover(y, op, cfg)
    assert op.forwards == 3 * (7 + 1)
    assert op.adjoints == 3 * 7 + 1


def test_recover_rejects_overflowing_tau(rng):
    """A finite lam and mu whose threshold overflows stop recover before
    the operator is applied."""
    op = CountingOp(IdentityOp((16, 16)))
    with pytest.raises(ThresholdError):
        recover(rng.uniform(0, 255, 256), op, small_cfg(lam=1e308, mu=1e-3))
    assert op.forwards == op.adjoints == 0


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
    brute-force oracle and shrunk with its own SVD."""
    s_side = cfg.grouping.patch_side
    patches, positions = [], []
    reg = 0.0
    for a in reference_anchors(img.shape, cfg.grouping):
        pos = brute_force_match(img, a, cfg.grouping)
        mat = np.stack([patch_at(img, p, s_side) for p in pos], axis=1)
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        spec = s if cfg.init_weights == "observation" else np.zeros_like(s)
        for _ in range(sweeps):
            w = group_weights(spec, cfg.penalty, cfg.weighting, cfg.epsilon)
            s_new = np.maximum(s - tau * w, 0.0)
            moved = np.linalg.norm(s_new - spec) / max(1.0, np.linalg.norm(spec))
            spec = s_new
            if moved < 1e-6:
                break
        patches.append(((u * spec) @ vt).T)
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
    """Matching, shrinkage and aggregation run in fixed-size passes; other
    pass sizes, including ones that leave a partial last pass, give the
    same bytes."""
    cfg = SolverConfig(penalty=Penalty("log", 1.0, 10.0))
    z, reg = z_step(motif_benchmark, cfg, 1.5e7, sweeps=3)
    monkeypatch.setattr(patches, "_MATCH_ENTRIES", 50_000)  # 3 anchors a pass
    monkeypatch.setattr(patches, "_AGGREGATE_CHUNK", 333)
    monkeypatch.setattr(lowrank, "_SVD_CHUNK", 5)
    z_small, reg_small = z_step(motif_benchmark, cfg, 1.5e7, sweeps=3)
    assert z_small.tobytes() == z.tobytes()
    assert reg_small == reg


def test_z_step_memory_at_256():
    """One default-grouping Z-step on a 256x256 image (4096 groups) keeps
    its traced allocations below 300 MB."""
    img = make_motif_image(256, 3)
    tracemalloc.start()
    try:
        z_step(img, SolverConfig(), 1.5e7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 2**20


def test_z_step_rejects_non_finite(rng):
    img = rng.uniform(0, 255, (16, 16))
    img[3, 5] = np.nan
    with pytest.raises(NumericalError):
        z_step(img, small_cfg(), 1.0)


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
    with pytest.raises(ValueError):
        small_cfg(init_weights="spectral")
    with pytest.raises(ValueError):
        small_cfg(epsilon=-1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            small_cfg(lam=bad)
        with pytest.raises(ValueError):
            small_cfg(mu=bad)
        with pytest.raises(ValueError):
            small_cfg(epsilon=bad)


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


def test_recover_infinite_sigma_matches_l2_bitwise(rng):
    img = rng.uniform(0, 255, (32, 32))
    op = make_operator("dense", (32, 32), 0.25, 9)
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
