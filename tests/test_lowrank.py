"""Weighted singular value thresholding and the reweighted denoiser,
checked against spectrum-level oracles built from plain numpy SVDs."""

import numpy as np
import pytest
from conftest import gram_spectrum

from groupcs import (
    Penalty,
    group_weights,
    irnn_denoise_stack,
    rho,
    supergradient,
    wsvt,
)
from groupcs.penalties import EPS_WEIGHT


def compose(u, s, vt):
    return (u * s) @ vt


def random_with_spectrum(rng, shape, spectrum):
    """Build a matrix with prescribed singular values."""
    a = rng.normal(size=(shape[0], shape[0]))
    b = rng.normal(size=(shape[1], shape[1]))
    qu, _ = np.linalg.qr(a)
    qv, _ = np.linalg.qr(b)
    k = len(spectrum)
    return compose(qu[:, :k], np.asarray(spectrum, dtype=float), qv[:, :k].T)


# ---------------------------------------------------------------------- wsvt


def test_wsvt_zero_weights_identity(rng):
    m = rng.normal(size=(3, 4))
    assert np.linalg.norm(wsvt(m, np.zeros(3), 1.0) - m) <= 1e-9


def test_wsvt_full_truncation(rng):
    m = rng.normal(size=(3, 4))
    s1 = np.linalg.svd(m, compute_uv=False)[0]
    out = wsvt(m, np.full(3, 2 * s1), 1.0)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_wsvt_known_spectrum(rng):
    m = random_with_spectrum(rng, (3, 4), [3.0, 1.0, 0.0])
    out = wsvt(m, np.array([0.5, 2.0, 3.0]), 1.0)
    s = np.linalg.svd(out, compute_uv=False)
    np.testing.assert_allclose(s, [2.5, 0.0, 0.0], atol=1e-9)


def test_wsvt_infinite_weight_truncates(rng):
    m = random_with_spectrum(rng, (3, 4), [3.0, 1.0, 0.5])
    out = wsvt(m, np.array([0.0, np.inf, np.inf]), 1.0)
    s = np.linalg.svd(out, compute_uv=False)
    np.testing.assert_allclose(s, [3.0, 0.0, 0.0], atol=1e-9)


def test_wsvt_tau_zero_ignores_infinite_weights(rng):
    m = rng.normal(size=(3, 4))
    out = wsvt(m, np.array([0.0, 1.0, np.inf]), 0.0)
    assert np.linalg.norm(out - m) <= 1e-9


def test_wsvt_rejects_bad_weights(rng):
    m = rng.normal(size=(3, 4))
    with pytest.raises(ValueError):
        wsvt(m, np.array([1.0, 0.5, 2.0]), 1.0)  # decreasing
    with pytest.raises(ValueError):
        wsvt(m, np.array([-0.1, 0.5, 2.0]), 1.0)
    with pytest.raises(ValueError):
        wsvt(m, np.array([0.1, np.nan, 2.0]), 1.0)
    with pytest.raises(ValueError):
        wsvt(m, np.zeros(2), 1.0)  # wrong length
    with pytest.raises(ValueError):
        wsvt(m, np.zeros(3), -1.0)
    with pytest.raises(ValueError):
        wsvt(m, np.zeros(3), np.inf)
    with pytest.raises(ValueError):
        wsvt(np.array([[1.0, np.nan]]), np.zeros(1), 1.0)  # non-finite input


def test_wsvt_minimizes_weighted_objective(rng):
    """No spectrum perturbation of the output may improve the objective."""
    tau = 0.7
    for _ in range(20):
        m = rng.normal(size=(3, 4))
        w = np.sort(rng.uniform(0, 2, 3))
        out = wsvt(m, w, tau)
        u, s_in, vt = np.linalg.svd(m, full_matrices=False)
        s_out = np.maximum(s_in - tau * w, 0.0)

        def obj(s):
            z = compose(u, s, vt)
            return 0.5 * np.sum((m - z) ** 2) + tau * np.sum(w * s)

        base = obj(s_out)
        assert np.allclose(
            np.linalg.svd(out, compute_uv=False), np.sort(s_out)[::-1], atol=1e-9
        )
        for _ in range(50):
            pert = np.maximum(s_out + rng.normal(0, 0.3, 3), 0.0)
            assert obj(pert) >= base - 1e-9


# --------------------------------------------------------------- weight rules


def test_weights_none_is_ones():
    pen = Penalty("log", 1.0, 1.5)
    np.testing.assert_array_equal(
        group_weights(np.array([5.0, 2.0, 0.0]), pen, "none"), np.ones(3)
    )


def test_weights_supergradient_formula():
    pen = Penalty("log", 1.0, 1.5)
    s = np.array([4.0, 2.0, 0.5])
    w = group_weights(s, pen, "supergradient")
    expected = 1.5 / (np.log(2.5) * (1.5 * s + 1))
    np.testing.assert_allclose(w, expected, rtol=1e-12)
    assert np.all(np.diff(w) >= 0)


def test_weights_combined_formula():
    pen = Penalty("log", 1.0, 1.5)
    s = np.array([4.0, 2.0, 0.5])
    w = group_weights(s, pen, "combined")
    expected = 1.5 / (np.log(2.5) * (1.5 * s + 1)) / (s + EPS_WEIGHT)
    np.testing.assert_allclose(w, expected, rtol=1e-12)
    assert np.all(np.diff(w) >= 0)


def test_weights_combined_zero_supergradient_is_zero(rng):
    """A zero super-gradient gives weight 0, also at a zero singular
    value; every weight keeps the bits of d / (sigma + EPS_WEIGHT)."""
    s = np.array([[3.0, 1.0, 0.0], [2.0, 0.0, 0.0]])
    w = group_weights(s, Penalty("log", 0.0, 10.0), "combined")
    np.testing.assert_array_equal(w, np.zeros_like(s))
    pen = Penalty("mcp", 1.0, 1.5)
    s = np.sort(rng.uniform(0.0, 3.0, (4, 6)), axis=1)[:, ::-1]
    s[:, -1] = 0.0
    d = supergradient(pen, s)
    want = np.maximum.accumulate(d / (s + EPS_WEIGHT), axis=-1)
    np.testing.assert_array_equal(group_weights(s, pen, "combined"), want)


def test_weights_clipped_nondecreasing():
    # mcp supergradient hits exactly 0 past the knee; an increasing tail in
    # sigma would make the raw weights decrease without the running max
    pen = Penalty("mcp", 1.0, 1.5)
    w = group_weights(np.array([5.0, 1.0, 0.5]), pen, "supergradient")
    assert np.all(np.diff(w) >= 0)


# ------------------------------------------------------------------- denoiser


def log_supergradient(s):
    # hand-written formula for lam=1, shape=1.5
    return 1.5 / (np.log(2.5) * (1.5 * np.asarray(s, dtype=float) + 1))


def denoise_one(m, pen, tau, weighting="combined", sweeps=1, **kw):
    """irnn_denoise_stack on a one-group stack: (matrix, final spectrum)."""
    stack = np.array(m, dtype=float)[None]
    spectra = irnn_denoise_stack(stack, pen, tau, weighting, sweeps, **kw)
    return stack[0], spectra[0]


def sweep_spectra(m, pen, tau, weighting, sweeps):
    """Spectrum after each sweep, from runs of 1..sweeps sweeps."""
    return [denoise_one(m, pen, tau, weighting, k)[1]
            for k in range(1, sweeps + 1)]


def test_denoise_zero_lambda_is_identity(rng):
    m = rng.normal(size=(3, 3))
    out, _ = denoise_one(m, Penalty("log", 0.0, 1.5), 0.5, "supergradient")
    assert np.linalg.norm(out - m) <= 1e-9


def test_denoise_huge_tau_zeroes(rng):
    m = rng.normal(size=(3, 3))
    out, _ = denoise_one(m, Penalty("log", 1.0, 1.5), 1e9, "supergradient")
    np.testing.assert_allclose(out, 0.0, atol=1e-9)


def test_denoise_tau_zero_identity(rng):
    m = rng.normal(size=(3, 3))
    out, spec = denoise_one(m, Penalty("log", 1.0, 1.5), 0.0)
    np.testing.assert_array_equal(out, m)
    # tau == 0 takes the Gram route too; a square group is viewed transposed.
    np.testing.assert_array_equal(spec, gram_spectrum(m.T)[1])


def test_denoise_single_sweep_matches_spectrum_oracle(rng):
    """One supergradient sweep equals shrinking the input spectrum by
    tau * grad(sigma), rebuilt with the input's singular vectors."""
    tau = 0.5
    for _ in range(10):
        m = rng.normal(size=(3, 3))
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        expect_s = np.maximum(s - tau * log_supergradient(s), 0.0)
        out, spec = denoise_one(m, Penalty("log", 1.0, 1.5), tau, "supergradient")
        np.testing.assert_allclose(spec, expect_s, atol=1e-9)
        np.testing.assert_allclose(
            np.linalg.svd(out, compute_uv=False), expect_s, atol=1e-9
        )


def test_denoise_zero_init_uses_origin_slope(rng):
    """init_weights='zero' weights every singular value by grad(0)."""
    tau = 0.5
    m = rng.normal(size=(3, 3))
    s = np.linalg.svd(m, compute_uv=False)
    expect_s = np.maximum(s - tau * log_supergradient(0.0), 0.0)
    _, spec = denoise_one(
        m, Penalty("log", 1.0, 1.5), tau, "supergradient", init_weights="zero",
    )
    np.testing.assert_allclose(spec, expect_s, atol=1e-9)


def test_denoise_weight_ordering_every_sweep(rng):
    for kind, shape in [("log", 1.5), ("mcp", 1.5), ("scad", 3.7), ("lp", 0.5)]:
        m = rng.normal(size=(6, 10)) * 3
        pen = Penalty(kind, 1.0, shape)
        s = np.linalg.svd(m, full_matrices=False)[1]
        # sweep k weighs by the spectrum that sweep k - 1 left
        for spec in [s] + sweep_spectra(m, pen, 0.8, "supergradient", 5):
            w = group_weights(spec, pen, "supergradient")
            assert np.all(w >= 0)
            assert np.all(np.diff(w) >= 0)


def test_denoise_objective_nonincreasing(rng):
    pen, tau = Penalty("log", 1.0, 1.5), 1.0
    for _ in range(10):
        m = rng.normal(size=(6, 10)) * 2
        s = np.linalg.svd(m, full_matrices=False)[1]
        # R and Z share singular vectors, so the data term is spectral
        obj = np.array([0.5 * np.sum((s - sp) ** 2) + tau * np.sum(rho(pen, sp))
                        for sp in sweep_spectra(m, pen, tau, "supergradient", 8)])
        scale = max(1.0, abs(obj[0]))
        assert np.all(np.diff(obj) <= 1e-8 * scale)


def test_every_group_runs_every_sweep(rng):
    """A group whose spectrum moves by under 1e-6 (relative) in its first
    sweep still runs the rest: k sweeps are k explicit reweighting steps
    from the spectrum of the Gram route."""
    pen, tau = Penalty("log", 1.0, 10.0), 0.1
    m = random_with_spectrum(rng, (6, 10), [1e4, 3e3, 1e3, 300, 100, 30])
    u, _, vt = np.linalg.svd(m, full_matrices=False)
    s = gram_spectrum(m)[1]
    spec, steps = s, []
    for _ in range(3):
        spec = np.maximum(s - tau * group_weights(spec, pen, "supergradient"), 0.0)
        steps.append(spec)
    assert np.linalg.norm(steps[0] - s) < 1e-6 * np.linalg.norm(s)
    assert np.any(steps[2] != steps[0])
    for k, expect_s in enumerate(steps, 1):
        out, got = denoise_one(m, pen, tau, "supergradient", k)
        np.testing.assert_array_equal(got, expect_s)
        np.testing.assert_allclose(out, compose(u, expect_s, vt), rtol=0, atol=1e-9)


def low_rank(rng, shape, rank):
    return rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))


def gram_oracle_stacks(rng):
    """(name, stack, tau) cases for the Gram route: tau zeroes part of the
    spectrum of every nonzero group."""
    wide = rng.normal(size=(6, 36, 60))
    degenerate = np.stack([low_rank(rng, (36, 60), 5), low_rank(rng, (36, 60), 1),
                           np.full((36, 60), 7.0), np.zeros((36, 60))])
    cases = [("well-conditioned", wide, 3.0),
             ("rank-deficient, constant and zero", degenerate, 1.0),
             # patch_side 8, group_size 30: the Gram is taken of M.T @ M
             ("tall", rng.normal(size=(6, 64, 30)), 3.0)]
    for scale in (1e160, 1e-160):
        cases += [(f"well-conditioned x {scale:g}", wide * scale, 3.0 * scale),
                  (f"degenerate x {scale:g}", degenerate * scale, 1.0 * scale)]
    return cases


def test_gram_route_matches_svd_oracle(rng):
    """irnn_denoise_stack shrinks through the eigendecomposition of each
    group's smaller Gram; it agrees with shrinking each group's own SVD.

    Nuclear-norm weights make the shrink 1-Lipschitz, so only the
    route's own error shows.  Forming and decomposing the Gram perturbs
    it by about (r + l) * eps * sigma_1**2 in norm for an r x l group
    (r <= l), and its square root by at most the square root of that,
    tol = sqrt((r + l) * eps) * sigma_1; so a singular value near zero
    can move by tol.  The rebuilt group is within tol of the exact shrink
    of a group with the perturbed Gram, which lies within tol of M, and
    the shrink is 1-Lipschitz: the rebuilt group is within 2 * tol of
    the oracle in spectral norm, hence in every entry.  An all-zero group
    has sigma_1 = 0, so it must come back exactly zero.
    """
    eps = np.finfo(float).eps
    for name, stack, tau in gram_oracle_stacks(rng):
        r, l = sorted(stack.shape[1:])
        mats = stack.copy()
        spectra = irnn_denoise_stack(mats, Penalty(), tau, weighting="none")
        for g, m in enumerate(stack):
            u, s, vt = np.linalg.svd(m, full_matrices=False)
            expect_s = np.maximum(s - tau, 0.0)
            tol = np.sqrt((r + l) * eps) * s[0]
            assert np.max(np.abs(spectra[g] - expect_s)) <= tol, name
            assert np.max(np.abs(mats[g] - compose(u, expect_s, vt))) <= 2 * tol, name


def test_denoise_rejects_bad_arguments(rng):
    m = rng.normal(size=(1, 3, 3))
    pen = Penalty("log", 1.0, 1.5)
    with pytest.raises(ValueError):
        irnn_denoise_stack(m, pen, 0.5, sweeps=0)
    with pytest.raises(ValueError):
        irnn_denoise_stack(m, pen, 0.5, init_weights="spectral")
    with pytest.raises(ValueError):
        irnn_denoise_stack(m, pen, 0.5, weighting="softmax")
    for tau in (np.inf, np.nan, -1.0):
        with pytest.raises(ValueError, match="tau"):
            irnn_denoise_stack(m, pen, tau)
