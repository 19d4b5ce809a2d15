"""Low-rank group denoising by weighted singular value thresholding.

The core subproblem is, for a group matrix R and nonnegative weights w,

    min_Z  0.5 * ||R - Z||_F**2 + tau * sum_i w_i * sigma_i(Z).

When the weights are nondecreasing in i (largest singular value gets the
smallest weight) the minimizer is obtained in closed form by shrinking the
singular values of R: sigma_i -> max(sigma_i - tau * w_i, 0).  Nonconvex
penalties enter through the weights, which are refreshed from the current
spectrum between sweeps (iterative reweighting); concavity of the penalty
makes its super-gradient nonincreasing in sigma, hence the weights valid.
"""

from __future__ import annotations

import numpy as np

from .penalties import EPS_WEIGHT, Penalty, supergradient
from .work import run_passes

WEIGHTINGS = ("supergradient", "combined", "none")
INIT_WEIGHTS = ("observation", "zero")


class NumericalError(RuntimeError):
    """Raised when the iteration produces non-finite values."""


def _check_weights(weights, k):
    w = np.asarray(weights, dtype=float)
    if w.shape != (k,):
        raise ValueError(f"expected {k} weights, got shape {w.shape}")
    if np.any(np.isnan(w)) or np.any(w < 0):
        raise ValueError("weights must be nonnegative (inf allowed)")
    # inf - inf in the diff is fine: equal infinities are nondecreasing.
    with np.errstate(invalid="ignore"):
        if np.any(np.diff(w) < 0):
            raise ValueError("weights must be nondecreasing")
    return w


def _check_tau(tau):
    if not np.isfinite(tau) or tau < 0:
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")


def _shrink(s, weights, tau):
    # tau == 0 disables regularization entirely, including +inf weights.
    thresh = 0.0 if tau == 0.0 else tau * weights
    return np.maximum(s - thresh, 0.0)


def wsvt(mat, weights, tau):
    """Weighted singular value thresholding.

    Shrinks each singular value by tau * w_i and clips at zero.  Weights
    must be nonnegative and nondecreasing; a +inf weight truncates its
    singular value outright.
    """
    _check_tau(tau)
    m = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("wsvt input has non-finite values")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return (u * _shrink(s, _check_weights(weights, s.shape[0]), tau)) @ vt


def group_weights(spectrum, pen: Penalty, weighting):
    """Weights for one sweep, from a nonincreasing spectrum.

    spectrum is one spectrum or a (G, r) stack of them, one per row.

    "supergradient" uses d(sigma_i) directly, "combined" divides the
    super-gradient by sigma_i + EPS_WEIGHT (reweighted-L1 flavor), "none"
    gives all-ones weights, the convex nuclear-norm baseline.  The result
    is clipped to be nondecreasing, guarding against float wiggle on
    near-equal singular values.
    """
    s = np.asarray(spectrum, dtype=float)
    if weighting == "none":
        return np.ones_like(s)
    d = np.asarray(supergradient(pen, s), dtype=float)
    if weighting == "combined":
        w = d / (s + EPS_WEIGHT)
    elif weighting == "supergradient":
        w = d
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    return np.maximum.accumulate(w, axis=-1)


def irnn_denoise_stack(mats, pen: Penalty, tau, weighting="combined", sweeps=1,
                       init_weights="observation"):
    """Denoise every matrix of a (G, n, k) stack in place, as one batch.

    Each group gets `sweeps` sweeps of iteratively reweighted singular
    value shrinkage; every group runs every sweep.  Each sweep computes
    weights from the current spectrum and solves the weighted
    thresholding subproblem against the original matrix.  With
    init_weights="observation" the first sweep weights come from the
    spectrum of the input itself; "zero" starts from an all-zero
    spectrum, so every singular value initially gets the weight d(0).
    The spectra come from each group's smaller Gram (_gram_spectrum), not
    from an SVD; wsvt keeps the SVD.  Each group is viewed with its
    shorter side first, and a square one transposed: for a (G,
    group_size, patch_side**2) patch stack that is each group matrix,
    patches as columns, or its transpose when it is tall.  The groups run
    in passes through work.run_passes, on every worker thread.

    mats may be a strided view.  Returns the (G, min(n, k)) final
    spectra; tau must be finite.  A group whose spectrum overflows the
    float range raises NumericalError.  With tau == 0 the returned
    spectra are the Gram spectra of the input, and the stack is left
    bitwise unchanged: the sweeps and the rebuild are skipped.
    """
    shrink = stack_shrinker(mats, pen, tau, weighting, sweeps, init_weights)
    spectra = np.empty((len(mats), min(mats.shape[1:])))

    def keep(part):
        spectra[part] = shrink(part)

    run_passes(len(mats), mats.shape[1] * mats.shape[2], keep)
    return spectra


def stack_shrinker(mats, pen: Penalty, tau, weighting="combined", sweeps=1,
                   init_weights="observation"):
    """irnn_denoise_stack in passes: checks the arguments and returns
    shrink, where shrink(part) denoises the groups mats[part] in place and
    returns their (len(mats[part]), min(n, k)) final spectra."""
    _check_tau(tau)
    if weighting not in WEIGHTINGS:
        raise ValueError(f"unknown weighting {weighting!r}")
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    if init_weights not in INIT_WEIGHTS:
        raise ValueError(f"unknown init_weights {init_weights!r}")

    def shrink(part):
        # m views each group with its shorter side first (a square one
        # transposed), so m @ m.T is the smaller Gram; writing into m
        # writes into mats.
        m = mats[part] if mats.shape[1] < mats.shape[2] else mats[part].swapaxes(1, 2)
        u, s = _gram_spectrum(m)
        if not np.all(np.isfinite(s)):
            raise NumericalError("a group spectrum overflows")
        if tau == 0.0:
            return s
        spec = s if init_weights == "observation" else np.zeros_like(s)
        for _ in range(sweeps):
            spec = _shrink(s, group_weights(spec, pen, weighting), tau)
        ratio = np.divide(spec, s, out=np.zeros_like(s), where=s > 0)
        # u * diag(s' / s) * u.T * m does not depend on the eigenvectors'
        # signs or on the basis chosen within a repeated eigenvalue.  u is
        # scaled in place, so the pass holds u, u.T m and the product.
        projected = u.swapaxes(1, 2) @ m
        u *= ratio[:, None, :]
        m[...] = u @ projected
        return spec

    return shrink


def _gram_spectrum(m):
    """Left singular vectors and singular values of a (G, r, l) stack with
    r <= l, from the eigendecomposition of each r x r Gram m @ m.T.

    Both come in order of decreasing singular value.  Each group is first
    scaled by a power of two that brings its largest entry into [0.5, 1),
    so the Gram, which squares the entries, neither overflows nor
    underflows; the scaling is exact and is undone on the singular
    values.  Squaring the condition number costs the small singular
    values accuracy: one far below sigma_1 carries an absolute error up
    to about sqrt(eps) * sigma_1.
    """
    exp = np.frexp(np.abs(m).max(axis=(1, 2)))[1]
    scaled = np.ldexp(m, -exp[:, None, None])
    lam, u = np.linalg.eigh(scaled @ scaled.swapaxes(1, 2))
    s = np.ldexp(np.sqrt(np.maximum(lam[:, ::-1], 0.0)), exp[:, None])
    return np.ascontiguousarray(u[:, :, ::-1]), s
