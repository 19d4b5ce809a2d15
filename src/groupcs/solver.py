"""Alternating-direction recovery with group low-rank regularization.

The estimate splits into a data-fit variable X and a denoised variable Z
tied by a scaled multiplier W:

    X-step   minimize f(Y - HX) + (mu/2) * ||X - Z - W||_F**2
    Z-step   group low-rank denoising of R = X - W
    W-step   W <- W - (X - Z)

The X-step runs a few exact-line-search gradient descent steps instead of
solving its normal equations; f is a half-quadratic M-estimator whose
per-measurement weights q in (0, 1] discount outlier residuals
(recomputed once per outer iteration).  Least squares is the same step
at sigma_m = inf, where every weight is exactly 1.

Each outer iteration applies the forward operator exactly once to X, at
its start; that HX gives the robust residual and starts the X-step.
The X-step takes one adjoint for its first gradient and then carries
both HX and the gradient through its steps by linearity, so each
gradient step costs one `normal` pass (H g and H^T Q H g together); the
carried HX also gives the iteration's data-fidelity value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import work
from .lowrank import INIT_WEIGHTS, WEIGHTINGS, NumericalError, stack_shrinker
from .measurement import operator_bytes
from .metrics import psnr
from .patches import GroupingConfig, denoise_bands, reference_anchors, stack_bytes
from .penalties import Penalty, rho

FIDELITIES = ("l2", "m_estimator")

# Lower clamp for the robust weights; keeps extreme outliers from
# producing exact zeros.
Q_FLOOR = 1e-300

# MAD-to-sigma factor for Gaussian residuals.
MAD_SCALE = 1.4826


class ThresholdError(ValueError):
    """The config gives a non-finite group threshold tau for this image."""


@dataclass
class SolverConfig:
    """All recovery knobs.

    lam and mu are the regularization weight and the splitting penalty;
    together with the group geometry they set the per-group threshold
    tau = lam * K / (mu * n_pixels) where K counts all group entries.
    sigma_m = None lets the M-estimator rescale from the median absolute
    deviation of the current residual each outer iteration; a float pins
    it, and needs the m_estimator fidelity, as l2 has no scale to pin.
    weighting "none" is the convex nuclear-norm baseline.  The run starts
    from init_image when one is given, else from the adjoint of the
    measurements.

    The default lam/mu pair targets 8-bit images sampled well below the
    Nyquist budget (tau near 2e10 on a 64x64 image with the default
    grouping), strong enough to pull a reconstruction out of a flat
    adjoint start.  Measurements that already admit a good initialization
    want tau two to three decades smaller.
    """

    lam: float = 7.5e6
    mu: float = 0.05
    penalty: Penalty = field(default_factory=Penalty)
    weighting: str = "combined"
    grouping: GroupingConfig = field(default_factory=GroupingConfig)
    fidelity: str = "l2"
    sigma_m: float | None = None
    outer_iters: int = 80
    gd_steps: int = 20
    init_image: np.ndarray | None = None
    init_weights: str = "observation"

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        for name, choices in (("weighting", WEIGHTINGS),
                              ("init_weights", INIT_WEIGHTS),
                              ("fidelity", FIDELITIES)):
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {', '.join(choices)}; "
                                 f"got {getattr(self, name)!r}")
        if self.sigma_m is not None:
            if not (self.sigma_m > 0 and self.sigma_m * self.sigma_m > 0):
                raise ValueError(f"a fixed sigma_m must be positive with a square above 0, "
                                 f"got {self.sigma_m!r}")
            if self.fidelity == "l2":
                raise ValueError("a fixed sigma_m needs fidelity m_estimator, got l2")
        if self.outer_iters < 1 or self.gd_steps < 1:
            raise ValueError("iteration counts must be >= 1")


@dataclass
class IterStats:
    iteration: int
    data_fidelity: float
    reg_surrogate: float
    x_minus_z_norm: float
    psnr_db: float | None = None
    q_min: float | None = None
    q_max: float | None = None


def tau_from_config(cfg: SolverConfig, n_groups, n_pixels):
    """Group threshold tau = lam * K / (mu * n_pixels).

    K is the total entry count over all group matrices,
    n_groups * group_size * patch_side**2.
    """
    g = cfg.grouping
    k = n_groups * g.group_size * g.patch_side * g.patch_side
    return cfg.lam * k / (cfg.mu * n_pixels)


def lam_for_tau(tau, mu, shape, grouping: GroupingConfig):
    """The lam that gives threshold tau on an image of `shape`.

    Inverts tau_from_config: lam = tau * mu * n_pixels / K.
    """
    n_groups = len(reference_anchors(shape, grouping))
    k = n_groups * grouping.group_size * grouping.patch_side**2
    return tau * mu * shape[0] * shape[1] / k


def group_threshold(cfg: SolverConfig, shape):
    """The threshold tau of every Z-step of a recovery of a `shape` image.

    Raises GroupingError when cfg's grouping does not fit the image (see
    reference_anchors), and ThresholdError when tau is not finite.
    """
    n_groups = len(reference_anchors(shape, cfg.grouping))
    tau = tau_from_config(cfg, n_groups, shape[0] * shape[1])
    if not math.isfinite(tau):
        raise ThresholdError(f"threshold tau = lam*K/(mu*n) overflows to {tau}")
    return tau


def recovery_bytes(kind, shape, subrate, grouping: GroupingConfig):
    """Bytes a recovery of a `shape` image holds: the `kind` operator at
    `subrate`, the Z-step's arrays (stack_bytes) and its passes' fixed
    allowance, and some ten image-sized arrays (x, z, w, the FFT's)."""
    return (operator_bytes(kind, shape, subrate) + stack_bytes(shape, grouping)
            + 8 * (4 * work.PASS_ENTRIES + 10 * math.prod(shape)))


def robust_sigma(residual):
    """MAD-based scale of the residual, floored away from zero."""
    r = np.asarray(residual, dtype=float)
    med = np.median(r)
    return max(MAD_SCALE * float(np.median(np.abs(r - med))), 1e-12)


def q_update(residual, sigma_m):
    """Half-quadratic outlier weights q_i = exp(-r_i**2 / sigma_m**2).

    Values lie in (0, 1]; underflowed entries are clamped at Q_FLOOR.
    sigma_m = +inf gives exactly all-ones weights.  A sigma_m whose square
    is not above 0 (negative, NaN, or so small it underflows) raises
    ValueError.
    """
    r = np.asarray(residual, dtype=float)
    square = sigma_m * sigma_m
    if not (sigma_m > 0 and square > 0):
        raise ValueError(f"sigma_m must be positive with a square above 0, got {sigma_m!r}")
    # Past 1.3e154 the square overflows, and an overflowed r * r over it
    # would be NaN, so r is divided by sigma_m first; (r / inf)**2 is 0.
    z = (r / sigma_m) ** 2 if square == math.inf else r * r / square
    return np.maximum(np.exp(-z), Q_FLOOR)


def x_step(op, y, x0, hx0, z, w, mu, steps, q):
    """Gradient descent with exact line search on the quadratic X-step.

    Minimizes 0.5 * ||sqrt(q) (y - Hx)||**2 + (mu/2) * ||x - z - w||**2;
    least squares is the case q = 1.  Needs hx0 == op.forward(x0) and
    nonnegative weights q; negative weights raise ValueError.  The first
    gradient takes one adjoint; each step then takes one op.normal(g, q)
    for H g and H^T Q H g, and carries Hx and the gradient along by
    linearity: H(x - a g) = Hx - a H g, and
    grad(x - a g) = g - a (H^T Q H g + mu g).  The last step's gradient
    is never read, so it takes only op.forward(g).  Returns (x, hx) with hx
    the carried H x.  Both carried values drift from fresh products only
    by rounding over `steps` updates; H g is the forward's bit for bit.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValueError("q weights must be nonnegative")
    x = np.array(x0, dtype=float, copy=True)
    hx = hx0
    grad = op.adjoint(q * (hx - y)) + mu * (x - z - w)
    for step in range(steps, 0, -1):
        gg = float(np.sum(grad * grad))
        if gg == 0.0:
            break
        hg, hqhg = op.normal(grad, q) if step > 1 else (op.forward(grad), None)
        denom = float(np.sum(q * hg * hg)) + mu * gg
        if denom == 0.0:
            break
        a = gg / denom
        x = x - a * grad
        hx = hx - a * hg
        if step > 1:
            grad = grad - a * (hqhg + mu * grad)
    return x, hx


def z_step(r_img, cfg: SolverConfig, tau, sweeps=1):
    """Denoise all groups of R and aggregate them, in bands of anchor rows
    (patches.denoise_bands).

    Returns (z_img, reg_value) where reg_value is the penalty evaluated
    on the shrunk group spectra, sum_k sum_i rho(sigma_i).  With tau = 0
    the groups pass through untouched and aggregation reproduces R
    exactly.  A non-finite R, group spectrum, Z or reg_value raises
    NumericalError; finite values near the float range can overflow.
    An R that is not 2-D raises ValueError.
    """
    img = np.asarray(r_img, dtype=float)
    if img.ndim != 2:
        raise ValueError("image must be 2-D")
    if not np.all(np.isfinite(img)):
        raise NumericalError("non-finite values entering the Z-step")
    z, spectra = denoise_bands(img, cfg.grouping, lambda stack: stack_shrinker(
        stack, cfg.penalty, tau, cfg.weighting, sweeps, cfg.init_weights))
    # Group totals added left to right (np.sum would pair them up), the
    # same float total as a loop over the groups.
    reg = float(np.add.accumulate(rho(cfg.penalty, np.concatenate(spectra)).sum(axis=1))[-1])
    if not (math.isfinite(reg) and np.all(np.isfinite(z))):
        raise NumericalError("non-finite values leaving the Z-step")
    return z, reg


def multiplier_update(w, x, z):
    """Scaled dual ascent: W <- W - (X - Z)."""
    return w - (x - z)


def _initial_x(y, op, cfg):
    if cfg.init_image is not None:
        x0 = np.asarray(cfg.init_image, dtype=float)
        if x0.shape != op.shape:
            raise ValueError(
                f"init image shape {x0.shape} does not match operator {op.shape}"
            )
        return x0.copy()
    return op.adjoint(y)


def recover(y, op, cfg: SolverConfig, ground_truth=None):
    """Run the full alternating recovery.

    Returns (x, trace) where trace holds one IterStats per outer
    iteration.  The reconstruction is returned unclamped; clamping to
    [0, 255] happens only when an image is serialized.  A grouping that
    does not fit the image (GroupingError) or a threshold tau that is not
    finite (ThresholdError) is refused before the operator is applied.
    A non-finite HX at the start of an iteration, or a non-finite X after
    its X-step, raises NumericalError.  W needs no check of its own: the
    Z-step refuses a non-finite X - W or Z, and a non-finite W makes the
    next X non-finite.
    """
    tau = group_threshold(cfg, op.shape)
    y = np.asarray(y, dtype=float)
    x = _initial_x(y, op, cfg)
    z = x.copy()
    w = np.zeros_like(x)
    trace = []
    for it in range(1, cfg.outer_iters + 1):
        hx = op.forward(x)
        if not np.all(np.isfinite(hx)):
            raise NumericalError(f"non-finite HX at iteration {it}")
        resid = y - hx
        if cfg.fidelity == "l2":
            sigma = math.inf
        else:
            sigma = cfg.sigma_m if cfg.sigma_m is not None else robust_sigma(resid)
        q = q_update(resid, sigma)
        x, hx = x_step(op, y, x, hx, z, w, cfg.mu, cfg.gd_steps, q)
        if not np.all(np.isfinite(x)):
            raise NumericalError(f"non-finite X at iteration {it}")
        z, reg = z_step(x - w, cfg, tau)
        w = multiplier_update(w, x, z)
        resid = y - hx
        stats = IterStats(
            iteration=it,
            data_fidelity=0.5 * float(np.sum(q * resid * resid)),
            reg_surrogate=cfg.lam * reg,
            # numpy's pairwise sum, not a BLAS dot, so the trace does not
            # depend on the BLAS thread count.
            x_minus_z_norm=math.sqrt(float(np.sum((x - z) ** 2))),
        )
        if ground_truth is not None:
            stats.psnr_db = psnr(x, ground_truth).psnr_db
        if cfg.fidelity == "m_estimator":
            stats.q_min = float(np.min(q))
            stats.q_max = float(np.max(q))
        trace.append(stats)
    return x, trace
