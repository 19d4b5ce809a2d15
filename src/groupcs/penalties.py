"""Nonconvex sparsity penalties and their super-gradients.

Each penalty is a concave nondecreasing function rho(theta) on theta >= 0
with rho(0) = 0.  The super-gradient d(theta) is used to reweight singular
values: concavity makes d nonincreasing, so small singular values receive
large thresholds and dominant ones are preserved.

All evaluators accept scalars or numpy arrays of nonnegative values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Guard used when super-gradients are divided by singular values: float64
# machine epsilon (2.220446049250313e-16) rounded to five digits.  Every
# output depends on this value, so it stays as written.
EPS_WEIGHT = 2.2204e-16


def _lp_d(t, lam, g):
    if lam == 0.0:
        return np.zeros_like(t)
    with np.errstate(divide="ignore"):
        return np.where(t > 0, lam * g * t ** (g - 1.0), np.inf)


def _scad_rho(t, lam, g):
    mid = (-t * t + 2.0 * g * lam * t - lam * lam) / (2.0 * (g - 1.0))
    return np.where(t <= lam, lam * t, np.where(t <= g * lam, mid, lam * lam * (g + 1.0) / 2.0))


# Each kind's (rho, d) pair, two functions of (t, lam, g) for a checked
# array t and g the kind's shape parameter, as Lu et al., "Generalized
# Nonconvex Nonsmooth Low-Rank Minimization" (CVPR 2014) list them.  The
# one place to add a kind.
_FORMULAS = {
    "lp": (lambda t, lam, g: lam * t ** g, _lp_d),
    "scad": (_scad_rho,
             lambda t, lam, g: np.where(t <= lam, lam,
                                        np.where(t <= g * lam, (g * lam - t) / (g - 1.0), 0.0))),
    "log": (lambda t, lam, g: lam / np.log(g + 1.0) * np.log(g * t + 1.0),
            lambda t, lam, g: g * lam / ((g * t + 1.0) * np.log(g + 1.0))),
    "mcp": (lambda t, lam, g: np.where(t < g * lam, lam * t - t * t / (2.0 * g),
                                       g * lam * lam / 2.0),
            lambda t, lam, g: np.where(t < g * lam, lam - t / g, 0.0)),
    "etp": (lambda t, lam, g: lam / (1.0 - np.exp(-g)) * (1.0 - np.exp(-g * t)),
            lambda t, lam, g: lam * g / (1.0 - np.exp(-g)) * np.exp(-g * t)),
    "capped_l1": (lambda t, lam, g: np.where(t < g, lam * t, lam * g),
                  lambda t, lam, g: np.where(t < g, lam, np.where(t == g, lam / 2.0, 0.0))),
    "geman": (lambda t, lam, g: lam * t / (t + g), lambda t, lam, g: lam * g / (t + g) ** 2),
    "laplace": (lambda t, lam, g: lam * (1.0 - np.exp(-t / g)),
                lambda t, lam, g: lam / g * np.exp(-t / g)),
}
KINDS = tuple(_FORMULAS)


@dataclass(frozen=True)
class Penalty:
    """A penalty family member: kind name, level lam, shape parameter.

    lam scales the whole penalty (lam >= 0; zero disables regularization).
    shape is the kind-specific parameter: the exponent p in (0, 1) for
    "lp", and gamma for the rest (gamma > 2 for "scad", gamma > 0
    otherwise).  Except for lp, the slope d(0) must be finite.
    """

    kind: str = "log"
    lam: float = 1.0
    shape: float = 10.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"penalty kind must be one of {', '.join(KINDS)}; "
                             f"got {self.kind!r}")
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"penalty lam must be finite and >= 0, got {self.lam}")
        if not np.isfinite(self.shape):
            raise ValueError(f"penalty shape must be finite, got {self.shape}")
        if self.kind == "lp":
            if not 0.0 < self.shape < 1.0:
                raise ValueError(f"lp exponent must lie in (0, 1), got {self.shape}")
        elif self.kind == "scad":
            if self.shape <= 2.0:
                raise ValueError(f"scad gamma must exceed 2, got {self.shape}")
        elif self.shape <= 0.0:
            raise ValueError(f"{self.kind} gamma must be positive, got {self.shape}")
        # An infinite slope would meet a zero factor (inf * 0 = NaN) in the
        # super-gradient; only lp has one by definition, at 0.
        if self.kind != "lp" and not np.isfinite(supergradient(self, 0.0)):
            raise ValueError(f"{self.kind} penalty with lam={self.lam}, "
                             f"shape={self.shape} has an infinite slope at 0")


def _evaluate(pen, theta, which):
    # Formula `which` of the pair (0: rho, 1: d) of pen's kind, a scalar
    # for a scalar theta.
    t = np.asarray(theta, dtype=float)
    if np.any(~np.isfinite(t)) or np.any(t < 0):
        raise ValueError("penalty argument must be finite and nonnegative")
    out = _FORMULAS[pen.kind][which](t, pen.lam, pen.shape)
    return out if out.ndim else out.item()


def rho(pen: Penalty, theta):
    """Evaluate the penalty value rho(theta) elementwise.

    Parameters
    ----------
    pen : Penalty
    theta : scalar or ndarray of nonnegative reals

    Returns
    -------
    ndarray (or scalar) of penalty values, same shape as theta.
    """
    return _evaluate(pen, theta, 0)


def supergradient(pen: Penalty, theta):
    """Evaluate a super-gradient d(theta) of the penalty elementwise.

    Conventions at non-smooth points: the lp penalty has an unbounded
    super-differential at 0, reported as +inf (a +inf weight later means
    full truncation of that singular value).  capped_l1 has
    super-differential [0, lam] at theta == shape; the midpoint lam / 2 is
    returned there.  With lam == 0 every penalty is identically zero and
    the super-gradient is 0 everywhere, including the lp case at 0.
    """
    return _evaluate(pen, theta, 1)
