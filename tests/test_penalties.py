"""Penalty values, super-gradients, and the concavity properties the
weighting scheme relies on."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupcs import Penalty, rho, supergradient
from groupcs.penalties import KINDS

# one mid-range parameter setting per kind, used by the generic tests
SETTINGS = {
    "lp": (1.0, 0.5),
    "scad": (1.0, 3.7),
    "log": (1.0, 1.5),
    "mcp": (1.0, 1.5),
    "etp": (1.0, 2.0),
    "capped_l1": (1.0, 1.5),
    "geman": (1.0, 1.5),
    "laplace": (1.0, 1.5),
}


def make(kind):
    lam, shape = SETTINGS[kind]
    return Penalty(kind, lam, shape)


# ---------------------------------------------------------------- validation


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Penalty("huber", 1.0, 1.0)


def test_negative_lambda_rejected():
    with pytest.raises(ValueError):
        Penalty("log", -0.5, 1.5)


@pytest.mark.parametrize(
    "kind,shape",
    [("lp", 1.0), ("lp", 0.0), ("scad", 2.0), ("log", 0.0), ("mcp", -1.0)],
)
def test_out_of_range_shape_rejected(kind, shape):
    with pytest.raises(ValueError):
        Penalty(kind, 1.0, shape)


@pytest.mark.parametrize("kind", ["log", "etp", "geman"])
def test_overflowing_slope_rejected(kind):
    """lam * gamma overflows, so the slope at 0 would be infinite."""
    with pytest.raises(ValueError, match="infinite slope"):
        Penalty(kind, 1e308, 10.0)


def test_zero_lambda_allowed():
    pen = Penalty("log", 0.0, 1.5)
    assert rho(pen, 3.0) == 0.0
    assert supergradient(pen, 0.0) == 0.0


def test_negative_theta_rejected():
    with pytest.raises(ValueError):
        rho(make("log"), -1.0)
    with pytest.raises(ValueError):
        supergradient(make("log"), np.array([0.5, -0.5]))


# ------------------------------------------------------------- frozen values


@pytest.mark.parametrize("kind", KINDS)
def test_rho_zero_at_origin(kind):
    assert rho(make(kind), 0.0) == 0.0


def test_geman_value():
    # lam*theta/(theta+shape) at theta == shape gives lam/2
    assert rho(Penalty("geman", 1.0, 1.5), 1.5) == pytest.approx(0.5, abs=1e-12)


def test_mcp_saturated_value():
    # beyond shape*lam the penalty is constant shape*lam^2/2
    pen = Penalty("mcp", 1.0, 1.5)
    assert rho(pen, 2.0) == pytest.approx(0.75, abs=1e-12)
    assert rho(pen, 200.0) == pytest.approx(0.75, abs=1e-12)


def test_log_supergradient_at_origin():
    # shape*lam/log(shape+1) = 1.5/log(2.5)
    pen = Penalty("log", 1.0, 1.5)
    assert supergradient(pen, 0.0) == pytest.approx(1.6370350019059372, rel=1e-13)


def test_lp_supergradient_origin_is_infinite():
    assert supergradient(Penalty("lp", 1.0, 0.5), 0.0) == np.inf


def test_lp_supergradient_origin_zero_when_lam_zero():
    assert supergradient(Penalty("lp", 0.0, 0.5), 0.0) == 0.0


def test_mcp_supergradient_vanishes_past_knee():
    pen = Penalty("mcp", 1.0, 1.5)
    assert supergradient(pen, 2.0) == 0.0


def test_capped_l1_breakpoint_midpoint():
    # the jump from lam to 0 at theta == shape is represented by lam/2
    pen = Penalty("capped_l1", 1.0, 1.5)
    assert supergradient(pen, 1.5) == pytest.approx(0.5)
    assert supergradient(pen, 1.5 - 1e-9) == pytest.approx(1.0)
    assert supergradient(pen, 1.5 + 1e-9) == 0.0


def test_scad_flat_segment():
    pen = Penalty("scad", 1.0, 3.7)
    assert supergradient(pen, 0.0) == pytest.approx(1.0)
    assert supergradient(pen, 1.0) == pytest.approx(1.0)
    assert supergradient(pen, 10.0) == 0.0


def test_vectorized_matches_scalar():
    pen = make("laplace")
    grid = np.linspace(0.0, 5.0, 17)
    vec = rho(pen, grid)
    for theta, val in zip(grid, vec):
        assert rho(pen, float(theta)) == val


# ---------------------------------------------------------------- properties

GRID = np.linspace(0.0, 15.0, 200)


@pytest.mark.parametrize("kind", KINDS)
def test_rho_nondecreasing(kind):
    vals = rho(make(kind), GRID)
    assert np.all(np.diff(vals) >= -1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_supergradient_nonincreasing(kind):
    vals = supergradient(make(kind), GRID)
    finite = vals[np.isfinite(vals)]
    assert np.all(np.diff(finite) <= 1e-12)
    # infinities, if any, only at the left end (lp at 0)
    assert np.all(np.isfinite(vals[1:]))


@pytest.mark.parametrize("kind", KINDS)
def test_concavity_upper_bound(kind):
    # rho(b) <= rho(a) + g(a) * (b - a) for a supergradient g of a concave rho
    pen = make(kind)
    a = GRID[1:]  # skip 0 where lp has infinite slope
    g = supergradient(pen, a)
    ra = rho(pen, a)
    for b in (0.5, 2.5, 9.0):
        bound = ra + g * (b - a)
        assert np.all(rho(pen, b) <= bound + 1e-9)


@pytest.mark.parametrize("kind", KINDS)
def test_finite_difference_matches_supergradient(kind):
    # central differences at smooth interior points
    pen = make(kind)
    lam, shape = SETTINGS[kind]
    h = 1e-6
    pts = np.array([0.3, 0.7, 1.1, 2.3, 4.9])
    # keep clear of the kink points of the piecewise kinds
    for kink in (shape, lam * shape, lam, shape * lam):
        pts = pts[np.abs(pts - kink) > 1e-2]
    fd = (rho(pen, pts + h) - rho(pen, pts - h)) / (2 * h)
    assert np.allclose(fd, supergradient(pen, pts), atol=1e-4)


@given(theta=st.floats(0.0, 50.0))
@settings(max_examples=60, deadline=None)
def test_supergradient_nonnegative(theta):
    for kind in KINDS:
        val = supergradient(make(kind), theta)
        assert val >= 0.0
