"""Shared fixtures: seeded RNGs and small reference images."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def ramp_image():
    """8x8 image with pixel(r, c) = 8r + c, handy for index arithmetic."""
    return (np.arange(64, dtype=np.float64).reshape(8, 8)).copy()


@pytest.fixture
def motif_benchmark():
    from groupcs import make_motif_image

    return make_motif_image(64, 3)


def patch_at(image, pos, patch_side):
    """Vectorized patch anchored at pos, column-major within the patch."""
    r, c = pos
    return np.asarray(image, dtype=float)[r : r + patch_side, c : c + patch_side].ravel(order="F")


def brute_force_match(image, ref_pos, cfg):
    """Oracle: python-loop block matching, the reference first, then
    (distance, raster) ordering."""
    img = np.asarray(image, dtype=float)
    s = cfg.patch_side
    last_r = img.shape[0] - s
    last_c = img.shape[1] - s
    rr, cc = ref_pos
    lo_r = max(0, rr - cfg.window_side // 2)
    hi_r = min(last_r, rr - cfg.window_side // 2 + cfg.window_side - 1)
    lo_c = max(0, cc - cfg.window_side // 2)
    hi_c = min(last_c, cc - cfg.window_side // 2 + cfg.window_side - 1)
    ref = patch_at(img, ref_pos, s)
    scored = []
    for r in range(lo_r, hi_r + 1):
        for c in range(lo_c, hi_c + 1):
            if (r, c) == tuple(ref_pos):
                d = -np.inf
            else:
                d = float(np.sum((patch_at(img, (r, c), s) - ref) ** 2))
            scored.append((d, len(scored), (r, c)))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [t[2] for t in scored[: cfg.group_size]]
