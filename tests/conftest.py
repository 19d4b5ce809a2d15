"""Shared fixtures: seeded RNGs, small reference images and a held pool."""

import contextlib
import threading
from concurrent.futures import wait

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


@contextlib.contextmanager
def held_pool():
    """Hold every thread of work's pool, as other work would, until the
    block ends; yields the futures that hold them, which are still
    running when the block ends unless it took 30 s."""
    from groupcs import work

    release = threading.Event()
    blockers = [work._POOL.submit(release.wait, 30) for _ in range(work._POOL._max_workers)]
    try:
        yield blockers
    finally:
        release.set()
        wait(blockers)


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



def gram_spectrum(mat):
    """Reference: (u, s) of one matrix with no more rows than columns,
    from the eigendecomposition of its Gram mat @ mat.T, in order of
    decreasing singular value.

    The matrix is scaled by the power of two that brings its largest
    entry into [0.5, 1) before the Gram is formed, and the singular
    values sqrt(max(eigenvalue, 0)) are scaled back.
    """
    exp = np.frexp(np.max(np.abs(mat)))[1]
    scaled = np.ldexp(mat, -exp)
    lam, u = np.linalg.eigh(scaled @ scaled.T)
    s = np.ldexp(np.sqrt(np.maximum(lam[::-1], 0.0)), exp)
    return np.ascontiguousarray(u[:, ::-1]), s


def gram_shrink(mat, pen, tau, weighting, sweeps, init_weights="observation"):
    """Reference: reweighted shrinkage of one group matrix through the
    Gram of its shorter side, as irnn_denoise_stack does it for a whole
    stack; tau > 0.  Returns (shrunk matrix, final spectrum)."""
    from groupcs import group_weights

    m = mat if mat.shape[0] <= mat.shape[1] else mat.T
    u, s = gram_spectrum(m)
    spec = s if init_weights == "observation" else np.zeros_like(s)
    for _ in range(sweeps):
        spec = np.maximum(s - tau * group_weights(spec, pen, weighting), 0.0)
    ratio = np.divide(spec, s, out=np.zeros_like(s), where=s > 0)
    z = (u * ratio) @ (u.T @ m)
    return (z if m is mat else z.T), spec
