"""Block matching of patch groups and their aggregation into an image.

Images are 2-D float64 numpy arrays indexed [row, col].  A patch of side s
anchored at (r, c) covers rows r..r+s-1 and columns c..c+s-1 and is
vectorized in column-major order within the patch.  A group collects the
group_size most similar patches to a reference patch (squared Euclidean
distance, search window clipped at the borders) as the columns of a
patch_side**2 x group_size matrix.

All groups of an image are matched and aggregated as one stack: a
(G, group_size, patch_side**2) array holding each group matrix transposed,
so group g, column j, entry e sits at [g, j, e].  Reference anchors come
only from the lattice, so they are in range by construction.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .measurement import refuse_beyond_memory

# Entries the Z-step's passes in flight may hold together in each of
# their temporaries (4 MB of float64).  Matching, group shrinkage and
# aggregation all loop over passes(); matching and shrinkage run WORKERS
# passes at once through run_passes, each at PASS_ENTRIES // WORKERS.
# Each pass holds a fixed number of such temporaries, so the Z-step needs
# stack_bytes plus a fixed allowance whatever the grouping.
PASS_ENTRIES = 1 << 19

# Threads a stage's passes run on (see run_passes): the calling thread and
# WORKERS - 1 threads of _POOL, which starts them only when first used.
if hasattr(os, "sched_getaffinity"):
    WORKERS = len(os.sched_getaffinity(0))
else:
    WORKERS = os.cpu_count() or 1
_POOL = ThreadPoolExecutor(max(1, WORKERS - 1), thread_name_prefix="groupcs-pass")
# run_passes calls in progress on any thread (say, concurrent sweep cells);
# they divide the WORKERS threads among them.
_callers = 0
_callers_lock = threading.Lock()


class GroupingError(ValueError):
    """The grouping cannot be applied to an image of the given shape."""


@dataclass(frozen=True)
class GroupingConfig:
    """Block-matching parameters.

    patch_side : side length of the square patches.
    stride : spacing of the reference-patch lattice.
    window_side : side of the square search window centered on the
        reference anchor.
    group_size : number of patches per group (columns of the group matrix).
    """

    patch_side: int = 6
    stride: int = 4
    window_side: int = 20
    group_size: int = 60

    def __post_init__(self):
        if self.patch_side < 1:
            raise ValueError("patch_side must be >= 1")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.window_side < 1:
            raise ValueError("window_side must be >= 1")
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")


def passes(count, entries_each, budget=None):
    """Slices of range(count) in order, each holding as many items of
    `entries_each` entries as fit in `budget` (default PASS_ENTRIES), and
    at least one item.  An item of zero entries counts as one."""
    budget = PASS_ENTRIES if budget is None else budget
    step = max(1, budget // max(1, entries_each))
    for start in range(0, count, step):
        yield slice(start, start + step)


def worker_budget():
    """Entries one pass of run_passes may hold in each temporary:
    PASS_ENTRIES shared among the WORKERS passes that run at once."""
    return max(1, PASS_ENTRIES // WORKERS)


def run_passes(count, entries_each, work):
    """Call work(part) for every slice passes() cuts from range(count) at
    worker_budget() entries, on up to WORKERS threads at once.

    The slices are dealt in turn into shares, as many as WORKERS divided
    by the run_passes calls then in progress, and at least one.  The
    calling thread runs the first share and _POOL the others, each share
    in order and each under a copy of the caller's context, so numpy's
    errstate holds in every thread.  Each call must write only what
    belongs to its own slice.  Returns once every call has finished; if
    any raised, the first raising share's exception is raised then, after
    every other share has stopped.  With one worker every call runs on
    the caller.
    """
    global _callers
    parts = list(passes(count, entries_each, worker_budget()))
    with _callers_lock:
        _callers += 1
        n = max(1, min(WORKERS // _callers, len(parts)))
    shares = [parts[i::n] for i in range(n)]

    def run(share):
        for part in share:
            work(part)

    futures = []
    try:
        for share in shares[1:]:
            futures.append(_POOL.submit(contextvars.copy_context().run, run, share))
        run(shares[0])
    finally:
        wait(futures)
        with _callers_lock:
            _callers -= 1
    for future in futures:
        future.result()


def _clipped_windows(anchors, window_side, last):
    # First candidate and candidate count of the search window around each
    # anchor, clipped to [0, last]; broadcasts over any array of anchors.
    # Every window at least 2 * max(last) + 1 wide clips to all of [0, last],
    # so a wider one is narrowed to that before it reaches numpy, where a
    # value past a C long would not convert.
    window_side = min(window_side, 2 * int(np.max(last)) + 1)
    lo = anchors - window_side // 2
    start = np.maximum(0, lo)
    return start, np.minimum(last, lo + window_side - 1) - start + 1


def _all_patch_vectors(img, s):
    # (H-s+1, W-s+1, s*s) array: vectorized patch at every valid anchor.
    win = np.lib.stride_tricks.sliding_window_view(img, (s, s))
    return np.ascontiguousarray(win.transpose(0, 1, 3, 2)).reshape(
        win.shape[0], win.shape[1], s * s
    )


def _smallest_k(dist, k):
    """Slots of the k smallest entries of each row of `dist`, in order:
    the first k columns of a stable argsort, without sorting each row.

    A partition finds the k-th smallest value; every slot below it and
    the first (in slot order) of the slots equal to it make up the k, and
    only those k are then stably sorted.  NaN counts as larger than any
    number, +inf included, as in np.sort.
    """
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1, None]
    nan_kth, nan = np.isnan(kth), np.isnan(dist)
    below = (dist < kth) | (nan_kth & ~nan)
    tie = (dist == kth) | (nan_kth & nan)
    need = k - np.count_nonzero(below, axis=1)
    keep = below | (tie & (np.cumsum(tie, axis=1) <= need[:, None]))
    slots = np.nonzero(keep)[1].reshape(len(dist), k)
    order = np.argsort(np.take_along_axis(dist, slots, axis=1), axis=1, kind="stable")
    return np.take_along_axis(slots, order, axis=1)


def _match(img, anchors, cfg):
    """Block matching for a (G, 2) array of checked reference anchors.

    Returns the (G, group_size, patch_side**2) patch stack, one patch per
    row in order of increasing distance, and the (G, group_size, 2)
    anchors of those patches.  Every clipped search window fits a box of
    min(window_side, candidates per axis) slots per axis, set at the
    window's first candidate; slots past the window's end are padding
    and get a NaN distance, which ranks after every real candidate (even
    one whose distance overflowed to +inf).  The reference itself ranks
    first, ahead of any exact duplicate, so every reference patch lies in
    its own group and aggregation covers the image.  Other candidates
    keep their raster order in the box, so distance ties break toward
    lower row, then lower column.  Distances are taken in passes over the
    box's slots as well as over anchors, so a wide window stays within
    the pass budget.  The anchor passes go through run_passes.
    """
    s, k = cfg.patch_side, cfg.group_size
    vecs = _all_patch_vectors(img, s)
    nr, nc = vecs.shape[:2]
    vecs = vecs.reshape(nr * nc, s * s)
    start, count = _clipped_windows(anchors, cfg.window_side, np.array([nr - 1, nc - 1]))
    wr, wc = min(cfg.window_side, nr), min(cfg.window_side, nc)
    slot_r, slot_c = np.arange(wr), np.arange(wc)
    patches = np.empty((len(anchors), k, s * s))
    positions = np.empty((len(anchors), k, 2), dtype=np.intp)

    def match(part):
        a = anchors[part]
        pad = ((slot_r >= count[part, 0, None])[:, :, None]
               | (slot_c >= count[part, 1, None])[:, None, :]).reshape(len(a), wr * wc)
        rows = np.minimum(start[part, 0, None] + slot_r, nr - 1)
        cols = np.minimum(start[part, 1, None] + slot_c, nc - 1)
        flat = (rows[:, :, None] * nc + cols[:, None, :]).reshape(len(a), wr * wc)
        ref = vecs[a[:, 0] * nc + a[:, 1], None, :]
        dist = np.empty((len(a), wr * wc))
        for cut in passes(wr * wc, len(a) * s * s, worker_budget()):
            diff = vecs[flat[:, cut]]
            diff -= ref
            per_cand = diff.reshape(-1, s * s)
            dist[:, cut] = np.einsum("ij,ij->i", per_cand, per_cand).reshape(len(a), -1)
        dist[pad] = np.nan
        ref_slot = (a[:, 0] - start[part, 0]) * wc + a[:, 1] - start[part, 1]
        dist[np.arange(len(a)), ref_slot] = -np.inf
        chosen = np.take_along_axis(flat, _smallest_k(dist, k), axis=1)
        patches[part] = vecs[chosen]
        positions[part] = np.stack(divmod(chosen, nc), axis=-1)

    run_passes(len(anchors), wr * wc * s * s, match)
    return patches, positions


def _anchor_count(dim, cfg):
    # (count, step) of the anchors along one axis: multiples of step, then
    # the last anchor dim - patch_side.  Consecutive anchors may be at most
    # patch_side apart or pixels between reference patches would go
    # uncovered, so the step is capped.
    step = min(cfg.stride, cfg.patch_side)
    return -(-(dim - cfg.patch_side) // step) + 1, step


def _anchor_axis(dim, cfg):
    count, step = _anchor_count(dim, cfg)
    return np.minimum(np.arange(count) * step, dim - cfg.patch_side)


def reference_anchors(shape, cfg):
    """Reference lattice: multiples of the stride plus edge-snapped anchors,
    as a (G, 2) array in raster order.

    Raises GroupingError when the grouping cannot be applied to an image
    of this shape: the patch does not fit, group_stack's arrays would not
    fit in physical memory, or some reference window holds fewer than
    group_size candidates.
    """
    if cfg.patch_side > shape[0] or cfg.patch_side > shape[1]:
        raise GroupingError(f"image {tuple(shape)} smaller than patch side {cfg.patch_side}")
    refuse_beyond_memory(stack_bytes(shape, cfg), f"grouping a {shape[0]}x{shape[1]} image",
                         GroupingError)
    rows, cols = (_anchor_axis(dim, cfg) for dim in shape)
    anchors = np.stack(np.meshgrid(rows, cols, indexing="ij"), axis=-1).reshape(-1, 2)
    last = np.array([shape[0] - cfg.patch_side, shape[1] - cfg.patch_side])
    n_cand = np.prod(_clipped_windows(anchors, cfg.window_side, last)[1], axis=1)
    worst = int(n_cand.argmin())
    if n_cand[worst] < cfg.group_size:
        raise GroupingError(
            f"window at {tuple(anchors[worst].tolist())} holds {n_cand[worst]} "
            f"candidates, need group_size={cfg.group_size}"
        )
    return anchors


def group_stack(image, cfg):
    """Match one group per reference-lattice anchor, all as one stack.

    Returns (patches, positions): patches is (G, group_size,
    patch_side**2), row j of group g holding the vectorized patch at
    positions[g, j]; groups follow the raster order of their reference
    anchors.  The lattice covers every pixel with at least one reference
    patch.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError("image must be 2-D")
    return _match(img, reference_anchors(img.shape, cfg), cfg)


def stack_bytes(shape, cfg):
    """Bytes of the float64 arrays group_stack holds for an image of
    `shape`: the patch vector at every anchor, and the group stack.

    The lattice is counted, not built, so a huge shape costs nothing.
    """
    s = cfg.patch_side
    if s > min(shape):
        return 0  # group_stack refuses this grouping before any allocation
    groups = _anchor_count(shape[0], cfg)[0] * _anchor_count(shape[1], cfg)[0]
    return ((shape[0] - s + 1) * (shape[1] - s + 1) + groups * cfg.group_size) * s * s * 8


def aggregate_stack(patches, positions, shape, patch_side):
    """Average patches back into an image of the given shape.

    patches is (..., patch_side**2) and positions the matching (..., 2)
    anchors.  Each output pixel is the mean of every patch pixel that
    lands on it.  The mean is computed as a first-pass mean plus an
    averaged correction of the residuals, which keeps the round trip
    through group_stack/aggregate_stack bitwise exact.  Contributions are
    summed in the order of the patch entries, in fixed-size passes that
    add into one running sum, so the result does not depend on the pass
    size.  A pixel no patch covers is an internal consistency error.
    """
    h, w = shape
    n = h * w
    s = patch_side
    vals = np.asarray(patches, dtype=float).reshape(-1, s * s)
    base = (positions[..., 0] * w + positions[..., 1]).reshape(-1)
    if not base.size:
        raise ValueError("no patches to aggregate")
    # Flat image index of every patch entry, enumerated to match the
    # column-major patch vectorization.
    offs = (np.arange(s)[:, None] * w + np.arange(s)[None, :]).ravel(order="F")

    def entries():
        for part in passes(base.size, s * s):
            yield (base[part, None] + offs).ravel(), vals[part].ravel()

    counts = np.zeros(n, dtype=np.intp)
    sums = np.zeros(n)
    for idx, v in entries():
        counts += np.bincount(idx, minlength=n)
        np.add.at(sums, idx, v)
    if np.any(counts == 0):
        missing = int(np.sum(counts == 0))
        raise ValueError(f"aggregation left {missing} pixels uncovered")
    mean = sums / counts
    resid = np.zeros(n)
    for idx, v in entries():
        np.add.at(resid, idx, v - mean[idx])
    return (mean + resid / counts).reshape(h, w)
