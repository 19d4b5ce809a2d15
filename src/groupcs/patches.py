"""Block matching of patch groups and their aggregation into an image.

Images are 2-D float64 numpy arrays indexed [row, col].  A patch of side s
anchored at (r, c) covers rows r..r+s-1 and columns c..c+s-1 and is
vectorized in column-major order within the patch.  A group collects the
group_size most similar patches to a reference patch (squared Euclidean
distance, search window clipped at the borders) as the columns of a
patch_side**2 x group_size matrix.

Groups are matched and aggregated as stacks: a (G, group_size,
patch_side**2) array holding each group matrix transposed, so group g,
column j, entry e sits at [g, j, e].  group_stack and aggregate_stack
take every group of an image as one stack; the Z-step (denoise_bands)
takes them in bands of anchor rows.  Reference anchors come only from
the lattice, so they are in range by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import work

# Group entries in each band of denoise_bands (4 MB of float64), and the
# most bands a lattice is cut into.
BAND_ENTRIES = 2 * work.PASS_ENTRIES
MAX_BANDS = 1 << 16


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
        for name in ("patch_side", "stride", "window_side", "group_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


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
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1, None].copy()  # frees the partition
    nan_kth, nan = np.isnan(kth), np.isnan(dist)
    below = (dist < kth) | (nan_kth & ~nan)
    tie = (dist == kth) | (nan_kth & nan)
    need = k - np.count_nonzero(below, axis=1)
    rank = tie.astype(np.intp)
    np.cumsum(rank, axis=1, out=rank)  # in place: no cast buffer beside it
    tie &= rank <= need[:, None]
    below |= tie  # in place: the k slots to keep
    slots = np.nonzero(below)[1].reshape(len(dist), k)
    order = np.argsort(np.take_along_axis(dist, slots, axis=1), axis=1, kind="stable")
    return np.take_along_axis(slots, order, axis=1)


def _pass_entries(shape, cfg):
    # Entries of one anchor in a pass's largest temporaries: its search
    # box of distances, or its group of gathered patches.
    s = cfg.patch_side
    box = min(cfg.window_side, shape[0] - s + 1) * min(cfg.window_side, shape[1] - s + 1)
    return max(box, cfg.group_size * s * s)


def _matcher(img, anchors, cfg, span):
    """Block matching for a (G, 2) array of checked reference anchors whose
    search windows lie in the image rows span[0]:span[1].

    Returns (patches, positions, match): the (G, group_size,
    patch_side**2) patch stack and the (G, group_size, 2) image anchors
    of its patches, which match(part) fills for the anchors of the slice
    `part`, one patch per row in order of increasing distance.  The patch
    vectors are taken once, from those image rows only.  Every clipped
    search window fits a box of min(window_side, candidates per axis)
    slots per axis, set at the window's first candidate; slots past the
    window's end are padding and get a NaN distance, which ranks after
    every real candidate (even one whose distance overflowed to +inf).
    The reference itself ranks first, ahead of any exact duplicate, so
    every reference patch lies in its own group and aggregation covers
    the image.  Other candidates keep their raster order in the box, so
    distance ties break toward lower row, then lower column.  Distances
    are taken in passes over the box's slots, so a wide window stays
    within the pass budget.
    """
    s, k = cfg.patch_side, cfg.group_size
    top, bottom = span
    last = np.array(img.shape) - s
    vecs = _all_patch_vectors(img[top:bottom], s)
    nr, nc = vecs.shape[:2]
    vecs = vecs.reshape(nr * nc, s * s)
    wr, wc = min(cfg.window_side, nr), min(cfg.window_side, nc)
    box_r, box_c = divmod(np.arange(wr * wc), wc)  # the row and column slot of each box slot
    box = box_r * nc + box_c  # and its offset in vecs from the box's first slot
    patches = np.empty((len(anchors), k, s * s))
    positions = np.empty((len(anchors), k, 2), dtype=np.intp)

    def match(part):
        start, count = _clipped_windows(anchors[part], cfg.window_side, last)
        start -= [top, 0]
        a = anchors[part] - [top, 0]
        first = start[:, 0, None] * nc + start[:, 1, None]
        ref = vecs[a[:, 0] * nc + a[:, 1], None, :]
        dist = np.empty((len(a), wr * wc))
        for cut in work.passes(wr * wc, len(a) * s * s):
            # A padding slot may index another row's patch, or past vecs
            # (clipped to its end); the NaN below replaces its distance.
            diff = vecs[np.minimum(first + box[cut], len(vecs) - 1)]
            diff -= ref
            diff = diff.reshape(-1, s * s)
            dist[:, cut] = np.einsum("ij,ij->i", diff, diff).reshape(len(a), -1)
            del diff  # before the next cut gathers its own
        dist[(box_r >= count[:, 0, None]) | (box_c >= count[:, 1, None])] = np.nan
        ref_slot = (a[:, 0] - start[:, 0]) * wc + a[:, 1] - start[:, 1]
        dist[np.arange(len(a)), ref_slot] = -np.inf
        chosen = first + box[_smallest_k(dist, k)]
        patches[part] = vecs[chosen]
        positions[part] = np.stack(divmod(chosen + top * nc, nc), axis=-1)

    return patches, positions, match


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
    of this shape: the patch does not fit, a Z-step (z_step_bytes) would
    not fit in physical memory, or some reference window holds fewer
    than group_size candidates.  The memory is refused before the lattice
    is built, so a huge shape costs little.
    """
    (h, w), s = shape, cfg.patch_side
    if s > h or s > w:
        raise GroupingError(f"image {tuple(shape)} smaller than patch side {s}")
    work.refuse_beyond_memory(z_step_bytes(shape, cfg), f"grouping a {h}x{w} image",
                              GroupingError)
    rows, cols = (_anchor_axis(dim, cfg) for dim in shape)
    anchors = np.stack(np.meshgrid(rows, cols, indexing="ij"), axis=-1).reshape(-1, 2)
    last = np.array([h - s, w - s])
    n_cand = np.prod(_clipped_windows(anchors, cfg.window_side, last)[1], axis=1)
    worst = int(n_cand.argmin())
    if n_cand[worst] < cfg.group_size:
        raise GroupingError(
            f"window at {tuple(anchors[worst].tolist())} holds {n_cand[worst]} "
            f"candidates, need group_size={cfg.group_size}"
        )
    return anchors


def group_stack(image, cfg):
    """Match one group per reference-lattice anchor, all as one stack: the
    one-band case of denoise_bands' matching.

    Returns (patches, positions): patches is (G, group_size,
    patch_side**2), row j of group g holding the vectorized patch at
    positions[g, j]; groups follow the raster order of their reference
    anchors.  The lattice covers every pixel with at least one reference
    patch.  Refused with GroupingError, as by reference_anchors, when the
    whole stack and the patch vector at every anchor would not fit in
    physical memory.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError("image must be 2-D")
    anchors = reference_anchors(img.shape, cfg)
    (h, w), s = img.shape, cfg.patch_side
    work.refuse_beyond_memory((len(anchors) * cfg.group_size * (s * s + 2)
                               + (h - s + 1) * (w - s + 1) * s * s) * 8,
                              f"grouping a {h}x{w} image", GroupingError)
    patches, positions, match = _matcher(img, anchors, cfg, (0, h))
    work.run_passes(len(anchors), _pass_entries(img.shape, cfg), match)
    return patches, positions


def _bands(shape, cfg):
    """The band plan of denoise_bands: consecutive whole rows of the
    reference lattice, as many as hold BAND_ENTRIES group entries, and at
    least one.

    Returns (edges, top, bottom, done): band b takes the lattice rows
    edges[b]:edges[b+1], and its groups' patches lie in the image rows
    top[b]:bottom[b].  done[b] counts the bands whose residual pass has
    run, and whose stack is dropped, once band b's passes start: those
    before b that reach no row from top[b] on.  All four are
    nondecreasing; edges, top and bottom are object arrays of Python
    ints.  There are at most MAX_BANDS bands, so a huge shape costs
    little.
    """
    s = cfg.patch_side
    n, step = _anchor_count(shape[0], cfg)
    per_row = _anchor_count(shape[1], cfg)[0] * cfg.group_size * s * s
    rows_each = max(1, BAND_ENTRIES // per_row, -(-n // MAX_BANDS))
    edges = np.array([*range(0, n, rows_each), n], dtype=object)
    first = np.minimum(edges[:-1] * step, shape[0] - s)
    last = np.minimum((edges[1:] - 1) * step, shape[0] - s)
    start, count = _clipped_windows(np.stack([first, last]), cfg.window_side, shape[0] - s)
    top, bottom = start[0], start[1] + count[1] + s - 1
    done = np.minimum(np.arange(len(top)), np.searchsorted(bottom, top, side="right"))
    return edges, top, bottom, done


def stack_bytes(shape, cfg):
    """Bytes of the band arrays a Z-step holds at once on an image of
    `shape` (see denoise_bands): the most, over the bands b of _bands,
    of band b's patch vectors and the stacks of bands done[b-1] to b
    (band 0's alone for b = 0), which are held while band b is matched.
    A stack row takes group_size patch vectors of float64 and the two
    intp anchors of each patch.

    The bands are counted, not built, so a huge shape costs little.
    """
    s = cfg.patch_side
    if s > min(shape):
        return 0  # reference_anchors refuses this grouping before any allocation
    edges, top, bottom, done = _bands(shape, cfg)
    first = np.concatenate([[0], done[:-1]])
    vectors = (bottom - top - s + 1) * ((shape[1] - s + 1) * s * s)
    rows = (edges[1:] - edges[first]) * (_anchor_count(shape[1], cfg)[0] * cfg.group_size)
    return int(np.max(vectors + rows * (s * s + 2))) * 8


def z_step_bytes(shape, cfg):
    """Bytes a Z-step on an image of `shape` holds at its peak, the one
    count that reference_anchors and solver.recovery_bytes read.

    It adds the bands' arrays (stack_bytes), six image-sized arrays (its
    input, _Aggregation's counts, sums and resid, and image()'s two),
    three words per reference anchor (its two intp, and the float that
    z_step's shrinker keeps per group, its penalty total) and the four
    temporaries of work.PASS_ENTRIES entries that its passes in flight
    hold at most; a pass's smaller arrays (its anchors, windows and
    gathered indices) fit in what the largest pass leaves of the four.
    Counted, not built, like stack_bytes.
    """
    groups = _anchor_count(shape[0], cfg)[0] * _anchor_count(shape[1], cfg)[0]
    return stack_bytes(shape, cfg) + 8 * (6 * shape[0] * shape[1] + 3 * groups
                                          + 4 * work.PASS_ENTRIES)


class _Aggregation:
    """The average of patches, added band by band, over an image of
    `shape`: each pixel is the mean of every patch pixel that lands on
    it.

    The mean is computed as a first-pass mean plus an averaged correction
    of the residuals, which keeps the round trip through matching and
    aggregation bitwise exact.  add() takes a stack's first pass, its
    sums and counts; settle(rows) divides the sums of the image rows above
    `rows`, which no later add() may reach, by their counts, so that those
    rows of `sums` hold their first-pass mean; add_residuals() takes the
    residual pass of a stack whose rows are all settled, and image()
    returns the average once every row is.  Contributions are summed in
    the order of the patch entries, stack after stack, in passes that add
    into one running sum, so the result depends on neither the pass nor
    the band size.  A pixel no patch covers is an internal consistency
    error.
    """

    def __init__(self, shape, patch_side):
        h, w = shape
        self.shape, self.s, self.settled = shape, patch_side, 0
        # Flat image index of every patch entry, enumerated to match the
        # column-major patch vectorization.
        self.offs = (np.arange(patch_side)[:, None] * w + np.arange(patch_side)).ravel(order="F")
        self.counts = np.zeros(h * w, dtype=np.intp)
        self.sums = np.zeros(h * w)
        self.resid = np.zeros(h * w)

    def _entries(self, patches, positions):
        s = self.s
        vals = np.asarray(patches, dtype=float).reshape(-1, s * s)
        anchors = positions.reshape(-1, 2)
        for part in work.passes(len(anchors), s * s):
            base = anchors[part, 0] * self.shape[1] + anchors[part, 1]
            yield (base[:, None] + self.offs).ravel(), vals[part].ravel()

    def add(self, patches, positions):
        for idx, v in self._entries(patches, positions):
            self.counts += np.bincount(idx, minlength=self.counts.size)
            np.add.at(self.sums, idx, v)

    def settle(self, rows):
        lo, hi = self.settled, rows * self.shape[1]
        counts = self.counts[lo:hi]
        if np.any(counts == 0):
            raise ValueError(f"aggregation left {int(np.sum(counts == 0))} pixels uncovered")
        self.sums[lo:hi] /= counts
        self.settled = hi

    def add_residuals(self, patches, positions):
        for idx, v in self._entries(patches, positions):
            np.add.at(self.resid, idx, v - self.sums[idx])

    def image(self):
        return (self.sums + self.resid / self.counts).reshape(self.shape)


def aggregate_stack(patches, positions, shape, patch_side):
    """Average patches back into an image of the given shape: the one-band
    case of denoise_bands' aggregation (see _Aggregation).

    patches is (..., patch_side**2) and positions the matching (..., 2)
    anchors.  Each output pixel is the mean of every patch pixel that
    lands on it; a pixel no patch covers raises ValueError.
    """
    if not np.size(positions):
        raise ValueError("no patches to aggregate")
    agg = _Aggregation(shape, patch_side)
    agg.add(patches, positions)
    agg.settle(shape[0])
    agg.add_residuals(patches, positions)
    return agg.image()


def denoise_bands(image, cfg, shrinker):
    """Match, shrink and aggregate the groups of `image`, band by band.

    The reference lattice is walked in the bands of _bands.
    shrinker(stack) takes a band's (G_b, group_size, patch_side**2) patch
    stack before it is filled and returns (kept, shrink), where
    shrink(part) shrinks the groups stack[part] in place once they are
    matched; kept is what the band keeps to the end.  Each pass of
    run_passes matches a slice of the band's anchors from the patch
    vectors of the band's own image rows, then shrinks those groups.  Before it pulls passes itself, the calling
    thread sums band b - 1 into the aggregation, settles the image rows
    above top[b] and takes the residual pass of bands done[b-1]:done[b],
    dropping each one's stack after it.  Every pixel adds its
    contributions in (group, patch, entry) order, as aggregate_stack does
    with the whole stack, so the image has the same bytes for any band
    size.  Returns the image and the list of every band's kept value,
    in order.
    """
    img = np.asarray(image, dtype=float)
    anchors = reference_anchors(img.shape, cfg)
    edges, top, bottom, done = _bands(img.shape, cfg)
    per_row = _anchor_count(img.shape[1], cfg)[0]
    each = _pass_entries(img.shape, cfg)
    agg = _Aggregation(img.shape, cfg.patch_side)
    # held[j]: band j's stack and positions, until its residual pass.
    held, spectra = [], []

    def aggregate(b, rows, finished):
        # Band b's before(), or the end when b is the band count.
        if b:
            agg.add(*held[b - 1])
        agg.settle(rows)
        for j in range(done[b - 1] if b else 0, finished):
            agg.add_residuals(*held[j])
            held[j] = None

    for b in range(len(top)):
        span = (int(top[b]), int(bottom[b]))
        band = anchors[edges[b] * per_row:edges[b + 1] * per_row]
        stack, positions, match = _matcher(img, band, cfg, span)
        band_spectra, shrink = shrinker(stack)

        def match_shrink(part):
            match(part)
            shrink(part)

        work.run_passes(len(band), each, match_shrink, lambda: aggregate(b, span[0], done[b]))
        del match, match_shrink  # the band's patch vectors
        spectra.append(band_spectra)
        held.append((stack, positions))
    aggregate(len(top), img.shape[0], len(top))
    return agg.image(), spectra
