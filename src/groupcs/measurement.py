"""Compressive measurement operators and measurement noise.

All operators map a real (h, w) image to a real measurement vector of
length m ~= subrate * h * w and are fully determined by
(kind, image shape, subrate, seed), so a stored measurement file only
needs those fields to rebuild the operator exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import work

NOISE_MODELS = ("none", "gaussian", "gaussian_mixture")

BLOCK_SIDE = 32

# Entries of a Gaussian matrix in one chunk of rows: 1 MiB, half of a
# 2 MiB per-core L2, so a chunk that `normal` reads for H x is still
# cached when it reads it again for the adjoint.
CHUNK_ENTRIES = 2**17

# The split Gaussian draw (_draw_normals): each part holds at least
# SPLIT_NORMALS normals, and each part records its generator's state
# after HANDOFF_WINDOW of them (SPLIT_NORMALS must be the larger).
# numpy's ziggurat takes one PCG64 word for almost every standard
# normal, WORDS_PER_NORMAL on average (1.28e9 normals on numpy 2.4.6,
# counted by the distance between the LCG states before and after).
SPLIT_NORMALS = 2**20
HANDOFF_WINDOW = 2**16
WORDS_PER_NORMAL = 1.02204


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement noise description.

    model "gaussian_mixture" draws each entry from N(0, sigma**2) with
    probability 1 - xi and from N(0, kappa * sigma**2) with probability
    xi (sparse large outliers on top of a small-noise floor).  When
    target_snr_db is set the drawn noise vector is rescaled so the
    realized signal-to-noise ratio hits the target exactly; sigma then
    only fixes the shape of the mixture, not its scale, and sigma = 0
    draws no noise.  sigma, kappa and target_snr_db must be finite.
    Model "none" takes no target.
    """

    model: str = "none"
    sigma: float = 1.0
    xi: float = 0.1
    kappa: float = 100.0
    target_snr_db: float | None = None

    def __post_init__(self):
        if self.model not in NOISE_MODELS:
            raise ValueError(f"noise model must be one of {', '.join(NOISE_MODELS)}; "
                             f"got {self.model!r}")
        if self.model != "none":
            if not 0.0 <= self.sigma < math.inf:
                raise ValueError("noise sigma must be finite and >= 0")
            if self.target_snr_db is not None and not math.isfinite(self.target_snr_db):
                raise ValueError("target SNR must be finite")
            if self.model == "gaussian_mixture":
                if not 0.0 <= self.xi <= 1.0:
                    raise ValueError("mixture xi must lie in [0, 1]")
                if not 1.0 <= self.kappa < math.inf:
                    raise ValueError("mixture kappa must be finite and >= 1")
        elif self.target_snr_db is not None:
            raise ValueError("a target SNR needs a noise model")


def check_subrate(subrate):
    """Return `subrate` if it lies in (0, 1]; raise ValueError otherwise."""
    if not 0.0 < subrate <= 1.0:
        raise ValueError(f"subrate must lie in (0, 1], got {subrate}")
    return subrate


def measurement_count(shape, subrate):
    """Measurements taken of an image of `shape`: round(subrate * n), at least one.

    Raises ValueError for a subrate outside (0, 1].  The masked DFT may
    take one more, to complete a conjugate pair.
    """
    h, w = shape
    return max(1, round(check_subrate(subrate) * (int(h) * int(w))))


def _block_shape(kind, shape):
    # A dense operator is one block: the whole image.
    return tuple(shape) if kind == "dense" else (BLOCK_SIDE, BLOCK_SIDE)


def operator_bytes(kind, shape, subrate):
    """Bytes a `kind` operator of an image of `shape` holds at `subrate`:
    for dense and block, m rows of one block's entries and one index per
    pixel.  The masked DFT holds only index arrays the size of the image,
    and counts 0 here."""
    if check_operator_kind(kind) == "dft":
        return 0
    (h, w), (bh, bw) = shape, _block_shape(kind, shape)
    return (measurement_count(shape, subrate) * int(bh) * int(bw) + int(h) * int(w)) * 8


class MeasurementOp:
    """Base class: forward/adjoint pair with recorded provenance."""

    kind = None

    def __init__(self, shape, subrate, seed):
        h, w = shape
        if h < 1 or w < 1:
            raise ValueError(f"bad image shape {shape}")
        self.shape = (int(h), int(w))
        self.subrate = float(subrate)
        self.seed = int(seed)
        self.n = int(h) * int(w)
        self.m = measurement_count(self.shape, self.subrate)

    def forward(self, image):
        raise NotImplementedError

    def adjoint(self, y):
        raise NotImplementedError

    def normal(self, image, q):
        """(H x, H^T (q * H x)): the two products of one weighted gradient
        step.  Here it is forward then adjoint."""
        hx = self.forward(image)
        return hx, self.adjoint(self._check_y(q) * hx)

    def _check_image(self, image):
        x = np.asarray(image, dtype=float)
        if x.shape != self.shape:
            raise ValueError(f"expected image shape {self.shape}, got {x.shape}")
        return x

    def _check_y(self, y):
        v = np.asarray(y, dtype=float)
        if v.shape != (self.m,):
            raise ValueError(f"expected {self.m} measurements, got shape {v.shape}")
        return v


def _row_chunks(a, r):
    """(rows, measurement slice) of each chunk of matrix `a`, whose rows
    are the measurements r.  A chunk holds at most CHUNK_ENTRIES entries,
    rounded down to a multiple of 8 rows but at least 8: with OpenBLAS on
    one thread, a product over such chunks gives each row the bits of one
    product over the whole matrix (a 42-row chunk did not)."""
    step = max(8, CHUNK_ENTRIES // a.shape[1] // 8 * 8)
    for lo in range(0, len(a), step):
        yield a[lo:lo + step], slice(r.start + lo, min(r.start + lo + step, r.stop))


def _draw_part(state, out, lo, hi):
    """Draw out[lo:hi] from a guessed stream position, a little before
    that of normal `lo` after `state`; return the generator and its state
    after the first HANDOFF_WINDOW normals."""
    # The words lo normals take spread by about 0.2 * sqrt(lo): back off
    # five times that, and 64 words more.
    guess = round(lo * WORDS_PER_NORMAL) - 64 - math.isqrt(lo)
    bits = np.random.PCG64()
    bits.state = state
    gen = np.random.Generator(bits.advance(max(0, guess)))
    gen.standard_normal(out=out[lo:lo + HANDOFF_WINDOW])
    mark = gen.bit_generator.state
    gen.standard_normal(out=out[lo + HANDOFF_WINDOW:hi])
    return gen, mark


def _hand_off(rng, out, lo, hi, gen, mark):
    """Make out[lo:hi] rng's next normals and advance rng past them,
    given (gen, mark), the result of a finished _draw_part(…, out, lo, hi).

    Once the part's stream meets rng's, its normals are rng's own,
    shifted by the s normals it drew before that.  rng draws a window of
    HANDOFF_WINDOW normals, then starts again: where the window holds the
    part's last window normal, at c - 1, it writes its first c normals and
    takes the part only if it then is in exactly the state the part
    recorded, so c = HANDOFF_WINDOW - s.  The rest of the part moves left
    by s and draws its last s normals.  Otherwise rng draws the rest of
    the part itself.  Returns s, or None where rng redrew the part.
    """
    start = rng.bit_generator.state
    found = np.flatnonzero(rng.standard_normal(HANDOFF_WINDOW) == out[lo + HANDOFF_WINDOW - 1])
    rng.bit_generator.state = start
    c = int(found[0]) + 1 if found.size else 0
    rng.standard_normal(out=out[lo:lo + c])
    if not c or rng.bit_generator.state != mark:
        rng.standard_normal(out=out[lo + c:hi])
        return None
    s = HANDOFF_WINDOW - c
    if s:
        # Each chunk is copied left in place: numpy moves overlapping 1-D
        # slices without a temporary.
        for at in range(lo + HANDOFF_WINDOW, hi, CHUNK_ENTRIES):
            end = min(at + CHUNK_ENTRIES, hi)
            out[at - s:end - s] = out[at:end]
        gen.standard_normal(out=out[hi - s:hi])
    rng.bit_generator.state = gen.bit_generator.state
    return s


def _draw_normals(rng, out):
    """Fill the flat float64 array `out` with rng.standard_normal(out=out),
    bit for bit, leaving rng in the state that draw leaves it in; rng
    draws from PCG64.

    The array is cut into up to WORKERS parts of at least SPLIT_NORMALS
    normals (one if it is shorter), each drawn from a jump ahead to its
    guessed start (_draw_part; the first part's guess is exact) in one
    work.run_passes call, one part a slice, on whichever thread runs it.
    rng then takes the first part's end state, and _hand_off checks each
    other part and puts it in place, in order.  Returns each later part's
    shift, None where rng redrew that part.
    """
    parts = max(1, min(work.WORKERS, len(out) // SPLIT_NORMALS))
    bounds = [len(out) * k // parts for k in range(parts + 1)]
    state, drawn = rng.bit_generator.state, [None] * parts

    def draw(part):
        drawn[part.start] = _draw_part(state, out, bounds[part.start], bounds[part.start + 1])

    # Entries of at least worker_budget() make each part its own slice.
    work.run_passes(parts, work.PASS_ENTRIES, draw)
    rng.bit_generator.state = drawn[0][0].bit_generator.state
    return [_hand_off(rng, out, lo, hi, *part)
            for part, lo, hi in zip(drawn[1:], bounds[1:-1], bounds[2:])]


class BlockGaussianOp(MeasurementOp):
    """Independent Gaussian projection per 32x32 image block (block CS).

    The image is tiled into blocks in raster order; each block gets its
    own Gaussian matrix with entries N(0, 1/rows), drawn in that order
    from one generator, and the per-block measurements are concatenated.
    Row counts are spread so the total equals m exactly, the first
    blocks taking one extra row each.  An operator whose operator_bytes
    are more than the machine's physical memory is refused with
    ValueError before anything is allocated.

    All blocks' matrices come from one flat standard_normal draw into a
    single (m, pixels per block) buffer: each block's matrix is a slice
    of its rows, scaled in place by 1/sqrt(rows) and then + 0.0,
    the bytes of normal(0.0, 1/sqrt(rows)) in that slice.  The draw is
    split over work's threads, bitwise (_draw_normals), so the matrices
    are the same bytes for any worker count.  On 2 vCPUs the 128x128
    dense operator at subrate 0.2 (3277 x 16384) took 0.68 s to build
    against 1.22 s for one normal() draw (medians of 6 alternating
    builds, one BLAS thread).

    `forward` and `normal` walk each matrix in the same chunks of rows
    (_row_chunks), so normal's H x is forward's bit for bit.  `normal`
    reads each matrix once: a chunk's share of the adjoint follows its
    product with x while the chunk is still in cache.  It adds those
    shares in another order than `adjoint`, so they agree to rounding.
    """

    kind = "block"

    def __init__(self, shape, subrate, seed):
        super().__init__(shape, subrate, seed)
        (h, w), (bh, bw) = self.shape, _block_shape(self.kind, self.shape)
        if h % bh or w % bw:
            raise ValueError(f"image shape {shape} not a multiple of {bh}x{bw}")
        work.refuse_beyond_memory(operator_bytes(self.kind, self.shape, self.subrate),
                                  f"{self.kind} operator of {self.m} rows of {bh * bw} entries")
        # Flat pixel indices of each block, row-major within the block.
        self.cols = (
            np.arange(self.n).reshape(h // bh, bh, w // bw, bw)
            .transpose(0, 2, 1, 3).reshape(-1, bh * bw)
        )
        base, extra = divmod(self.m, len(self.cols))
        flat = np.empty(self.m * bh * bw)
        _draw_normals(np.random.default_rng(self.seed), flat)
        matrix = flat.reshape(self.m, bh * bw)
        self.mats, self.rows, pos = [], [], 0
        for b in range(len(self.cols)):
            rows = base + (1 if b < extra else 0)
            self.rows.append(slice(pos, pos + rows))
            self.mats.append(matrix[self.rows[-1]])
            # The bytes of normal(0.0, scale): 0.0 + scale * z.
            for chunk, _ in _row_chunks(self.mats[-1], self.rows[-1]):
                chunk *= 1.0 / math.sqrt(rows)
                chunk += 0.0
            pos += rows

    def forward(self, image):
        x = self._check_image(image).ravel()
        out = np.empty(self.m)
        for a, c, r in zip(self.mats, self.cols, self.rows):
            xb = x[c]
            for rows, s in _row_chunks(a, r):
                out[s] = rows @ xb
        return out

    def adjoint(self, y):
        v = self._check_y(y)
        out = np.empty(self.n)
        for a, c, r in zip(self.mats, self.cols, self.rows):
            out[c] = a.T @ v[r]
        return out.reshape(self.shape)

    def normal(self, image, q):
        x = self._check_image(image).ravel()
        q = self._check_y(q)
        hx, out = np.empty(self.m), np.empty(self.n)
        for a, c, r in zip(self.mats, self.cols, self.rows):
            xb, acc = x[c], np.zeros(len(c))
            for rows, s in _row_chunks(a, r):
                hx[s] = rows @ xb
                acc += (q[s] * hx[s]) @ rows
            out[c] = acc
        return hx, out.reshape(self.shape)

    @property
    def a(self):
        """Dense (m, n) equivalent, for small-scale verification only."""
        mat = np.zeros((self.m, self.n))
        for a, c, r in zip(self.mats, self.cols, self.rows):
            mat[r, c] = a
        return mat


class DenseGaussianOp(BlockGaussianOp):
    """Dense i.i.d. Gaussian sensing matrix, entries N(0, 1/m).

    The one-block case of BlockGaussianOp: its single block is the whole
    image, so the matrix is default_rng(seed).normal(0, 1/sqrt(m), (m, n))
    bit for bit, drawn in parts on every core as BlockGaussianOp says.
    """

    kind = "dense"


class MaskedDftOp(MeasurementOp):
    """Random conjugate-symmetric mask over the unitary 2-D DFT.

    Frequencies are selected in conjugate orbits so measurements of a
    real image carry no redundancy: a self-conjugate frequency (DC,
    Nyquist lines) contributes its real part, a conjugate pair
    contributes sqrt(2) times the real and imaginary parts of one
    representative.  This packing makes the operator rows orthonormal.
    The DC orbit is always included; remaining orbits are drawn in
    seeded random order until the measurement count reaches
    round(subrate * n), so the realized count overshoots by at most one.
    """

    kind = "dft"

    def __init__(self, shape, subrate, seed):
        super().__init__(shape, subrate, seed)
        h, w = self.shape
        # Each conjugate orbit is represented by its smaller flat index;
        # `rest` holds those of every orbit but DC (index 0), in raster order.
        flat = np.arange(self.n)
        u, v = np.divmod(flat, w)
        mirror = ((-u) % h) * w + (-v) % w
        rest = np.flatnonzero(flat <= mirror)[1:]
        rng = np.random.default_rng(self.seed)
        drawn = rest[rng.permutation(len(rest))]
        # Drawn orbits are taken while the count before each (DC's one
        # measurement plus the widths taken so far) is still below m.
        drawn_widths = np.where(mirror[drawn] == drawn, 1, 2)
        before = 1 + np.cumsum(drawn_widths) - drawn_widths
        taken = np.count_nonzero(before < self.m)
        reps = np.sort(np.concatenate(([0], drawn[:taken])))
        # Gather and scatter indices into the flattened spectrum, and the
        # measurement slot of each representative in sorted order: one for
        # a self-conjugate frequency, two (real, imaginary) for a pair.
        sc = mirror[reps] == reps
        widths = np.where(sc, 1, 2)
        pos = np.cumsum(widths) - widths
        self._self_flat, self._self_pos = reps[sc], pos[sc]
        self._pair_flat, self._pair_pos = reps[~sc], pos[~sc]
        self._mirror_flat = mirror[reps[~sc]]
        self.m = int(widths.sum())

    def forward(self, image):
        x = self._check_image(image)
        spec = np.fft.fft2(x, norm="ortho").ravel()
        out = np.empty(self.m)
        out[self._self_pos] = spec[self._self_flat].real
        pair = spec[self._pair_flat]
        out[self._pair_pos] = math.sqrt(2.0) * pair.real
        out[self._pair_pos + 1] = math.sqrt(2.0) * pair.imag
        return out

    def adjoint(self, y):
        v = self._check_y(y)
        spec = np.zeros(self.n, dtype=complex)
        spec[self._self_flat] = v[self._self_pos]
        val = (v[self._pair_pos] + 1j * v[self._pair_pos + 1]) / math.sqrt(2.0)
        spec[self._pair_flat] = val
        spec[self._mirror_flat] = np.conj(val)
        return np.fft.ifft2(spec.reshape(self.shape), norm="ortho").real


_OPS = {op.kind: op for op in (DenseGaussianOp, BlockGaussianOp, MaskedDftOp)}
OPERATOR_KINDS = tuple(_OPS)


def check_operator_kind(kind):
    """Return `kind` if it names an operator; raise ValueError otherwise."""
    if kind not in _OPS:
        raise ValueError(f"operator kind must be one of {', '.join(_OPS)}; got {kind!r}")
    return kind


def make_operator(kind, shape, subrate, seed):
    """Instantiate an operator by kind name."""
    return _OPS[check_operator_kind(kind)](shape, subrate, seed)


def _norm(v):
    """Euclidean norm from numpy's pairwise sum of squares, which unlike a
    BLAS dot does not depend on the BLAS thread count; inf on overflow."""
    with np.errstate(over="ignore"):
        return math.sqrt(float(np.sum(v * v)))


def add_noise(y, spec: NoiseSpec, seed):
    """Corrupt measurements according to the noise spec.

    Returns (noisy, noise, realized_snr_db) where
    snr_db = 20*log10(||y - mean(y)|| / ||noise||); the mean removal
    treats the empirical mean of the clean measurements as the signal
    baseline.  When target_snr_db is set the noise is rescaled to hit it
    exactly.  With model "none", or sigma = 0 and no target, no noise is
    added and the realized SNR is +inf.  Raises ValueError when the
    noise norm overflows, or when no scale of the noise meets the target.
    """
    y = np.asarray(y, dtype=float)
    if spec.model == "none":
        return y.copy(), np.zeros_like(y), math.inf
    rng = np.random.default_rng(seed)
    if spec.model == "gaussian":
        noise = rng.normal(0.0, spec.sigma, y.shape)
    else:
        outlier = rng.random(y.shape) < spec.xi
        scales = np.where(outlier, spec.sigma * math.sqrt(spec.kappa), spec.sigma)
        noise = rng.standard_normal(y.shape) * scales
    signal = _norm(y - np.mean(y))
    nn = _norm(noise)
    if not math.isfinite(nn):
        raise ValueError("noise norm overflows: noise_sigma or noise_kappa is too large")
    if spec.target_snr_db is not None:
        if nn == 0.0 or signal == 0.0:
            raise ValueError("cannot rescale noise to a target SNR here")
        noise = noise * (signal * 10.0 ** (-spec.target_snr_db / 20.0) / nn)
        nn = _norm(noise)
    if nn == 0.0:
        realized = math.inf
    elif signal == 0.0:
        realized = -math.inf
    else:
        realized = 20.0 * math.log10(signal / nn)
    return y + noise, noise, realized
