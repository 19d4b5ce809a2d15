"""Compressive measurement operators and measurement noise.

All operators map a real (h, w) image to a real measurement vector of
length m ~= subrate * h * w and are fully determined by
(kind, image shape, subrate, seed), so a stored measurement file only
needs those fields to rebuild the operator exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

NOISE_MODELS = ("none", "gaussian", "gaussian_mixture")

BLOCK_SIDE = 32


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement noise description.

    model "gaussian_mixture" draws each entry from N(0, sigma**2) with
    probability 1 - xi and from N(0, kappa * sigma**2) with probability
    xi (sparse large outliers on top of a small-noise floor).  When
    target_snr_db is set the drawn noise vector is rescaled so the
    realized signal-to-noise ratio hits the target exactly; sigma then
    only fixes the shape of the mixture, not its scale.
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
            if not self.sigma >= 0:
                raise ValueError("noise sigma must be >= 0")
            if self.model == "gaussian_mixture":
                if not 0.0 <= self.xi <= 1.0:
                    raise ValueError("mixture xi must lie in [0, 1]")
                if not self.kappa >= 1.0:
                    raise ValueError("mixture kappa must be >= 1")


def measurement_count(shape, subrate):
    """Measurements taken of an image of `shape`: round(subrate * n), at least one.

    Raises ValueError for a subrate outside (0, 1].  The masked DFT may
    take one more, to complete a conjugate pair.
    """
    if not 0.0 < subrate <= 1.0:
        raise ValueError(f"subrate must lie in (0, 1], got {subrate}")
    h, w = shape
    return max(1, round(subrate * (int(h) * int(w))))


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


class BlockGaussianOp(MeasurementOp):
    """Independent Gaussian projection per 32x32 image block (block CS).

    The image is tiled into blocks in raster order; each block gets its
    own Gaussian matrix with entries N(0, 1/rows), drawn in that order
    from one generator, and the per-block measurements are concatenated.
    Row counts are spread so the total equals m exactly, the first
    blocks taking one extra row each.  An operator whose matrices and
    pixel indices need more than the machine's physical memory is refused
    with ValueError before anything is allocated.
    """

    kind = "block"

    def _block_shape(self):
        return BLOCK_SIDE, BLOCK_SIDE

    def __init__(self, shape, subrate, seed):
        super().__init__(shape, subrate, seed)
        (h, w), (bh, bw) = self.shape, self._block_shape()
        if h % bh or w % bw:
            raise ValueError(f"image shape {shape} not a multiple of {bh}x{bw}")
        need = (self.m * bh * bw + self.n) * 8  # matrices and pixel indices
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise ValueError(
                f"{self.kind} operator needs {need / 2**30:.1f} GiB for {self.m} "
                f"rows of {bh * bw} entries, more than the "
                f"{have / 2**30:.1f} GiB of physical memory"
            )
        # Flat pixel indices of each block, row-major within the block.
        self.cols = (
            np.arange(self.n).reshape(h // bh, bh, w // bw, bw)
            .transpose(0, 2, 1, 3).reshape(-1, bh * bw)
        )
        base, extra = divmod(self.m, len(self.cols))
        rng = np.random.default_rng(self.seed)
        self.mats, self.rows, pos = [], [], 0
        for b in range(len(self.cols)):
            rows = base + (1 if b < extra else 0)
            scale = 1.0 / math.sqrt(rows) if rows else 1.0
            self.mats.append(rng.normal(0.0, scale, (rows, bh * bw)))
            self.rows.append(slice(pos, pos + rows))
            pos += rows

    def forward(self, image):
        x = self._check_image(image).ravel()
        return np.concatenate([a @ x[c] for a, c in zip(self.mats, self.cols)])

    def adjoint(self, y):
        v = self._check_y(y)
        out = np.empty(self.n)
        for a, c, r in zip(self.mats, self.cols, self.rows):
            out[c] = a.T @ v[r]
        return out.reshape(self.shape)

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
    image, so the matrix is default_rng(seed).normal(0, 1/sqrt(m), (m, n)).
    """

    kind = "dense"

    def _block_shape(self):
        return self.shape


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
        orbits = []
        seen = set()
        for u in range(h):
            for v in range(w):
                partner = ((-u) % h, (-v) % w)
                rep = min((u, v), partner)
                if rep not in seen:
                    seen.add(rep)
                    orbits.append(rep)
        rest = [o for o in orbits if o != (0, 0)]
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(len(rest))
        chosen = [(0, 0)]
        count = 1
        for k in order:
            if count >= self.m:
                break
            u, v = rest[k]
            chosen.append((u, v))
            count += 1 if ((-u) % h, (-v) % w) == (u, v) else 2
        self.reps = sorted(chosen)
        self.selfconj = [
            ((-u) % h, (-v) % w) == (u, v) for (u, v) in self.reps
        ]
        # Gather and scatter indices into the flattened spectrum, and the
        # measurement slot of each representative in sorted order: one for
        # a self-conjugate frequency, two (real, imaginary) for a pair.
        reps = np.array(self.reps, dtype=np.intp)
        sc = np.array(self.selfconj)
        widths = np.where(sc, 1, 2)
        pos = np.cumsum(widths) - widths
        flat = reps[:, 0] * w + reps[:, 1]
        mirror = (-reps[~sc]) % np.array([h, w])
        self._self_flat, self._self_pos = flat[sc], pos[sc]
        self._pair_flat, self._pair_pos = flat[~sc], pos[~sc]
        self._mirror_flat = mirror[:, 0] * w + mirror[:, 1]
        self.m = count

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


def add_noise(y, spec: NoiseSpec, seed):
    """Corrupt measurements according to the noise spec.

    Returns (noisy, noise, realized_snr_db) where
    snr_db = 20*log10(||y - mean(y)|| / ||noise||); the mean removal
    treats the empirical mean of the clean measurements as the signal
    baseline.  When target_snr_db is set the noise is rescaled to hit it
    exactly.  With model "none" the realized SNR is +inf.
    """
    y = np.asarray(y, dtype=float)
    if spec.model == "none":
        return y.copy(), np.zeros_like(y), math.inf
    rng = np.random.default_rng(seed)
    sigma = spec.sigma if spec.sigma > 0 else 1.0
    if spec.model == "gaussian":
        noise = rng.normal(0.0, sigma, y.shape)
    else:
        outlier = rng.random(y.shape) < spec.xi
        scales = np.where(outlier, sigma * math.sqrt(spec.kappa), sigma)
        noise = rng.standard_normal(y.shape) * scales
    signal = np.linalg.norm(y - np.mean(y))
    if spec.target_snr_db is not None:
        want = signal * 10.0 ** (-spec.target_snr_db / 20.0)
        nn = np.linalg.norm(noise)
        if nn == 0.0 or signal == 0.0:
            raise ValueError("cannot rescale noise to a target SNR here")
        noise = noise * (want / nn)
    nn = np.linalg.norm(noise)
    if nn == 0.0:
        realized = math.inf
    elif signal == 0.0:
        realized = -math.inf
    else:
        realized = 20.0 * math.log10(signal / nn)
    return y + noise, noise, realized
