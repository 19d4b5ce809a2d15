"""Reconstruction quality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# 8-bit images throughout; PSNR always uses this peak, not the data range.
PEAK = 255.0


@dataclass(frozen=True)
class QualityReport:
    mse: float
    psnr_db: float


def check_shapes(shape, reference_shape):
    """Raise ValueError unless an image of `shape` can be scored against
    a reference of `reference_shape`."""
    if tuple(shape) != tuple(reference_shape):
        raise ValueError(f"shape mismatch {tuple(shape)} vs {tuple(reference_shape)}")


def psnr(image, reference):
    """PSNR of image against reference, peak fixed at 255.

    Identical inputs give mse 0 and psnr_db +inf.
    """
    a = np.asarray(image, dtype=float)
    b = np.asarray(reference, dtype=float)
    check_shapes(a.shape, b.shape)
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return QualityReport(mse=0.0, psnr_db=math.inf)
    return QualityReport(mse=mse, psnr_db=10.0 * math.log10(PEAK * PEAK / mse))
