"""Binary PGM (P5) image files, 8-bit grayscale with maxval 255."""

from __future__ import annotations

import numpy as np


class PgmError(ValueError):
    pass


def _read_token(buf, pos):
    # Skips whitespace and '#' comments, returns (token, new_pos).
    n = len(buf)
    while pos < n:
        ch = buf[pos : pos + 1]
        if ch == b"#":
            while pos < n and buf[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise PgmError("truncated PGM header")
    return buf[start:pos], pos


def read_pgm(path):
    """Read a binary P5 PGM file into a float64 array of shape (h, w)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _read_token(buf, 0)
    if magic != b"P5":
        raise PgmError(f"not a binary PGM (magic {magic!r})")
    fields = []
    for _ in range(3):
        tok, pos = _read_token(buf, pos)
        try:
            fields.append(int(tok))
        except ValueError as exc:
            raise PgmError(f"bad PGM header token {tok!r}") from exc
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmError(f"bad PGM dimensions {width}x{height}")
    if maxval != 255:
        raise PgmError(f"only maxval 255 supported, got {maxval}")
    # Exactly one whitespace byte separates the header from the raster.
    pos += 1
    data = buf[pos : pos + width * height]
    if len(data) < width * height:
        raise PgmError("truncated PGM raster")
    return (
        np.frombuffer(data, dtype=np.uint8).astype(float).reshape(height, width)
    )


def quantize(image):
    """The pixel values `write_pgm` stores: clamped to [0, 255] and
    rounded half away from zero, as floats."""
    return np.floor(np.clip(image, 0.0, 255.0) + 0.5)


def write_pgm(path, image):
    """Write a float image as binary P5, maxval 255, quantized by `quantize`."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise PgmError("image must be 2-D")
    if np.any(~np.isfinite(img)):
        raise PgmError("image has non-finite values")
    quant = quantize(img).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quant.tobytes())
