"""Measurement container files.

A measurement file is a short ASCII header followed by the raw
measurement vector as little-endian float64.  The header records
everything needed to rebuild the operator exactly (kind, image shape,
subrate, seed) plus the noise description and the realized SNR:

    GSRM1
    op=dense
    height=64
    width=64
    m=1229
    subrate=0.3
    seed=7
    noise=gaussian
    noise_sigma=5.0
    noise_xi=0.1
    noise_kappa=100.0
    target_snr_db=15.0
    snr_db=15.0
    end
    <m * 8 bytes>

target_snr_db is omitted when no target was set; snr_db may be "inf" but
not "nan".
Every measurement must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurement import NoiseSpec, check_operator_kind

MAGIC = "GSRM1"


class MeasFileError(ValueError):
    pass


@dataclass
class MeasurementFile:
    op_kind: str
    shape: tuple
    subrate: float
    seed: int
    noise: NoiseSpec
    snr_db: float
    y: np.ndarray


def _at_least(low, name):
    """The parser of an integer header value that must be `low` or more."""
    def parse(text):
        value = int(text)
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        return value
    return parse


def _snr_db(text):
    value = float(text)
    if math.isnan(value):
        raise ValueError(f"snr_db must be a number, got {text}")
    return value


# The header, in file order: each key, its value in a MeasurementFile, and
# the parser of its text.  The one place to add a key.  A value of None
# (only target_snr_db may be None) is left out of the file.
_HEADER = (
    ("op", lambda mf: mf.op_kind, check_operator_kind),
    ("height", lambda mf: mf.shape[0], _at_least(1, "image side")),
    ("width", lambda mf: mf.shape[1], _at_least(1, "image side")),
    ("m", lambda mf: mf.y.shape[0], _at_least(0, "m")),
    ("subrate", lambda mf: mf.subrate, float),
    ("seed", lambda mf: mf.seed, _at_least(0, "seed")),
    ("noise", lambda mf: mf.noise.model, str),
    ("noise_sigma", lambda mf: mf.noise.sigma, float),
    ("noise_xi", lambda mf: mf.noise.xi, float),
    ("noise_kappa", lambda mf: mf.noise.kappa, float),
    ("target_snr_db", lambda mf: mf.noise.target_snr_db, float),
    ("snr_db", lambda mf: mf.snr_db, _snr_db),
)


def _text(value):
    """A header value's text: the shortest repr that reads back exactly for
    a float, numpy floats included, and str for anything else."""
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def write_measurements(path, mf: MeasurementFile):
    values = ((key, get(mf)) for key, get, _ in _HEADER)
    lines = [MAGIC, *(f"{key}={_text(v)}" for key, v in values if v is not None), "end"]
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(mf.y, dtype="<f8").tobytes())


def read_measurements(path):
    with open(path, "rb") as fh:
        buf = fh.read()
    head_end = buf.find(b"\nend\n")
    head = buf[:head_end]
    if not buf.startswith((MAGIC + "\n").encode("ascii")) or head_end < 0 or not head.isascii():
        raise MeasFileError(f"{path}: not a {MAGIC} measurement file")
    fields = {}
    for line in head.decode("ascii").splitlines()[1:]:
        key, sep, value = line.partition("=")
        if not sep:
            raise MeasFileError(f"{path}: malformed header line {line!r}")
        fields[key.strip()] = value.strip()
    try:
        got = {key: parse(fields[key]) for key, _, parse in _HEADER
               if key != "target_snr_db" or key in fields}
        noise = NoiseSpec(got["noise"], got["noise_sigma"], got["noise_xi"],
                          got["noise_kappa"], got.get("target_snr_db"))
    except (KeyError, ValueError) as exc:
        raise MeasFileError(f"{path}: bad header field ({exc})") from exc
    m = got["m"]
    data = buf[head_end + len(b"\nend\n") :]
    if len(data) != 8 * m:
        raise MeasFileError(
            f"{path}: expected {8 * m} payload bytes, found {len(data)}"
        )
    y = np.frombuffer(data, dtype="<f8").astype(float)
    bad = m - int(np.count_nonzero(np.isfinite(y)))
    if bad:
        raise MeasFileError(f"{path}: {bad} of {m} measurements are not finite")
    return MeasurementFile(
        op_kind=got["op"], shape=(got["height"], got["width"]), subrate=got["subrate"],
        seed=got["seed"], noise=noise, snr_db=got["snr_db"], y=y,
    )
