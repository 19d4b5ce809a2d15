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

target_snr_db is omitted when no target was set; snr_db may be "inf".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import OPERATOR_KINDS, NoiseSpec

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


def write_measurements(path, mf: MeasurementFile):
    lines = [
        MAGIC,
        f"op={mf.op_kind}",
        f"height={mf.shape[0]}",
        f"width={mf.shape[1]}",
        f"m={mf.y.shape[0]}",
        f"subrate={mf.subrate!r}",
        f"seed={mf.seed}",
        f"noise={mf.noise.model}",
        f"noise_sigma={mf.noise.sigma!r}",
        f"noise_xi={mf.noise.xi!r}",
        f"noise_kappa={mf.noise.kappa!r}",
    ]
    if mf.noise.target_snr_db is not None:
        lines.append(f"target_snr_db={mf.noise.target_snr_db!r}")
    lines.append(f"snr_db={mf.snr_db!r}")
    lines.append("end")
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
        kind = fields["op"]
        shape = (int(fields["height"]), int(fields["width"]))
        m = int(fields["m"])
        subrate = float(fields["subrate"])
        seed = int(fields["seed"])
        target = fields.get("target_snr_db")
        noise = NoiseSpec(
            model=fields["noise"],
            sigma=float(fields["noise_sigma"]),
            xi=float(fields["noise_xi"]),
            kappa=float(fields["noise_kappa"]),
            target_snr_db=None if target is None else float(target),
        )
        snr_db = float(fields["snr_db"])
    except (KeyError, ValueError) as exc:
        raise MeasFileError(f"{path}: bad header field ({exc})") from exc
    if kind not in OPERATOR_KINDS:
        raise MeasFileError(f"{path}: unknown operator kind {kind!r}")
    data = buf[head_end + len(b"\nend\n") :]
    if len(data) != 8 * m:
        raise MeasFileError(
            f"{path}: expected {8 * m} payload bytes, found {len(data)}"
        )
    y = np.frombuffer(data, dtype="<f8").astype(float)
    return MeasurementFile(
        op_kind=kind, shape=shape, subrate=subrate, seed=seed,
        noise=noise, snr_db=snr_db, y=y,
    )
