"""Measurement file format: round trips and header validation."""

import numpy as np
import pytest

from groupcs import (
    MeasurementFile,
    NoiseSpec,
    read_measurements,
    write_measurements,
)
from groupcs.measfile import MeasFileError


def sample(tmp_path, **over):
    kw = dict(
        op_kind="dense",
        shape=(64, 64),
        subrate=0.3,
        seed=7,
        noise=NoiseSpec(model="gaussian", sigma=5.0),
        snr_db=18.25,
        y=np.arange(5, dtype=float),
    )
    kw.update(over)
    mf = MeasurementFile(**kw)
    p = tmp_path / "m.bin"
    write_measurements(p, mf)
    return p, mf


def test_round_trip(tmp_path):
    p, mf = sample(tmp_path)
    back = read_measurements(p)
    assert back.op_kind == mf.op_kind
    assert back.shape == mf.shape
    assert back.subrate == mf.subrate
    assert back.seed == mf.seed
    assert back.noise == mf.noise
    assert back.snr_db == mf.snr_db
    np.testing.assert_array_equal(back.y, mf.y)


def test_round_trip_with_target_snr(tmp_path):
    noise = NoiseSpec(
        model="gaussian_mixture", sigma=1.0, xi=0.1, kappa=100.0, target_snr_db=15.0
    )
    p, mf = sample(tmp_path, noise=noise)
    back = read_measurements(p)
    assert back.noise == noise


def test_infinite_snr_survives(tmp_path):
    p, _ = sample(tmp_path, noise=NoiseSpec(model="none"), snr_db=np.inf)
    assert read_measurements(p).snr_db == np.inf


def test_header_is_ascii_then_payload(tmp_path):
    p, mf = sample(tmp_path)
    raw = p.read_bytes()
    head, sep, payload = raw.partition(b"\nend\n")
    assert sep
    assert head.decode("ascii").splitlines()[0] == "GSRM1"
    assert "target_snr_db" not in head.decode("ascii")
    assert payload == mf.y.astype("<f8").tobytes()


def test_write_is_deterministic(tmp_path):
    p1, _ = sample(tmp_path)
    raw1 = p1.read_bytes()
    p2 = tmp_path / "m2.bin"
    write_measurements(p2, read_measurements(p1))
    assert p2.read_bytes() == raw1


def test_float_fields_round_trip_exactly(tmp_path):
    subrate = 1.0 / 3.0
    p, _ = sample(tmp_path, subrate=subrate, snr_db=0.1 + 0.2)
    back = read_measurements(p)
    assert back.subrate == subrate
    assert back.snr_db == 0.1 + 0.2


def test_rejects_bad_magic(tmp_path):
    p, _ = sample(tmp_path)
    raw = p.read_bytes().replace(b"GSRM1", b"GSRM9", 1)
    p.write_bytes(raw)
    with pytest.raises(MeasFileError):
        read_measurements(p)


def test_rejects_missing_field(tmp_path):
    p, _ = sample(tmp_path)
    raw = p.read_bytes().replace(b"seed=7\n", b"")
    p.write_bytes(raw)
    with pytest.raises(MeasFileError):
        read_measurements(p)


def test_rejects_short_payload(tmp_path):
    p, _ = sample(tmp_path)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(MeasFileError):
        read_measurements(p)


def test_rejects_unknown_operator(tmp_path):
    p, _ = sample(tmp_path)
    p.write_bytes(p.read_bytes().replace(b"op=dense", b"op=wavelet"))
    with pytest.raises(MeasFileError, match="operator kind must be one of dense, block, dft"):
        read_measurements(p)


def test_rejects_target_snr_without_noise(tmp_path):
    p, _ = sample(tmp_path, noise=NoiseSpec(model="gaussian", target_snr_db=15.0))
    p.write_bytes(p.read_bytes().replace(b"noise=gaussian", b"noise=none"))
    with pytest.raises(MeasFileError, match="bad header field"):
        read_measurements(p)


def test_rejects_malformed_line(tmp_path):
    p, _ = sample(tmp_path)
    p.write_bytes(p.read_bytes().replace(b"seed=7", b"seed 7"))
    with pytest.raises(MeasFileError):
        read_measurements(p)


def test_rejects_non_ascii_header(tmp_path):
    p, _ = sample(tmp_path)
    p.write_bytes(p.read_bytes().replace(b"noise=gaussian", b"noise=gau\xdfsian"))
    with pytest.raises(MeasFileError, match="not a GSRM1"):
        read_measurements(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_payload(tmp_path, bad):
    y = np.arange(5, dtype=float)
    y[3] = bad
    p, _ = sample(tmp_path, y=y)
    with pytest.raises(MeasFileError, match=r"m\.bin: 1 of 5 measurements are not finite"):
        read_measurements(p)


def test_reads_a_huge_finite_payload(tmp_path):
    p, mf = sample(tmp_path, y=np.full(5, 1e308))
    np.testing.assert_array_equal(read_measurements(p).y, mf.y)
