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


def header_lines(path):
    return path.read_bytes().partition(b"\nend\n")[0].decode("ascii").splitlines()


def test_header_text_without_target(tmp_path):
    p, _ = sample(tmp_path, noise=NoiseSpec(model="none"), snr_db=np.inf)
    assert header_lines(p) == [
        "GSRM1", "op=dense", "height=64", "width=64", "m=5", "subrate=0.3", "seed=7",
        "noise=none", "noise_sigma=1.0", "noise_xi=0.1", "noise_kappa=100.0",
        "snr_db=inf",
    ]


def test_header_text_with_target(tmp_path):
    noise = NoiseSpec(model="gaussian_mixture", sigma=2.5, xi=0.05, kappa=1e3,
                      target_snr_db=-15.0)
    p, _ = sample(tmp_path, op_kind="dft", shape=(3, 40), subrate=1, seed=0, noise=noise,
                  snr_db=1.0 / 3.0, y=np.zeros(120))
    assert header_lines(p) == [
        "GSRM1", "op=dft", "height=3", "width=40", "m=120", "subrate=1", "seed=0",
        "noise=gaussian_mixture", "noise_sigma=2.5", "noise_xi=0.05",
        "noise_kappa=1000.0", "target_snr_db=-15.0", "snr_db=0.3333333333333333",
    ]


def test_numpy_floats_are_written_as_floats(tmp_path):
    p, mf = sample(tmp_path, subrate=np.float64(0.3), snr_db=np.float64(-np.inf),
                   noise=NoiseSpec("gaussian", np.float64(5.0), np.float32(0.25)))
    lines = header_lines(p)
    assert "subrate=0.3" in lines
    assert "noise_sigma=5.0" in lines and "noise_xi=0.25" in lines
    assert "snr_db=-inf" in lines
    back = read_measurements(p)
    assert (back.subrate, back.noise, back.snr_db) == (0.3, mf.noise, -np.inf)


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


@pytest.mark.parametrize("key", ["height", "width"])
@pytest.mark.parametrize("side", ["0", "-5"])
def test_rejects_a_side_below_1(tmp_path, key, side):
    p, _ = sample(tmp_path)
    p.write_bytes(p.read_bytes().replace(f"{key}=64".encode(), f"{key}={side}".encode()))
    with pytest.raises(MeasFileError,
                       match=rf"bad header field \(image side must be >= 1, got {side}\)"):
        read_measurements(p)


@pytest.mark.parametrize("key, good, bad, message", [
    ("m", "5", "-1", "m must be >= 0, got -1"),
    ("seed", "7", "-1", "seed must be >= 0, got -1"),
    ("snr_db", "18.25", "nan", "snr_db must be a number, got nan"),
])
def test_rejects_a_negative_count_or_seed_and_a_nan_snr(tmp_path, key, good, bad, message):
    p, _ = sample(tmp_path)
    p.write_bytes(p.read_bytes().replace(f"\n{key}={good}\n".encode(),
                                         f"\n{key}={bad}\n".encode()))
    with pytest.raises(MeasFileError, match=rf"bad header field \({message}\)"):
        read_measurements(p)


def test_reads_the_least_count_and_seed_and_a_negative_infinite_snr(tmp_path):
    """m = 0 and seed = 0 are the least a header may hold, and of the
    non-finite SNRs only NaN is refused."""
    back = read_measurements(sample(tmp_path, y=np.empty(0), seed=0, snr_db=-np.inf)[0])
    assert (back.y.size, back.seed, back.snr_db) == (0, 0, -np.inf)


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
