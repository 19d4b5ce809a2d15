"""Measurement operators: adjoint identities, masks and the noise model."""

import contextlib
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import held_pool

from groupcs import NoiseSpec, add_noise, make_operator, measurement, work
from groupcs.measurement import (
    BLOCK_SIDE, CHUNK_ENTRIES, BlockGaussianOp, DenseGaussianOp, MaskedDftOp, operator_bytes,
)
from groupcs.solver import Q_FLOOR

KINDS = ("dense", "block", "dft")


def ops_for(shape=(32, 32), subrate=0.4, seed=5):
    return [make_operator(k, shape, subrate, seed) for k in KINDS]


# ---------------------------------------------------------------- linear maps


def test_factory_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_operator("hadamard", (32, 32), 0.4, 0)


def test_subrate_out_of_range():
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            make_operator("dense", (32, 32), bad, 0)


def test_measurement_count_arithmetic():
    op = make_operator("dense", (64, 64), 0.3, 0)
    assert op.m == 1229  # round(0.3 * 4096)
    assert op.n == 4096


def test_zero_image_zero_measurements():
    for op in ops_for():
        np.testing.assert_array_equal(op.forward(np.zeros(op.shape)), 0.0)
        np.testing.assert_array_equal(op.adjoint(np.zeros(op.m)), 0.0)


def test_linearity(rng):
    for op in ops_for():
        x = rng.normal(size=op.shape)
        y = rng.normal(size=op.shape)
        lhs = op.forward(2.5 * x - 1.25 * y)
        rhs = 2.5 * op.forward(x) - 1.25 * op.forward(y)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))


def test_adjoint_identity(rng):
    for op in ops_for():
        for _ in range(20):
            x = rng.normal(size=op.shape)
            y = rng.normal(size=op.m)
            a = float(np.dot(op.forward(x), y))
            b = float(np.sum(x * op.adjoint(y)))
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


@pytest.mark.parametrize("kind, shape", [
    ("dense", (64, 48)),  # 922 rows in chunks of 40: 23 chunks and 2 rows
    ("block", (64, 96)),  # six blocks of 307 or 308 rows in chunks of 128
    ("dft", (32, 32)),
])
def test_normal_is_forward_then_weighted_adjoint(kind, shape, rng):
    """normal(x, q) gives forward(x) bit for bit and adjoint(q * forward(x))
    to 1e-14 relative, for weights that hold Q_FLOOR and exact zeros."""
    op = make_operator(kind, shape, 0.3, 8)
    if kind != "dft":
        step = CHUNK_ENTRIES // op.mats[0].shape[1] // 8 * 8
        assert any(len(a) > step and len(a) % step for a in op.mats)
    x = rng.normal(0, 50, shape)
    q = rng.uniform(0, 1, op.m)
    q[::7], q[3::11] = Q_FLOOR, 0.0
    hx, hqhx = op.normal(x, q)
    want = op.adjoint(q * op.forward(x))
    np.testing.assert_array_equal(hx, op.forward(x))
    assert hqhx.shape == shape
    assert np.linalg.norm(hqhx - want) <= 1e-14 * np.linalg.norm(want)


def test_normal_checks_shapes():
    for op in ops_for():
        with pytest.raises(ValueError):
            op.normal(np.zeros((32, 31)), np.ones(op.m))
        with pytest.raises(ValueError):
            op.normal(np.zeros(op.shape), np.ones(op.m + 1))


def test_shape_checks():
    op = make_operator("dense", (32, 32), 0.4, 0)
    with pytest.raises(ValueError):
        op.forward(np.zeros((16, 16)))
    with pytest.raises(ValueError):
        op.adjoint(np.zeros(op.m + 1))


def test_seeded_determinism(rng):
    x = rng.normal(size=(32, 32))
    for kind in KINDS:
        a = make_operator(kind, (32, 32), 0.4, 9).forward(x)
        b = make_operator(kind, (32, 32), 0.4, 9).forward(x)
        np.testing.assert_array_equal(a, b)
        c = make_operator(kind, (32, 32), 0.4, 10).forward(x)
        assert not np.array_equal(a, c)


# --------------------------------------------------------------------- dense


def test_dense_single_row_adjoint():
    op = DenseGaussianOp((4, 4), 0.05, 3)  # rounds to a single row
    assert op.m == 1
    np.testing.assert_array_equal(op.adjoint(np.ones(1)).ravel(), op.a[0])


def test_dense_row_scale():
    op = DenseGaussianOp((64, 64), 0.25, 0)
    # entries N(0, 1/m): columns have roughly unit norm
    norms = np.linalg.norm(op.a, axis=0)
    assert abs(np.mean(norms) - 1.0) < 0.05


def test_dense_refuses_matrix_beyond_physical_memory():
    # 8.4M x 16.8M entries, about 1 PB: refused before any allocation
    with pytest.raises(ValueError, match="physical memory"):
        DenseGaussianOp((4096, 4096), 0.5, 0)


@pytest.mark.parametrize("kind", ["dense", "block"])
def test_operator_bytes_counts_matrices_and_pixel_indices(kind):
    op = make_operator(kind, (64, 96), 0.3, 2)
    held = sum(a.nbytes for a in op.mats) + op.cols.nbytes
    assert operator_bytes(kind, (64, 96), 0.3) == held


def test_operator_beyond_memory_is_refused_by_its_count(monkeypatch):
    need = operator_bytes("block", (64, 64), 0.3)
    monkeypatch.setattr("groupcs.work.physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match="^block operator of 1229 rows of 1024 entries needs"):
        BlockGaussianOp((64, 64), 0.3, 0)
    monkeypatch.setattr("groupcs.work.physical_memory", lambda: need)
    BlockGaussianOp((64, 64), 0.3, 0)
    assert operator_bytes("dft", (64, 64), 0.3) == 0


# --------------------------------------------------------------------- block


def test_block_total_measurement_count():
    op = BlockGaussianOp((64, 64), 0.3, 1)
    assert op.m == 1229
    assert sum(a.shape[0] for a in op.mats) == 1229


def test_block_requires_divisible_shape():
    with pytest.raises(ValueError):
        BlockGaussianOp((48, 50), 0.3, 0)


def test_block_structure_is_blockwise(rng):
    """Zeroing one 32x32 block only changes that block's rows."""
    op = BlockGaussianOp((64, 32), 0.3, 2)
    x = rng.normal(size=(64, 32))
    y_full = op.forward(x)
    x2 = x.copy()
    x2[:32] = 0.0
    y_cut = op.forward(x2)
    rows0 = op.mats[0].shape[0]
    assert np.any(y_full[:rows0] != y_cut[:rows0])
    np.testing.assert_array_equal(y_full[rows0:], y_cut[rows0:])


def test_block_dense_view_matches_forward(rng):
    op = BlockGaussianOp((64, 64), 0.2, 4)
    x = rng.normal(size=(64, 64))
    np.testing.assert_allclose(op.a @ x.ravel(), op.forward(x), atol=1e-10)


def loop_gaussian_mats(shape, block, subrate, seed):
    """Reference: one N(0, 1/rows) draw per block, blocks in raster order."""
    (h, w), (bh, bw) = shape, block
    n_blocks = (h // bh) * (w // bw)
    base, extra = divmod(max(1, round(subrate * h * w)), n_blocks)
    rng = np.random.default_rng(seed)
    mats = []
    for b in range(n_blocks):
        rows = base + (1 if b < extra else 0)
        scale = 1.0 / math.sqrt(rows) if rows else 1.0
        mats.append(rng.normal(0.0, scale, (rows, bh * bw)))
    return mats


def loop_tiles(shape, block):
    (h, w), (bh, bw) = shape, block
    for br in range(h // bh):
        for bc in range(w // bw):
            yield slice(br * bh, (br + 1) * bh), slice(bc * bw, (bc + 1) * bw)


def loop_gaussian_forward(mats, block, x):
    return np.concatenate(
        [a @ x[t].ravel() for a, t in zip(mats, loop_tiles(x.shape, block))]
    )


def loop_gaussian_adjoint(mats, block, shape, y):
    out = np.zeros(shape)
    pos = 0
    for a, t in zip(mats, loop_tiles(shape, block)):
        out[t] = (a.T @ y[pos : pos + a.shape[0]]).reshape(block)
        pos += a.shape[0]
    return out


def loop_gaussian_dense(mats, block, shape):
    idx = np.arange(shape[0] * shape[1]).reshape(shape)
    mat = np.zeros((sum(a.shape[0] for a in mats), idx.size))
    pos = 0
    for a, t in zip(mats, loop_tiles(shape, block)):
        mat[pos : pos + a.shape[0], idx[t].ravel()] = a
        pos += a.shape[0]
    return mat


@pytest.mark.parametrize(
    "kind, shape, subrate",
    [
        ("dense", (37, 23), 0.3),
        ("dense", (4, 4), 0.05),  # a single row
        ("block", (64, 64), 0.3),
        ("block", (64, 32), 0.3),
        ("block", (96, 128), 0.25),
    ],
)
def test_gaussian_ops_match_block_loop(kind, shape, subrate, rng):
    """Both Gaussian kinds equal the per-tile walk bit for bit; the dense
    kind is the walk with one tile the size of the image."""
    op = make_operator(kind, shape, subrate, 17)
    block = shape if kind == "dense" else (BLOCK_SIDE, BLOCK_SIDE)
    mats = loop_gaussian_mats(shape, block, subrate, 17)
    assert len(op.mats) == len(mats)
    for got, want in zip(op.mats, mats):
        np.testing.assert_array_equal(got, want)
    x = rng.normal(0, 50, shape)
    y = rng.normal(0, 50, op.m)
    np.testing.assert_array_equal(op.forward(x), loop_gaussian_forward(mats, block, x))
    np.testing.assert_array_equal(op.adjoint(y), loop_gaussian_adjoint(mats, block, shape, y))
    np.testing.assert_array_equal(op.a, loop_gaussian_dense(mats, block, shape))
    if kind == "dense":
        # The draw a measurement file's header rebuilds the matrix from.
        want = np.random.default_rng(17).normal(0.0, 1.0 / math.sqrt(op.m), (op.m, op.n))
        np.testing.assert_array_equal(DenseGaussianOp(shape, subrate, 17).a, want)


# ------------------------------------------------------- split Gaussian draw


@pytest.fixture
def small_split(monkeypatch):
    """Split draws from 2 * 2**13 normals on, with a 2**11-normal window;
    returns the list each build's _draw_normals result is appended to."""
    monkeypatch.setattr(measurement, "SPLIT_NORMALS", 2**13)
    monkeypatch.setattr(measurement, "HANDOFF_WINDOW", 2**11)
    shifts, draw = [], measurement._draw_normals
    monkeypatch.setattr(measurement, "_draw_normals",
                        lambda rng, out: shifts.append(draw(rng, out)) or shifts[-1])
    return shifts


def sequential_normals(seed, count):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(count), rng.bit_generator.state


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("kind, shape, subrate", [
    ("dense", (37, 23), 0.3),  # 217k normals
    ("block", (64, 64), 0.3),  # blocks of 308 and 307 rows
    ("block", (96, 128), 0.25),
])
def test_split_gaussian_ops_match_block_loop(kind, shape, subrate, workers, small_split,
                                             monkeypatch):
    """Drawn in WORKERS parts, every hand-off accepted, both Gaussian kinds
    equal the per-tile walk bit for bit."""
    monkeypatch.setattr(work, "WORKERS", workers)
    op = make_operator(kind, shape, subrate, 17)
    block = shape if kind == "dense" else (BLOCK_SIDE, BLOCK_SIDE)
    for got, want in zip(op.mats, loop_gaussian_mats(shape, block, subrate, 17), strict=True):
        np.testing.assert_array_equal(got, want)
    assert len(small_split[0]) == workers - 1
    assert all(s is not None and 0 <= s < measurement.HANDOFF_WINDOW for s in small_split[0])


@pytest.mark.parametrize("seed", range(8))
def test_split_draw_ends_in_the_sequential_state(seed, small_split, monkeypatch):
    """The split draw gives rng.standard_normal's values and leaves rng
    where it leaves it, whatever the worker count, and accepts every part
    whether the pool draws it or, held by other work, leaves it to the
    caller."""
    want, state = sequential_normals(seed, 200_000)
    for hold in (contextlib.nullcontext, held_pool):
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(work, "WORKERS", workers)
            rng, out = np.random.default_rng(seed), np.empty(200_000)
            with hold():
                measurement._draw_normals(rng, out)
            np.testing.assert_array_equal(out, want)
            assert rng.bit_generator.state == state
    assert [len(s) for s in small_split] == [0, 1, 2, 4] * 2
    assert None not in sum(small_split, [])


def test_split_draw_is_accepted_at_the_installed_sizes(monkeypatch):
    """At the real SPLIT_NORMALS and HANDOFF_WINDOW the guessed starts are
    accepted on this numpy: a numpy whose normals take other words per
    draw fails here rather than drawing every part twice."""
    monkeypatch.setattr(work, "WORKERS", 2)
    count = 2 * measurement.SPLIT_NORMALS + 5
    want, state = sequential_normals(3, count)
    rng, out = np.random.default_rng(3), np.empty(count)
    [shift] = measurement._draw_normals(rng, out)
    assert shift is not None
    np.testing.assert_array_equal(out, want)
    assert rng.bit_generator.state == state


def test_one_worker_is_the_plain_draw(monkeypatch):
    """With WORKERS = 1 nothing goes to the pool."""
    monkeypatch.setattr(work, "WORKERS", 1)
    monkeypatch.setattr(work._POOL, "submit", None)  # fails if called
    count = 4 * measurement.SPLIT_NORMALS
    want, state = sequential_normals(4, count)
    rng, out = np.random.default_rng(4), np.empty(count)
    assert measurement._draw_normals(rng, out) == []
    np.testing.assert_array_equal(out, want)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("words", [0.9, 1.1])
def test_wrong_guess_falls_back_to_the_same_bytes(words, small_split, monkeypatch):
    """A start guessed too early (the streams meet past the window) or too
    late (the part starts past its first normal) is redrawn by the caller."""
    monkeypatch.setattr(work, "WORKERS", 3)
    monkeypatch.setattr(measurement, "WORDS_PER_NORMAL", words)
    want, state = sequential_normals(6, 200_000)
    rng, out = np.random.default_rng(6), np.empty(200_000)
    assert measurement._draw_normals(rng, out) == [None, None]
    np.testing.assert_array_equal(out, want)
    assert rng.bit_generator.state == state


def test_wrong_recorded_state_falls_back_to_the_same_bytes(small_split, monkeypatch):
    """A part whose window value is found but whose recorded state is not
    reached is redrawn from where the window's prefix ended."""
    monkeypatch.setattr(work, "WORKERS", 2)
    draw_part = measurement._draw_part

    def off_by_one(state, out, lo, hi):
        gen, mark = draw_part(state, out, lo, hi)
        mark["state"]["state"] += 1
        return gen, mark

    monkeypatch.setattr(measurement, "_draw_part", off_by_one)
    want, state = sequential_normals(7, 200_000)
    rng, out = np.random.default_rng(7), np.empty(200_000)
    assert measurement._draw_normals(rng, out) == [None]
    np.testing.assert_array_equal(out, want)
    assert rng.bit_generator.state == state


def test_concurrent_builds_give_the_same_bytes(small_split, monkeypatch):
    """Two threads building one operator at once (as two sweep cells do)
    share the pool and both get the sequential draw's matrices."""
    monkeypatch.setattr(work, "WORKERS", 2)
    start = threading.Barrier(2)

    def build():
        start.wait()
        return make_operator("block", (96, 128), 0.25, 17)

    with ThreadPoolExecutor(2) as pool:
        ops = [f.result() for f in [pool.submit(build) for _ in range(2)]]
    want = loop_gaussian_mats((96, 128), (BLOCK_SIDE, BLOCK_SIDE), 0.25, 17)
    for op in ops:
        for got, mat in zip(op.mats, want, strict=True):
            np.testing.assert_array_equal(got, mat)
    assert len(small_split) == 2


def test_busy_pool_makes_the_caller_draw_the_part(monkeypatch):
    """A part still queued behind other work once the caller has drawn
    its own is cancelled and drawn by the caller from its guessed start,
    and accepted; the caller does not wait for the pool."""
    monkeypatch.setattr(work, "WORKERS", 2)
    count = 2 * measurement.SPLIT_NORMALS
    want, state = sequential_normals(8, count)
    rng, out = np.random.default_rng(8), np.empty(count)
    with held_pool() as blockers:
        [shift] = measurement._draw_normals(rng, out)
        assert not any(blocker.done() for blocker in blockers)
    assert shift is not None
    np.testing.assert_array_equal(out, want)
    assert rng.bit_generator.state == state


# ----------------------------------------------------------------------- dft


def test_dft_full_mask_round_trip(rng):
    op = MaskedDftOp((4, 4), 1.0, 0)
    assert op.m == 16
    x = rng.normal(size=(4, 4))
    back = op.adjoint(op.forward(x))
    assert np.linalg.norm(back - x) <= 1e-9


def loop_dft_mask(shape, subrate, seed):
    """Reference: the per-frequency orbit loop that draws the mask.

    Returns the sorted representatives, whether each is self-conjugate,
    and the measurement count.
    """
    h, w = shape
    orbits = []
    seen = set()
    for u in range(h):
        for v in range(w):
            rep = min((u, v), ((-u) % h, (-v) % w))
            if rep not in seen:
                seen.add(rep)
                orbits.append(rep)
    rest = [o for o in orbits if o != (0, 0)]
    order = np.random.default_rng(seed).permutation(len(rest))
    m = max(1, round(subrate * h * w))
    chosen, count = [(0, 0)], 1
    for k in order:
        if count >= m:
            break
        u, v = rest[k]
        chosen.append((u, v))
        count += 1 if ((-u) % h, (-v) % w) == (u, v) else 2
    reps = sorted(chosen)
    return reps, [((-u) % h, (-v) % w) == (u, v) for (u, v) in reps], count


def loop_dft_forward(mask, image):
    """Reference: the per-frequency loop over the mask representatives."""
    reps, selfconj, m = mask
    spec = np.fft.fft2(np.asarray(image, dtype=float), norm="ortho")
    out = np.empty(m)
    pos = 0
    for (u, v), sc in zip(reps, selfconj):
        if sc:
            out[pos] = spec[u, v].real
            pos += 1
        else:
            out[pos] = math.sqrt(2.0) * spec[u, v].real
            out[pos + 1] = math.sqrt(2.0) * spec[u, v].imag
            pos += 2
    return out


def loop_dft_adjoint(mask, shape, y):
    reps, selfconj, _ = mask
    h, w = shape
    spec = np.zeros((h, w), dtype=complex)
    pos = 0
    for (fu, fv), sc in zip(reps, selfconj):
        if sc:
            spec[fu, fv] = y[pos]
            pos += 1
        else:
            val = (y[pos] + 1j * y[pos + 1]) / math.sqrt(2.0)
            spec[fu, fv] = val
            spec[(-fu) % h, (-fv) % w] = np.conj(val)
            pos += 2
    return np.fft.ifft2(spec, norm="ortho").real


@pytest.mark.parametrize("shape", [(16, 16), (15, 21), (9, 12), (1, 7), (1, 1), (2, 2)])
@pytest.mark.parametrize("subrate", [0.05, 0.3, 1.0])
def test_dft_index_arrays_match_frequency_loop(shape, subrate, rng):
    op = MaskedDftOp(shape, subrate, 8)
    mask = loop_dft_mask(shape, subrate, 8)
    assert op.m == mask[2]
    x = rng.normal(0, 50, shape)
    y = rng.normal(0, 50, op.m)
    np.testing.assert_array_equal(op.forward(x), loop_dft_forward(mask, x))
    np.testing.assert_array_equal(op.adjoint(y), loop_dft_adjoint(mask, shape, y))


def test_dft_rows_orthonormal(rng):
    """H H^T = I for the packed real measurement rows."""
    op = MaskedDftOp((8, 8), 0.5, 3)
    basis = np.eye(op.m)
    hht = np.array([op.forward(op.adjoint(e)) for e in basis])
    np.testing.assert_allclose(hht, np.eye(op.m), atol=1e-10)


def test_dft_keeps_dc():
    """The DC coefficient is always measured: constant images survive."""
    for seed in range(5):
        op = MaskedDftOp((16, 16), 0.1, seed)
        x = np.full((16, 16), 3.0)
        y = op.forward(x)
        back = op.adjoint(y)
        np.testing.assert_allclose(back, x, atol=1e-9)


def test_dft_measurements_are_real(rng):
    op = MaskedDftOp((16, 16), 0.4, 7)
    y = op.forward(rng.normal(size=(16, 16)))
    assert y.dtype == np.float64


def test_dft_count_close_to_target():
    for subrate in (0.1, 0.3, 0.5):
        op = MaskedDftOp((32, 32), subrate, 11)
        assert 0 <= op.m - round(subrate * 1024) <= 1


# --------------------------------------------------------------------- noise


def test_noise_none_passthrough(rng):
    y = rng.normal(size=100)
    noisy, noise, snr = add_noise(y, NoiseSpec(model="none"), 0)
    np.testing.assert_array_equal(noisy, y)
    np.testing.assert_array_equal(noise, 0.0)
    assert snr == np.inf


def test_gaussian_noise_scale(rng):
    y = np.zeros(200_000)
    spec = NoiseSpec(model="gaussian", sigma=3.0)
    _, noise, _ = add_noise(y, spec, 1)
    assert abs(np.std(noise) - 3.0) < 0.03


def test_mixture_degenerates_at_xi_zero():
    y = np.zeros(1000)
    a = add_noise(y, NoiseSpec(model="gaussian", sigma=2.0), 5)[1]
    b = add_noise(
        y, NoiseSpec(model="gaussian_mixture", sigma=2.0, xi=0.0, kappa=100.0), 5
    )[1]
    assert abs(np.std(a) - np.std(b)) < 0.2


def test_mixture_variance_law():
    y = np.zeros(1_000_000)
    spec = NoiseSpec(model="gaussian_mixture", sigma=1.0, xi=0.1, kappa=100.0)
    _, noise, _ = add_noise(y, spec, 2)
    # var = (1 - xi) + xi * kappa = 10.9
    assert abs(np.var(noise) / 10.9 - 1.0) < 0.02


def test_target_snr_hit_exactly(rng):
    y = rng.normal(5.0, 2.0, 4096)
    spec = NoiseSpec(
        model="gaussian_mixture", sigma=1.0, xi=0.1, kappa=100.0, target_snr_db=20.0
    )
    noisy, noise, snr = add_noise(y, spec, 3)
    assert snr == pytest.approx(20.0, abs=0.01)
    signal = np.linalg.norm(y - np.mean(y))
    assert np.linalg.norm(noise) == pytest.approx(signal / 10.0, rel=1e-9)
    np.testing.assert_array_equal(noisy, y + noise)


def test_realized_snr_formula(rng):
    y = rng.normal(0.0, 2.0, 500)
    _, noise, snr = add_noise(y, NoiseSpec(model="gaussian", sigma=0.5), 4)
    expect = 20 * np.log10(
        np.linalg.norm(y - np.mean(y)) / np.linalg.norm(noise)
    )
    assert snr == pytest.approx(expect, rel=1e-12)


def test_noise_norm_overflow_is_refused_without_a_warning():
    """The noise's sum of squares overflows to inf: a ValueError, and no
    numpy warning (the suite turns one into an error)."""
    with pytest.raises(ValueError, match="noise norm overflows"):
        add_noise(np.ones(4), NoiseSpec(model="gaussian", sigma=1e200), 0)


def test_noise_determinism(rng):
    y = rng.normal(size=300)
    spec = NoiseSpec(model="gaussian_mixture", sigma=1.0, xi=0.1, kappa=100.0)
    a = add_noise(y, spec, (7, 1))[1]
    b = add_noise(y, spec, (7, 1))[1]
    np.testing.assert_array_equal(a, b)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(model="salt_pepper")
    with pytest.raises(ValueError):
        NoiseSpec(model="gaussian", sigma=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(model="gaussian_mixture", xi=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(model="gaussian_mixture", kappa=0.5)
    with pytest.raises(ValueError, match="a target SNR needs a noise model"):
        NoiseSpec(target_snr_db=15.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="sigma must be finite"):
            NoiseSpec(model="gaussian", sigma=bad)
        with pytest.raises(ValueError, match="kappa must be finite"):
            NoiseSpec(model="gaussian_mixture", kappa=bad)
    for bad in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="target SNR must be finite"):
            NoiseSpec(model="gaussian", target_snr_db=bad)

