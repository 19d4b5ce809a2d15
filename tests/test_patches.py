"""Patch extraction, block matching against a brute-force oracle, and the
exact aggregation round trip."""

import weakref

import numpy as np
import pytest
from conftest import brute_force_match, patch_at
from hypothesis import given, settings, strategies as st

from groupcs import (
    GroupingConfig, SolverConfig, aggregate_stack, group_stack, make_motif_image, z_step,
)
from groupcs.patches import (
    MAX_BANDS, GroupingError, _bands, _matcher, _smallest_k, reference_anchors,
    stack_bytes,
)


def stride_one_groups(image, cfg):
    """group_stack with stride 1, where every valid anchor is a reference.

    Returns {anchor: (patches, positions)} for each group.
    """
    one = GroupingConfig(cfg.patch_side, 1, cfg.window_side, cfg.group_size)
    patches, positions = group_stack(image, one)
    return {tuple(p[0]): (pat, p) for pat, p in zip(patches, positions)}


# ---------------------------------------------------------------- extraction


def test_extract_constant_patch():
    patches, _ = group_stack(np.full((2, 2), 7.0), GroupingConfig(2, 1, 1, 1))
    np.testing.assert_array_equal(patches, [[[7, 7, 7, 7]]])


def test_extract_is_column_major():
    img = np.arange(9, dtype=float).reshape(3, 3)  # pixel(r, c) = 3r + c
    groups = stride_one_groups(img, GroupingConfig(2, 1, 1, 1))
    np.testing.assert_array_equal(groups[1, 1][0][0], [4, 7, 5, 8])


def test_extract_out_of_bounds():
    with pytest.raises(GroupingError):
        group_stack(np.zeros((3, 3)), GroupingConfig(4, 1, 1, 1))
    with pytest.raises(GroupingError):
        group_stack(np.zeros((3, 5)), GroupingConfig(4, 1, 1, 1))


# ------------------------------------------------------------------ matching


def small_cfg():
    return GroupingConfig(patch_side=2, stride=2, window_side=6, group_size=8)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_smallest_k_is_a_stable_sort_prefix(data):
    """The exact top-k picks and orders the same slots as a full stable
    argsort, on rows with heavy ties, NaN padding, distances that
    overflowed to +inf and a -inf reference, for every k up to the row
    width."""
    rows = data.draw(st.integers(1, 4))
    width = data.draw(st.integers(1, 24))
    values = st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.5, np.inf, np.nan])
    dist = np.array(data.draw(st.lists(st.lists(values, min_size=width, max_size=width),
                                       min_size=rows, max_size=rows)))
    ref = data.draw(st.lists(st.integers(0, width - 1), min_size=rows, max_size=rows))
    if data.draw(st.booleans()):
        dist[np.arange(rows), ref] = -np.inf
    k = data.draw(st.one_of(st.just(width), st.integers(1, width)))
    want = np.argsort(dist, axis=1, kind="stable")[:, :k]
    np.testing.assert_array_equal(_smallest_k(dist, k), want)


def test_constant_image_raster_tiebreak():
    img = np.zeros((10, 10))
    cfg = small_cfg()
    _, positions = stride_one_groups(img, cfg)[4, 4]
    # all distances zero: the reference, then the first window anchors in
    # raster order, starting at the clipped window corner
    expected = brute_force_match(img, (4, 4), cfg)
    np.testing.assert_array_equal(positions, expected)
    assert expected[:3] == [(4, 4), (1, 1), (1, 2)]


def test_reference_content_in_first_column(rng):
    img = rng.uniform(0, 255, (12, 12))
    patches, positions = group_stack(img, small_cfg())
    anchors = np.array(reference_anchors(img.shape, small_cfg()))
    np.testing.assert_array_equal(positions[:, 0], anchors)
    for pat, (r, c) in zip(patches, anchors):
        np.testing.assert_array_equal(pat[0], patch_at(img, (r, c), 2))


def test_matches_brute_force_everywhere(rng):
    img = rng.uniform(0, 255, (12, 12))
    # plant an exact duplicate block to force a distance tie
    img[6:8, 6:8] = img[2:4, 2:4]
    cfg = small_cfg()
    groups = stride_one_groups(img, cfg)
    assert len(groups) == 121
    for pos, (_, positions) in groups.items():
        np.testing.assert_array_equal(positions, brute_force_match(img, pos, cfg))


def test_window_larger_than_image(rng):
    """A window wider than the image searches the whole image, at a cost
    set by the image rather than the window."""
    img = rng.uniform(0, 255, (9, 12))
    cfg = GroupingConfig(patch_side=2, stride=2, window_side=10**6, group_size=8)
    groups = stride_one_groups(img, cfg)
    for pos in [(0, 0), (4, 5), (7, 10)]:
        np.testing.assert_array_equal(groups[pos][1], brute_force_match(img, pos, cfg))


def test_window_too_small_rejected():
    cfg = GroupingConfig(patch_side=2, stride=2, window_side=2, group_size=8)
    with pytest.raises(GroupingError):
        group_stack(np.zeros((10, 10)), cfg)


def test_matrix_columns_follow_positions(rng):
    img = rng.uniform(0, 255, (10, 10))
    patches, positions = group_stack(img, small_cfg())
    for pat, pos in zip(patches.reshape(-1, 4), positions.reshape(-1, 2)):
        np.testing.assert_array_equal(pat, patch_at(img, pos, 2))


# ------------------------------------------------------------------- lattice


def test_reference_lattice_with_edge_snap():
    cfg = GroupingConfig(patch_side=6, stride=4, window_side=20, group_size=60)
    anchors = reference_anchors((32, 32), cfg)
    axis = [0, 4, 8, 12, 16, 20, 24, 26]
    np.testing.assert_array_equal(anchors, [(r, c) for r in axis for c in axis])
    assert len(anchors) == 64


def test_huge_stride_still_covers():
    cfg = GroupingConfig(patch_side=4, stride=1000, window_side=10, group_size=4)
    anchors = reference_anchors((16, 16), cfg)
    covered = np.zeros((16, 16), dtype=bool)
    for r, c in anchors:
        covered[r : r + 4, c : c + 4] = True
    np.testing.assert_array_equal(anchors[0], (0, 0))
    assert covered.all()


def test_infeasible_grouping_rejected_by_lattice():
    # the patch does not fit the image
    with pytest.raises(GroupingError):
        reference_anchors((5, 8), GroupingConfig(patch_side=6, stride=4, window_side=20, group_size=4))
    # an 8x8 window holds 64 candidates mid-image but only 16 at a corner
    with pytest.raises(GroupingError, match="holds 16 candidates"):
        reference_anchors((32, 32), GroupingConfig(patch_side=2, stride=2, window_side=8, group_size=30))
    assert len(reference_anchors((32, 32), GroupingConfig(patch_side=2, stride=2, window_side=8, group_size=16)))


def test_lattice_covers_awkward_sizes():
    for dim in (7, 11, 16, 23, 37):
        cfg = GroupingConfig(patch_side=3, stride=2, window_side=7, group_size=5)
        covered = np.zeros((dim, dim), dtype=bool)
        for r, c in reference_anchors((dim, dim), cfg):
            covered[r : r + 3, c : c + 3] = True
        assert covered.all(), dim


@pytest.mark.parametrize("shape", [(6, 6), (7, 100), (33, 47), (64, 64)])
@pytest.mark.parametrize("patch_side, stride", [(1, 1), (4, 3), (6, 4), (6, 9)])
def test_stack_bytes_counts_what_group_stack_holds(rng, shape, patch_side, stride):
    """The counted lattice is the built one, and the bytes are those of
    group_stack's patch stack plus the patch vector at every anchor."""
    cfg = GroupingConfig(patch_side=patch_side, stride=stride, window_side=200, group_size=1)
    patches, _ = group_stack(rng.uniform(0, 255, shape), cfg)
    assert len(patches) == len(reference_anchors(shape, cfg))
    anchors = (shape[0] - patch_side + 1) * (shape[1] - patch_side + 1)
    assert stack_bytes(shape, cfg) == patches.nbytes + anchors * patch_side**2 * 8


@pytest.mark.parametrize("shape, cfg", [
    ((96, 160), GroupingConfig()),
    ((200, 120), GroupingConfig(8, 4, 24, 30)),
    ((96, 300), GroupingConfig(16, 8, 113, 10)),  # every window reaches every row
    ((40, 300), GroupingConfig(6, 2, 9, 20)),
    ((256, 256), GroupingConfig()),  # 22 bands, the most of any benchmark shape
])
@pytest.mark.parametrize("band_entries", [1, None])
def test_stack_bytes_counts_what_the_z_step_holds(monkeypatch, shape, cfg, band_entries):
    """With bands of one anchor row and at the default size, stack_bytes
    is the most the Z-step holds as its passes start: the patch vectors
    of the band's rows, and its stack with every earlier one not yet
    dropped after its residual pass."""
    if band_entries is not None:
        monkeypatch.setattr("groupcs.patches.BAND_ENTRIES", band_entries)
    live, most = {}, []

    def counting_matcher(img, anchors, grouping, span):
        stack, positions, match = _matcher(img, anchors, grouping, span)
        live[id(stack)] = stack.nbytes
        weakref.finalize(stack, live.pop, id(stack))
        s = grouping.patch_side
        vectors = (span[1] - span[0] - s + 1) * (img.shape[1] - s + 1) * s * s * 8
        most.append(vectors + sum(live.values()))
        return stack, positions, match

    monkeypatch.setattr("groupcs.patches._matcher", counting_matcher)
    image = make_motif_image(max(shape), 3)[: shape[0], : shape[1]]
    z_step(image, SolverConfig(grouping=cfg), 1.5e7)
    assert len(most) > 1
    assert stack_bytes(shape, cfg) == max(most)


def test_stack_bytes_of_a_huge_shape_is_counted_in_few_bands():
    """A header may claim any shape: one 10**15 rows tall is cut into at
    most MAX_BANDS bands, and its count lies between one band's stack and
    the whole stack with every patch vector."""
    shape, cfg = (10**15, 64), GroupingConfig()
    edges = _bands(shape, cfg)[0]
    assert len(edges) - 1 <= MAX_BANDS
    rows, cols = (-(-(dim - 6) // 4) + 1 for dim in shape)
    whole = ((shape[0] - 5) * (shape[1] - 5) + rows * cols * 60) * 36 * 8
    assert (edges[1] - edges[0]) * cols * 60 * 36 * 8 < stack_bytes(shape, cfg) < whole


def test_stack_bytes_of_a_patch_that_does_not_fit_is_zero():
    assert stack_bytes((5, 10**12), GroupingConfig(patch_side=6)) == 0


def test_grouping_beyond_physical_memory_is_refused(rng, monkeypatch):
    """Refused from the counted lattice, before any stack is allocated."""
    image, cfg = rng.uniform(0, 255, (32, 32)), GroupingConfig()
    monkeypatch.setattr("groupcs.work.physical_memory",
                        lambda: stack_bytes((32, 32), cfg) - 1)
    with pytest.raises(GroupingError, match="GiB of physical memory"):
        group_stack(image, cfg)
    with pytest.raises(GroupingError, match="GiB of physical memory"):
        reference_anchors((32, 32), cfg)


def test_z_step_refusal_counts_the_passes_allowance(rng, monkeypatch):
    """A memory that holds the stacks and six image-sized arrays but not
    the passes' four PASS_ENTRIES temporaries as well refuses z_step."""
    image, cfg = rng.uniform(0, 255, (32, 32)), GroupingConfig()
    monkeypatch.setattr("groupcs.work.physical_memory",
                        lambda: stack_bytes((32, 32), cfg) + 6 * 8 * 32 * 32)
    with pytest.raises(GroupingError, match="GiB of physical memory"):
        z_step(image, SolverConfig(grouping=cfg), 1.5e7)


def test_group_stack_refuses_the_whole_stack(monkeypatch):
    """On a shape of several bands, a memory that holds the Z-step's bands
    (stack_bytes) but not every group with every patch vector runs
    reference_anchors and z_step, and refuses group_stack before its
    matcher allocates anything."""
    # Passes of 20 000 entries keep the Z-step's allowance (8 MiB at the
    # default PASS_ENTRIES) under the gap between the two counts here.
    monkeypatch.setattr("groupcs.work.PASS_ENTRIES", 20_000)
    shape, cfg = (96, 160), GroupingConfig()
    groups = len(reference_anchors(shape, cfg))
    whole = (groups * 60 + 91 * 155) * 36 * 8
    assert stack_bytes(shape, cfg) < whole
    monkeypatch.setattr("groupcs.work.physical_memory",
                        lambda: (stack_bytes(shape, cfg) + whole) // 2)
    image = make_motif_image(160, 3)[:96]
    assert len(reference_anchors(shape, cfg)) == groups
    z_step(image, SolverConfig(grouping=cfg), 1.5e7)

    def no_matcher(*args):
        pytest.fail("group_stack allocated its stack")

    monkeypatch.setattr("groupcs.patches._matcher", no_matcher)
    with pytest.raises(GroupingError, match="GiB of physical memory"):
        group_stack(image, cfg)


# --------------------------------------------------------------- aggregation


def test_disjoint_patches_copy_values():
    patches = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    out = aggregate_stack(patches, np.array([[0, 0], [0, 2]]), (2, 4), 2)
    np.testing.assert_array_equal(
        out, [[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]]
    )


def test_overlap_averages():
    patches = np.array([[1.0] * 4, [3.0] * 4])
    out = aggregate_stack(patches, np.array([[0, 0], [0, 1]]), (2, 3), 2)
    np.testing.assert_array_equal(out[:, 1], [2.0, 2.0])


def test_uncovered_pixel_rejected():
    with pytest.raises(ValueError, match="uncovered"):
        aggregate_stack(np.ones((1, 4)), np.array([[0, 0]]), (2, 3), 2)


def round_trip(img, cfg):
    patches, positions = group_stack(img, cfg)
    return aggregate_stack(patches, positions, img.shape, cfg.patch_side)


def test_round_trip_exact(rng):
    img = rng.uniform(0, 255, (20, 20))
    cfg = GroupingConfig(patch_side=3, stride=2, window_side=8, group_size=10)
    np.testing.assert_array_equal(round_trip(img, cfg), img)


@pytest.mark.parametrize(
    "cfg",
    [
        GroupingConfig(2, 1, 5, 6),
        GroupingConfig(2, 3, 6, 9),
        GroupingConfig(3, 2, 7, 12),
        GroupingConfig(4, 4, 9, 16),
        GroupingConfig(5, 3, 11, 20),
    ],
)
def test_round_trip_exact_across_configs(cfg, rng):
    for _ in range(4):
        img = rng.uniform(0, 255, (17, 19))
        np.testing.assert_array_equal(round_trip(img, cfg), img)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(seed):
    r = np.random.default_rng(seed)
    h = int(r.integers(6, 15))
    w = int(r.integers(6, 15))
    img = r.uniform(-1e3, 1e3, (h, w))
    cfg = GroupingConfig(patch_side=2, stride=2, window_side=4, group_size=3)
    assert np.array_equal(round_trip(img, cfg), img)


def test_aggregate_minimizes_group_distance(rng):
    """Perturbing any pixel of the aggregate increases the total squared
    distance to the (fixed) group matrices."""
    img = rng.uniform(0, 255, (10, 10))
    cfg = GroupingConfig(patch_side=2, stride=2, window_side=6, group_size=5)
    patches, positions = group_stack(img, cfg)
    patches = (patches + rng.normal(0, 1, patches.shape)).reshape(-1, 4)
    positions = positions.reshape(-1, 2)

    def total_dist(z):
        return sum(float(np.sum((patch_at(z, pos, 2) - pat) ** 2))
                   for pat, pos in zip(patches, positions))

    z = aggregate_stack(patches, positions, img.shape, 2)
    base = total_dist(z)
    for (r, c) in [(0, 0), (3, 7), (9, 9), (5, 5)]:
        for eps in (0.05, -0.05):
            bumped = z.copy()
            bumped[r, c] += eps
            assert total_dist(bumped) > base
