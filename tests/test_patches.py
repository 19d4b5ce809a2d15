"""Patch extraction, block matching against a brute-force oracle, and the
exact aggregation round trip."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupcs import (
    GroupingConfig,
    aggregate_groups,
    build_groups,
    extract_patch,
    match_group,
)
from groupcs.patches import GroupingError, reference_anchors


def brute_force_match(image, ref_pos, cfg):
    """Oracle: python-loop block matching, the reference first, then
    (distance, raster) ordering."""
    img = np.asarray(image, dtype=float)
    s = cfg.patch_side
    last_r = img.shape[0] - s
    last_c = img.shape[1] - s
    rr, cc = ref_pos
    lo_r = max(0, rr - cfg.window_side // 2)
    hi_r = min(last_r, rr - cfg.window_side // 2 + cfg.window_side - 1)
    lo_c = max(0, cc - cfg.window_side // 2)
    hi_c = min(last_c, cc - cfg.window_side // 2 + cfg.window_side - 1)
    ref = extract_patch(img, ref_pos, s)
    scored = []
    for r in range(lo_r, hi_r + 1):
        for c in range(lo_c, hi_c + 1):
            if (r, c) == tuple(ref_pos):
                d = -np.inf
            else:
                d = float(np.sum((extract_patch(img, (r, c), s) - ref) ** 2))
            scored.append((d, len(scored), (r, c)))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [t[2] for t in scored[: cfg.group_size]]


# ---------------------------------------------------------------- extraction


def test_extract_constant_patch():
    img = np.full((2, 2), 7.0)
    np.testing.assert_array_equal(extract_patch(img, (0, 0), 2), [7, 7, 7, 7])


def test_extract_is_column_major():
    img = np.arange(9, dtype=float).reshape(3, 3)  # pixel(r, c) = 3r + c
    np.testing.assert_array_equal(extract_patch(img, (1, 1), 2), [4, 7, 5, 8])


def test_extract_out_of_bounds():
    img = np.zeros((3, 3))
    with pytest.raises(ValueError):
        extract_patch(img, (2, 2), 2)
    with pytest.raises(ValueError):
        extract_patch(img, (-1, 0), 2)


# ------------------------------------------------------------------ matching


def small_cfg():
    return GroupingConfig(patch_side=2, stride=2, window_side=6, group_size=8)


def test_constant_image_raster_tiebreak():
    img = np.zeros((10, 10))
    cfg = small_cfg()
    grp = match_group(img, (4, 4), cfg)
    # all distances zero: the reference, then the first window anchors in
    # raster order, starting at the clipped window corner
    expected = brute_force_match(img, (4, 4), cfg)
    np.testing.assert_array_equal(grp.positions, expected)
    assert expected[:3] == [(4, 4), (1, 1), (1, 2)]


def test_reference_content_in_first_column(rng):
    img = rng.uniform(0, 255, (12, 12))
    cfg = small_cfg()
    grp = match_group(img, (5, 5), cfg)
    assert grp.ref_index == 0
    np.testing.assert_array_equal(grp.matrix[:, 0], extract_patch(img, (5, 5), 2))


def test_matches_brute_force_everywhere(rng):
    img = rng.uniform(0, 255, (12, 12))
    # plant an exact duplicate block to force a distance tie
    img[6:8, 6:8] = img[2:4, 2:4]
    cfg = small_cfg()
    for r in range(0, 11):
        for c in range(0, 11):
            grp = match_group(img, (r, c), cfg)
            np.testing.assert_array_equal(
                grp.positions, brute_force_match(img, (r, c), cfg)
            )


def test_window_larger_than_image(rng):
    """A window wider than the image searches the whole image, at a cost
    set by the image rather than the window."""
    img = rng.uniform(0, 255, (9, 12))
    cfg = GroupingConfig(patch_side=2, stride=2, window_side=10**6, group_size=8)
    for pos in [(0, 0), (4, 5), (7, 10)]:
        np.testing.assert_array_equal(
            match_group(img, pos, cfg).positions, brute_force_match(img, pos, cfg)
        )


def test_window_too_small_rejected():
    cfg = GroupingConfig(patch_side=2, stride=2, window_side=2, group_size=8)
    with pytest.raises(ValueError):
        match_group(np.zeros((10, 10)), (4, 4), cfg)


def test_matrix_columns_follow_positions(rng):
    img = rng.uniform(0, 255, (10, 10))
    cfg = small_cfg()
    grp = match_group(img, (3, 3), cfg)
    for j, pos in enumerate(grp.positions):
        np.testing.assert_array_equal(
            grp.matrix[:, j], extract_patch(img, tuple(pos), cfg.patch_side)
        )


# ------------------------------------------------------------------- lattice


def test_reference_lattice_with_edge_snap():
    cfg = GroupingConfig(patch_side=6, stride=4, window_side=20, group_size=60)
    anchors = reference_anchors((32, 32), cfg)
    axis = [0, 4, 8, 12, 16, 20, 24, 26]
    assert anchors == [(r, c) for r in axis for c in axis]
    assert len(anchors) == 64


def test_huge_stride_still_covers():
    cfg = GroupingConfig(patch_side=4, stride=1000, window_side=10, group_size=4)
    anchors = reference_anchors((16, 16), cfg)
    covered = np.zeros((16, 16), dtype=bool)
    for r, c in anchors:
        covered[r : r + 4, c : c + 4] = True
    assert anchors[0] == (0, 0)
    assert covered.all()


def test_infeasible_grouping_rejected_by_lattice():
    # the patch does not fit the image
    with pytest.raises(GroupingError):
        reference_anchors((5, 8), GroupingConfig(patch_side=6, stride=4, window_side=20, group_size=4))
    # an 8x8 window holds 64 candidates mid-image but only 16 at a corner
    with pytest.raises(GroupingError, match="holds 16 candidates"):
        reference_anchors((32, 32), GroupingConfig(patch_side=2, stride=2, window_side=8, group_size=30))
    assert reference_anchors((32, 32), GroupingConfig(patch_side=2, stride=2, window_side=8, group_size=16))


def test_lattice_covers_awkward_sizes():
    for dim in (7, 11, 16, 23, 37):
        cfg = GroupingConfig(patch_side=3, stride=2, window_side=7, group_size=5)
        covered = np.zeros((dim, dim), dtype=bool)
        for r, c in reference_anchors((dim, dim), cfg):
            covered[r : r + 3, c : c + 3] = True
        assert covered.all(), dim


# --------------------------------------------------------------- aggregation


def test_disjoint_patches_copy_values():
    from groupcs.patches import PatchGroup

    mat = np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 7.0], [4.0, 8.0]])
    grp = PatchGroup(
        matrix=mat,
        positions=np.array([[0, 0], [0, 2]]),
        ref_index=0,
        patch_side=2,
    )
    out = aggregate_groups([grp], (2, 4))
    np.testing.assert_array_equal(
        out, [[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]]
    )


def test_overlap_averages():
    from groupcs.patches import PatchGroup

    mat = np.array([[1.0, 3.0]] * 4)
    grp = PatchGroup(
        matrix=mat,
        positions=np.array([[0, 0], [0, 1]]),
        ref_index=0,
        patch_side=2,
    )
    out = aggregate_groups([grp], (2, 3))
    np.testing.assert_array_equal(out[:, 1], [2.0, 2.0])


def test_uncovered_pixel_rejected():
    from groupcs.patches import PatchGroup

    grp = PatchGroup(
        matrix=np.ones((4, 1)),
        positions=np.array([[0, 0]]),
        ref_index=0,
        patch_side=2,
    )
    with pytest.raises(ValueError):
        aggregate_groups([grp], (2, 3))


def test_round_trip_exact(rng):
    img = rng.uniform(0, 255, (20, 20))
    cfg = GroupingConfig(patch_side=3, stride=2, window_side=8, group_size=10)
    groups = build_groups(img, cfg)
    back = aggregate_groups(groups, img.shape)
    np.testing.assert_array_equal(back, img)


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
        groups = build_groups(img, cfg)
        np.testing.assert_array_equal(aggregate_groups(groups, img.shape), img)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(seed):
    r = np.random.default_rng(seed)
    h = int(r.integers(6, 15))
    w = int(r.integers(6, 15))
    img = r.uniform(-1e3, 1e3, (h, w))
    cfg = GroupingConfig(patch_side=2, stride=2, window_side=4, group_size=3)
    back = aggregate_groups(build_groups(img, cfg), img.shape)
    assert np.array_equal(back, img)


def test_aggregate_minimizes_group_distance(rng):
    """Perturbing any pixel of the aggregate increases the total squared
    distance to the (fixed) group matrices."""
    img = rng.uniform(0, 255, (10, 10))
    cfg = GroupingConfig(patch_side=2, stride=2, window_side=6, group_size=5)
    groups = build_groups(img, cfg)
    for g in groups:
        g.matrix = g.matrix + rng.normal(0, 1, g.matrix.shape)

    def total_dist(z):
        tot = 0.0
        for g in groups:
            for j, pos in enumerate(g.positions):
                patch = extract_patch(z, tuple(pos), g.patch_side)
                tot += float(np.sum((patch - g.matrix[:, j]) ** 2))
        return tot

    z = aggregate_groups(groups, img.shape)
    base = total_dist(z)
    for (r, c) in [(0, 0), (3, 7), (9, 9), (5, 5)]:
        for eps in (0.05, -0.05):
            bumped = z.copy()
            bumped[r, c] += eps
            assert total_dist(bumped) > base
