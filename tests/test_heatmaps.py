"""Heat-map smoothing, mean-shift mode finding, and the NMS baseline.

The kernel sums and mean-shift steps of the plain batched engine in
modes_reference.py are checked against brute-force window enumeration;
mode finding against the synthetic Gaussian renderer and against that
engine.
"""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import modes_reference as ref
import synth_reference
import poselift.heatmaps as hm
from poselift.geometry import BoundingBox
from poselift.heatmaps import (
    CONVERGENCE_TOL,
    HeatMapVolume,
    find_modes_nms,
    find_modes_volume,
    render_gaussian,
)
from poselift.synth import CorruptionSpec, default_camera, default_skeleton, generate_frames

BOX = BoundingBox(origin_x=0.0, origin_y=0.0, side=256.0)


def brute_force_kde(grid, point, bandwidth):
    """Independent oracle: full-grid enumeration of the flat kernel sum."""
    total = 0.0
    h, w = grid.shape
    for y in range(h):
        for x in range(w):
            if (x - point[0]) ** 2 + (y - point[1]) ** 2 < bandwidth**2:
                total += grid[y, x]
    return total


def brute_force_step(grid, point, bandwidth):
    h, w = grid.shape
    sw = sx = sy = 0.0
    for y in range(h):
        for x in range(w):
            if (x - point[0]) ** 2 + (y - point[1]) ** 2 < bandwidth**2:
                sw += grid[y, x]
                sx += grid[y, x] * x
                sy += grid[y, x] * y
    return np.array([sx / sw, sy / sw])


def window_sum(grid, point, bandwidth):
    """The reference engine's flat-kernel sum at one point."""
    points = np.asarray(point, dtype=np.float64)[None]
    ids = np.zeros(1, dtype=np.intp)
    return ref.window_patches(points, grid[None], ids, bandwidth)[2].sum(axis=1)[0]


def window_step(grid, point, bandwidth):
    """The reference engine's mean-shift step from one point."""
    points = np.asarray(point, dtype=np.float64)[None]
    ids = np.zeros(1, dtype=np.intp)
    return ref.mean_shift_batch(points, grid[None], ids, bandwidth)[0]


class TestHeatMapVolume:
    def test_clamps_negative_values(self):
        maps = np.full((1, 4, 4), -0.5)
        maps[0, 1, 1] = 2.0
        vol = HeatMapVolume(maps=maps, box=BOX)
        assert vol.maps.min() == 0.0
        assert vol.maps[0, 1, 1] == 2.0

    def test_float32_stays_float32_and_nothing_is_narrowed(self):
        rng = np.random.default_rng(3)
        maps = rng.uniform(-0.1, 1.0, (3, 8, 8))  # most values need float64
        narrow = HeatMapVolume(maps=maps.astype(np.float32), box=BOX)
        assert narrow.maps.dtype == np.float32
        assert narrow.maps.nbytes == 4 * 3 * 8 * 8
        np.testing.assert_array_equal(narrow.maps, np.clip(maps.astype(np.float32), 0, None))
        for wide in (maps, maps.astype(np.float16), (maps * 10).astype(int)):
            vol = HeatMapVolume(maps=wide, box=BOX)
            assert vol.maps.dtype == np.float64
            np.testing.assert_array_equal(vol.maps, np.clip(wide, 0, None))

    def test_rejects_all_zero_joint(self):
        maps = np.zeros((2, 4, 4))
        maps[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            HeatMapVolume(maps=maps, box=BOX)

    def test_rejects_non_finite(self):
        maps = np.ones((1, 4, 4))
        maps[0, 2, 2] = np.inf
        with pytest.raises(ValueError):
            HeatMapVolume(maps=maps, box=BOX)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            HeatMapVolume(maps=np.ones((4, 4)), box=BOX)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HeatMapVolume(maps=np.ones((17, 32, 20)), box=BOX)


class TestKdeValue:
    def test_single_pixel_in_window(self):
        grid = np.zeros((16, 16))
        grid[5, 7] = 0.75
        assert window_sum(grid, (7.5, 5.5), 3.0) == pytest.approx(0.75)

    def test_empty_window_is_zero(self):
        grid = np.zeros((16, 16))
        grid[0, 0] = 1.0
        assert window_sum(grid, (12.0, 12.0), 3.0) == 0.0

    def test_uniform_patch_counts_pixels(self):
        grid = np.zeros((16, 16))
        grid[7:10, 7:10] = 1.0  # 3x3 patch of ones centered at (8, 8)
        assert window_sum(grid, (8.0, 8.0), 3.0) == pytest.approx(9.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        grid = rng.uniform(0, 1, size=(24, 24))
        for _ in range(25):
            p = rng.uniform(0, 23, size=2)
            b = rng.uniform(0.5, 5.0)
            assert window_sum(grid, p, b) == pytest.approx(
                brute_force_kde(grid, p, b), rel=1e-12
            )

    def test_boundary_points(self):
        rng = np.random.default_rng(1)
        grid = rng.uniform(0, 1, size=(12, 12))
        for p in [(-0.4, 0.0), (11.4, 11.4), (0.0, 11.0), (5.0, -0.2)]:
            assert window_sum(grid, p, 3.0) == pytest.approx(
                brute_force_kde(grid, p, 3.0), rel=1e-12
            )


class TestMeanShiftStep:
    def test_single_pixel(self):
        grid = np.zeros((16, 16))
        grid[10, 10] = 2.0
        np.testing.assert_allclose(
            window_step(grid, (10.5, 9.5), 3.0), (10, 10)
        )

    def test_symmetric_pair(self):
        grid = np.zeros((16, 16))
        grid[10, 10] = 1.5
        grid[10, 12] = 1.5
        np.testing.assert_allclose(
            window_step(grid, (11.0, 10.0), 3.0), (11, 10)
        )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        grid = rng.uniform(0.01, 1, size=(20, 20))
        for _ in range(25):
            p = rng.uniform(0, 19, size=2)
            b = rng.uniform(1.0, 4.0)
            np.testing.assert_allclose(
                window_step(grid, p, b),
                brute_force_step(grid, p, b),
                rtol=1e-12,
            )


class TestFindModes:
    def test_single_gaussian_bump(self):
        grid = render_gaussian((20.0, 11.0), 32)
        modes = find_modes_volume(grid[None], 3.0, 8)[0]
        assert np.linalg.norm(modes.positions[0] - (20, 11)) < 0.5

    def test_two_separated_bumps(self):
        grid = render_gaussian((8.3, 16.2), 32) + render_gaussian(
            (23.4, 15.5), 32
        )
        modes = find_modes_volume(grid[None], 3.0, 8)[0]
        # seeds started near the saddle between the bumps may stall there
        # with negligible density; the two real bumps dominate
        strong = modes.values > 1e-3 * modes.values[0]
        positions = modes.positions[strong]
        assert len(positions) == 2
        found = sorted(tuple(p) for p in positions)
        assert abs(found[0][0] - 8.3) < 0.5 and abs(found[0][1] - 16.2) < 0.5
        assert abs(found[1][0] - 23.4) < 0.5 and abs(found[1][1] - 15.5) < 0.5

    def test_mirror_symmetry(self):
        grid = render_gaussian((10.0, 16.0), 32) + 0.8 * render_gaussian(
            (21.0, 16.0), 32
        )
        mirrored = grid[:, ::-1].copy()
        modes = find_modes_volume(grid[None], 3.0, 8)[0]
        modes_m = find_modes_volume(mirrored[None], 3.0, 8)[0]
        assert len(modes) == len(modes_m)
        flipped = sorted(map(tuple, np.column_stack(
            [31.0 - modes.positions[:, 0], modes.positions[:, 1]]
        )))
        direct = sorted(map(tuple, modes_m.positions))
        np.testing.assert_allclose(flipped, direct, atol=1e-3)

    def test_values_are_kde_at_modes_and_sorted(self):
        rng = np.random.default_rng(3)
        grid = rng.uniform(0, 1, size=(32, 32)) + 3 * render_gaussian(
            (12.0, 20.0), 32
        )
        modes = find_modes_volume(grid[None], 3.0, 16)[0]
        assert np.all(np.diff(modes.values) <= 1e-12)
        for p, v in zip(modes.positions, modes.values):
            assert v == pytest.approx(brute_force_kde(grid, p, 3.0), rel=1e-9)

    def test_scaling_grid_scales_values_not_positions(self):
        grid = render_gaussian((9.0, 22.0), 32) + 0.5 * render_gaussian(
            (25.0, 7.0), 32
        )
        a = find_modes_volume(grid[None], 3.0, 8)[0]
        b = find_modes_volume((2.5 * grid)[None], 3.0, 8)[0]
        # near-tied micro-modes within the merge radius can swap their
        # suppression order under scaling, moving the representative by a
        # hair; the mode locations agree to well below a pixel
        np.testing.assert_allclose(a.positions, b.positions, atol=0.05)
        np.testing.assert_allclose(2.5 * a.values, b.values, rtol=1e-6)

    def test_truncation(self):
        rng = np.random.default_rng(4)
        grid = rng.uniform(0.01, 1, size=(32, 32))
        modes = find_modes_volume(grid[None], 2.0, 3)[0]
        assert 1 <= len(modes) <= 3

    def test_mode_separation_at_least_half_bandwidth(self):
        rng = np.random.default_rng(5)
        grid = rng.uniform(0.01, 1, size=(32, 32))
        modes = find_modes_volume(grid[None], 3.0, 64)[0]
        d = modes.positions[:, None, :] - modes.positions[None, :, :]
        dist = np.sqrt((d**2).sum(axis=2))
        off_diag = dist[~np.eye(len(modes), dtype=bool)]
        assert np.all(off_diag >= 1.5 - 1e-9)

    def test_monotonic_shadow_density_ascent(self):
        # mean shift with a flat kernel ascends the density built from the
        # kernel's shadow (Epanechnikov), not the flat-kernel sum itself,
        # which can drop when a heavy sample leaves the window
        def shadow_density(grid, p, b):
            h, w = grid.shape
            ys, xs = np.mgrid[0:h, 0:w]
            d2 = (xs - p[0]) ** 2 + (ys - p[1]) ** 2
            return float(np.sum(grid * np.clip(b * b - d2, 0, None)))

        rng = np.random.default_rng(6)
        for _ in range(5):
            grid = rng.uniform(0, 1, size=(24, 24))
            p = rng.uniform(2, 21, size=2)
            prev = shadow_density(grid, p, 3.0)
            for _ in range(30):
                p = window_step(grid, p, 3.0)
                cur = shadow_density(grid, p, 3.0)
                assert cur >= prev - 1e-9
                prev = cur

    def test_volume_matches_per_grid(self):
        rng = np.random.default_rng(8)
        grids = np.stack(
            [
                render_gaussian(rng.uniform(4, 28, size=2), 32)
                + rng.uniform(0, 0.02, size=(32, 32))
                for _ in range(4)
            ]
        )
        batched = find_modes_volume(grids, 3.0, 8)
        for grid, got in zip(grids, batched):
            single = find_modes_volume(grid[None], 3.0, 8)[0]
            np.testing.assert_allclose(
                got.positions, single.positions, atol=1e-9
            )
            np.testing.assert_allclose(got.values, single.values, rtol=1e-12)

    def test_parameter_validation(self):
        grid = np.ones((8, 8))
        with pytest.raises(ValueError):
            find_modes_volume(grid[None], 0.0, 4)
        with pytest.raises(ValueError):
            find_modes_volume(grid[None], 3.0, 0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_rejected_naming_joint(self, value):
        grids = np.stack([render_gaussian((3.0, 4.0), 8)] * 3)
        grids[1, 2, 5] = value
        with pytest.raises(ValueError, match="non-finite values at joint 1"):
            find_modes_volume(grids, 3.0, 4)

    def test_all_zero_grid_rejected_naming_joint(self):
        grids = np.stack([render_gaussian((3.0, 4.0), 8)] * 3)
        grids[2] = -1.0  # clipped at 0, as HeatMapVolume clips
        with pytest.raises(ValueError, match="all-zero heat map for joint 2"):
            find_modes_volume(grids, 3.0, 4)

    def test_negative_pixels_count_as_zero(self):
        rng = np.random.default_rng(21)
        grids = rng.uniform(-1, 1, size=(3, 20, 24))
        got = find_modes_volume(grids, 2.5, 16)
        want = find_modes_volume(np.clip(grids, 0, None), 2.5, 16)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_array_equal(a.values, b.values)

    def test_bandwidth_whose_square_underflows_rejected(self):
        # 2**-538 squared is 0: the window would be empty
        grid = render_gaussian((3.2, 4.6), 8)[None]
        with pytest.raises(ValueError, match="square"):
            find_modes_volume(grid, 2.0**-538, 4)
        # squared, 2**-537 is the least positive float, and the window
        # holds the seed pixel alone
        modes = find_modes_volume(grid, 2.0**-537, 4)[0]
        np.testing.assert_array_equal(modes.positions[0], (3, 5))

    def test_working_set_of_one_frame(self):
        """Memory traced above find_modes_volume's entry on one warm
        criterion-9 frame (seed 7, bandwidth 3, 128 candidates). The window
        catalog is rebuilt from this frame alone, since the number of
        row-sum planes grows with the masks other tests add. It measured
        9.81 MiB while the w*ox^2 planes lived through mean shift and
        suppression and steps gathered all mask rows at once, and 6.33 MiB
        with those planes built for the saddle probes, one mask row
        gathered at a time and in-place pair distances."""
        frame = generate_frames(
            default_skeleton(), default_camera(), 2, CorruptionSpec(noise_floor=0.02), seed=7
        )[1]
        hm._window_masks.cache_clear()
        find_modes_volume(frame.volume.maps, 3.0, 128)  # warm-up: the catalog
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            find_modes_volume(frame.volume.maps, 3.0, 128)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * 2**20


def assert_matches_reference(grids, bandwidth, max_candidates):
    """Per joint: same counts and order as the reference engine, positions
    within CONVERGENCE_TOL, values within rtol 1e-9."""
    got = find_modes_volume(grids, bandwidth, max_candidates)
    want = ref.find_modes_volume(grids, bandwidth, max_candidates)
    assert len(got) == len(want)
    for j, (modes, (positions, values)) in enumerate(zip(got, want)):
        assert len(modes) == len(values), f"joint {j}"
        np.testing.assert_allclose(modes.positions, positions, rtol=0, atol=CONVERGENCE_TOL)
        np.testing.assert_allclose(modes.values, values, rtol=1e-9)


# Float values sit on a 2^-20 lattice, so every window sum is exact in any
# order: densities that tie in exact arithmetic tie in both engines. The
# engines add in different orders, so arbitrary floats repeated across a
# grid make near-ties whose ranking differs between them.
RANDOM_GRIDS = st.tuples(st.integers(1, 4), st.integers(1, 16), st.integers(1, 16)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.integers(0, 3).map(float))
    | arrays(np.float64, shape, elements=st.integers(0, 2**20).map(lambda k: k / 2**20))
)
BANDWIDTHS = st.sampled_from([0.75, 1.0, 1.5, 2.0, 2.5, 3.0])


def assert_close_pairs(x, y, groups, radius):
    """hm._close_pairs gives the pairs that the distance test over every
    pair of points gives, each once, as (lower, higher) index."""
    i, j = np.triu_indices(len(x), 1)
    close = (groups[i] == groups[j]) & ((x[j] - x[i]) ** 2 + (y[j] - y[i]) ** 2 < radius**2)
    got_i, got_j = hm._close_pairs(x, y, groups, radius)
    assert np.all(got_i < got_j)
    got = np.sort(got_i * len(x) + got_j)
    np.testing.assert_array_equal(got, i[close] * len(x) + j[close])


# Values of the merge gate: merging at every step from step 1, and never
MERGING = {"forced": 0.0, "off": np.inf}


def find_modes_merging(share, grids, bandwidth, max_candidates):
    """find_modes_volume with the merge gate at share."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hm, "_MERGE_SHARE", share)
        return find_modes_volume(grids, bandwidth, max_candidates)


def assert_merging_is_exact(grids, bandwidth, max_candidates):
    """Positions and values bit-identical with merging gated, forced at
    every step and off."""
    gated = find_modes_volume(grids, bandwidth, max_candidates)
    for merging, share in MERGING.items():
        got = find_modes_merging(share, grids, bandwidth, max_candidates)
        for j, (a, b) in enumerate(zip(got, gated)):
            np.testing.assert_array_equal(a.positions, b.positions, err_msg=f"{merging} {j}")
            np.testing.assert_array_equal(a.values, b.values, err_msg=f"{merging} {j}")


@pytest.fixture(scope="module")
def criterion_9_maps():
    frames = generate_frames(
        default_skeleton(), default_camera(), 12, CorruptionSpec(noise_floor=0.02), seed=7
    )
    return [frame.volume.maps for frame in frames]


@pytest.fixture(scope="module")
def distractor_maps():
    """24 criterion-5 frames: about one bump per joint, few distractors."""
    frames = generate_frames(
        default_skeleton(), default_camera(), 24,
        CorruptionSpec(distractor_prob=0.15, strength=1.1), seed=1,
    )
    return [frame.volume.maps for frame in frames]


def tie_heavy_grids():
    """The grids of TestReferenceEngine.test_tie_heavy_grids."""
    return np.random.default_rng(11).integers(0, 4, size=(4, 20, 24)).astype(np.float64)


def rows_stepped(share, maps):
    """Rows that _converge passes to _RowSums.step per volume, with the
    merge gate at share: the point-steps of mean shift and the recorded
    points' density sums."""
    counts, step = [], hm._RowSums.step

    def counted(self, cells, *args):
        counts[-1] += len(cells)
        return step(self, cells, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hm._RowSums, "step", counted)
        for grids in maps:
            counts.append(0)
            find_modes_merging(share, grids, 3.0, 128)
    return np.array(counts)


class TestTrajectoryMerge:
    """Trajectories that leave one window state together are merged: the
    outputs are those of merging at every step and of no merging, bit for
    bit, and distractor frames take fewer point-steps."""

    def test_criterion_9_frames(self, criterion_9_maps):
        for grids in criterion_9_maps:
            assert_merging_is_exact(grids, 3.0, 128)

    @pytest.mark.parametrize("bandwidth", [1.5, 3.0, 5.0])
    def test_distractor_frames(self, distractor_maps, bandwidth):
        for grids in distractor_maps:
            assert_merging_is_exact(grids, bandwidth, 128)

    @pytest.mark.parametrize("bandwidth, max_candidates", [(3.0, 12), (2.0, 40), (2.5, 200)])
    def test_tie_heavy_grids(self, bandwidth, max_candidates):
        assert_merging_is_exact(tie_heavy_grids(), bandwidth, max_candidates)

    @pytest.mark.parametrize("cap", [1, 2, 3, 5])
    def test_iteration_cap(self, cap, distractor_maps, monkeypatch):
        """Merged trajectories reach the cap together, and each state that
        reaches it is recorded once."""
        monkeypatch.setattr(hm, "MAX_ITERATIONS", cap)
        for grids in [tie_heavy_grids()] + distractor_maps[:6]:
            assert_merging_is_exact(grids, 3.0, 128)

    def test_distractor_frames_take_fewer_steps(self, distractor_maps):
        gated = rows_stepped(hm._MERGE_SHARE, distractor_maps)
        off = rows_stepped(MERGING["off"], distractor_maps)
        assert gated.sum() <= 0.65 * off.sum()  # 0.59 when written

    def test_noise_frames_take_no_more_steps(self, criterion_9_maps):
        gated = rows_stepped(hm._MERGE_SHARE, criterion_9_maps)
        off = rows_stepped(MERGING["off"], criterion_9_maps)
        assert np.all(gated <= off)

    def test_one_point_per_state(self):
        """Every key keeps a point, also when all keys share two slots; a
        key repeated in one slot keeps one."""
        rng = np.random.default_rng(15)
        keys = rng.integers(0, 40, 500) << 20
        kept = hm._one_per_state(keys, np.empty(1 << hm._OWNER_BITS, dtype=np.int32))
        assert np.all(np.diff(kept) > 0)
        np.testing.assert_array_equal(np.unique(keys[kept]), np.unique(keys))
        assert len(kept) < 80  # at most a few collisions among 40 keys
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hm, "_OWNER_BITS", 1)
            kept = hm._one_per_state(keys, np.empty(2, dtype=np.int32))
        np.testing.assert_array_equal(np.unique(keys[kept]), np.unique(keys))
        kept = hm._one_per_state(np.full(7, 5 << 20), np.empty(1 << hm._OWNER_BITS, dtype=np.int32))
        assert len(kept) == 1


class TestReferenceEngine:
    """The window-state engine against the plain batched mean shift in
    tests/modes_reference.py."""

    def test_criterion_9_volumes(self):
        frames = generate_frames(
            default_skeleton(), default_camera(), 5, CorruptionSpec(noise_floor=0.02), seed=7
        )
        for frame in frames[2:]:
            assert_matches_reference(frame.volume.maps, 3.0, 128)

    def test_sub_pixel_bandwidth(self):
        # a window holds at most one pixel: every nonzero pixel is a mode,
        # and the suppression radius is far below the pixel pitch
        frames = generate_frames(
            default_skeleton(), default_camera(), 1, CorruptionSpec(noise_floor=0.02), seed=7
        )
        assert_matches_reference(frames[0].volume.maps, 0.01, 16)

    @pytest.mark.parametrize("bandwidth, max_candidates", [(3.0, 12), (2.0, 40), (2.5, 200)])
    def test_tie_heavy_grids(self, bandwidth, max_candidates):
        # small integer values: equal window sums, equal mode values and
        # symmetric targets everywhere; zeros leave pixels unseeded
        rng = np.random.default_rng(11)
        grids = rng.integers(0, 4, size=(4, 20, 24)).astype(np.float64)
        assert_matches_reference(grids, bandwidth, max_candidates)

    def test_window_masks_match_distance_test(self):
        rng = np.random.default_rng(12)
        for bandwidth in (1.0, 2.2, 3.0, 4.5, 9.0):  # 9.0: over 64 edge offsets
            masks = hm._window_masks(bandwidth)
            x = np.concatenate([rng.uniform(0, 9, 2000), np.arange(10.0), np.arange(10) + 0.5])
            y = np.concatenate([rng.uniform(0, 9, 2000), np.arange(10.0)[::-1], np.full(10, 3.25)])
            bx, by, mask_ids = masks.states(x, y)
            for px, py, cx, cy, mask in zip(x, y, bx, by, mask_ids):
                inside = set()
                for oy, interval in zip(masks.offsets, masks.rows[mask]):
                    lo, hi = divmod(int(interval), masks.r + 1)
                    inside |= {(ox, oy) for ox in range(lo - masks.r + 1, hi + 1)}
                r = int(np.ceil(bandwidth))
                want = {
                    (ox, oy)
                    for oy in range(-r, r + 1)
                    for ox in range(-r, r + 1)
                    if ((cx + ox) - px) ** 2 + ((cy + oy) - py) ** 2 < bandwidth**2
                }
                assert inside == want

    @pytest.mark.parametrize("size", [8, 16, 32])
    def test_windows_as_wide_as_the_grid(self, size, monkeypatch):
        """The masks stop at radius hypot(W, H), which holds the whole grid
        from every point that extraction evaluates; the reference builds
        each window in full. The bare diagonal would not do: probes sit 0.5
        beyond the grid. Above either radius every seed reaches one point
        in one step, so only the recorded radii tell the two apart."""
        rng = np.random.default_rng(size)
        grids = np.zeros((2, size, size))
        for grid in grids:  # a few dozen pixels on a 2^-20 lattice
            at = rng.choice(size * size, min(40, size * size // 2), replace=False)
            grid.flat[at] = rng.integers(1, 2**20, len(at)) / 2**20
        radii, cached = [], hm._window_masks

        def window_masks(radius):
            radii.append(radius)
            return cached(radius)

        monkeypatch.setattr(hm, "_window_masks", window_masks)
        try:
            for bandwidth in (16.0, 32.0, 43.8, 44.0, 64.0):
                assert_matches_reference(grids, bandwidth, 8)
        finally:
            cached.cache_clear()  # a wide window's catalog is large
        assert max(radii) == np.hypot(size, size)

    @pytest.mark.parametrize("bandwidth", [0.01, 0.7, 1.0, 2.5, 3.0, 7.3])
    def test_states_match_exact(self, bandwidth):
        """The fraction lookup and the slot table give exact's mask ids,
        on a fresh instance (slot table empty) and again once it is full."""
        masks = hm._WindowMasks(bandwidth)
        n = hm._FRACTION_CELLS
        rng = np.random.default_rng(14)
        # fractions on an edge offset's circle, where a cell is unsure
        ox, oy = np.repeat(masks.edge, 50, axis=1)
        angle = rng.uniform(0, 2 * np.pi, len(ox))
        circle = [ox - bandwidth * np.cos(angle), oy - bandwidth * np.sin(angle)]
        # and near where two circles cross, where a cell can be unsure for
        # more edges than a slot holds
        i, j = np.triu_indices(masks.edge.shape[1], 1)
        mid = (masks.edge[:, i] + masks.edge[:, j]) / 2
        half = (masks.edge[:, j] - masks.edge[:, i]) / 2
        reach = np.sqrt(np.maximum(bandwidth**2 / (half**2).sum(axis=0) - 1, 0))
        perp = half[::-1] * [[-1], [1]] * reach
        cross = np.repeat(np.concatenate([mid + perp, mid - perp], axis=1), 64, axis=1)
        cross += rng.uniform(-2, 2, cross.shape) / n
        fx = np.concatenate([circle[0], cross[0]])
        fy = np.concatenate([circle[1], cross[1]])
        keep = (fx >= 0) & (fx < 1) & (fy >= 0) & (fy < 1)
        below_one = np.nextafter(1.0, 0.0)
        fx = np.concatenate([rng.random(4000), fx[keep], [below_one, 0.5, below_one]])
        fy = np.concatenate([rng.random(4000), fy[keep], [0.25, below_one, below_one]])
        bx = rng.integers(-2, 30, len(fx))
        by = rng.integers(-2, 30, len(fx))
        x = np.concatenate([bx + fx, np.arange(-2.0, 6.0), np.arange(-2, 6) * 0.5, [-(2.0**-60)]])
        y = np.concatenate([by + fy, np.arange(6.0, -2.0, -1), np.full(8, -0.25), [7 - 2.0**-60]])
        if bandwidth == 2.5:  # has cells with more unsure edges than a slot holds
            assert (masks.lookup.reshape(n + 1, n + 1)[:n, :n] == -1).any()
        for _ in ("cold", "warm"):
            bx, by, ids = masks.states(x, y)
            np.testing.assert_array_equal(bx, np.floor(x))
            np.testing.assert_array_equal(by, np.floor(y))
            np.testing.assert_array_equal(ids, masks.exact(x - bx, y - by))
        assert (masks.slot_ids >= 0).any()

    def test_shared_masks_under_threads(self):
        """Four threads fill one shared slot table from cold and get the
        serial results."""
        frames = generate_frames(
            default_skeleton(), default_camera(), 4, CorruptionSpec(noise_floor=0.02), seed=5
        )
        grids = [frame.volume.maps for frame in frames]
        bandwidth = 2.85  # no other test uses it: the shared table starts empty
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                jobs = [pool.submit(find_modes_volume, g, bandwidth, 64) for g in grids]
                threaded = [job.result(timeout=120) for job in jobs]
        finally:
            sys.setswitchinterval(interval)
        for grid, got in zip(grids, threaded):
            for a, b in zip(got, find_modes_volume(grid, bandwidth, 64)):
                np.testing.assert_array_equal(a.positions, b.positions)
                np.testing.assert_array_equal(a.values, b.values)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(grids=RANDOM_GRIDS, bandwidth=BANDWIDTHS, max_candidates=st.integers(1, 50))
    def test_random_grids(self, grids, bandwidth, max_candidates):
        assume(np.all(grids.reshape(len(grids), -1).max(axis=1) > 0))
        assert_matches_reference(grids, bandwidth, max_candidates)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hm, "_MERGE_SHARE", MERGING["forced"])
            assert_matches_reference(grids, bandwidth, max_candidates)

    # no bench or criterion frame reaches the cap of 100 steps; at these
    # caps most trajectories are recorded where they stand
    @pytest.mark.parametrize("cap", [1, 2, 3, 5])
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(grids=RANDOM_GRIDS, bandwidth=BANDWIDTHS, max_candidates=st.integers(1, 50))
    def test_iteration_cap(self, cap, grids, bandwidth, max_candidates):
        assume(np.all(grids.reshape(len(grids), -1).max(axis=1) > 0))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hm, "MAX_ITERATIONS", cap)
            patch.setattr(ref, "MAX_ITERATIONS", cap)
            assert_matches_reference(grids, bandwidth, max_candidates)
            patch.setattr(hm, "_MERGE_SHARE", MERGING["forced"])
            assert_matches_reference(grids, bandwidth, max_candidates)

    @pytest.mark.parametrize("seed", range(6))
    def test_suppression_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        # coarse coordinates make exact ties and exact-radius distances common
        points = rng.integers(0, 12, size=(n, 2)) * 0.5
        values = np.sort(rng.integers(0, 5, size=n).astype(np.float64))[::-1]
        groups = np.zeros(n, dtype=np.intp)
        for radius in (0.5, 1.0, 1.5, 3.0):
            for limit in (1, 3, n):
                keep = hm._suppress(points[:, 0], points[:, 1], groups, radius, limit)
                got = points[keep], values[keep]
                want = ref.greedy_suppress(points, values, radius, limit)
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("num_groups", [2, 3, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_suppression_per_group_matches_loop(self, seed, num_groups):
        """Each group is suppressed, and capped, as if it were alone."""
        rng = np.random.default_rng(100 + seed)
        sizes = rng.integers(1, 80, size=num_groups)
        sizes[0] = 1  # a one-point group
        groups = np.repeat(np.arange(num_groups), sizes)
        points = rng.integers(-6, 6, size=(len(groups), 2)) * 0.5
        values = rng.integers(0, 3, size=len(groups)).astype(np.float64)
        order = np.lexsort((-values, groups))  # groups ascending, priority order within
        points, values = points[order], values[order]
        for radius in (0.5, 1.5, 3.0):
            for limit in (1, 3, len(groups)):
                keep = hm._suppress(points[:, 0], points[:, 1], groups, radius, limit)
                for g in range(num_groups):
                    mine = groups == g
                    want = ref.greedy_suppress(points[mine], values[mine], radius, limit)
                    np.testing.assert_array_equal(points[keep & mine], want[0])
                    np.testing.assert_array_equal(values[keep & mine], want[1])

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=5),
        data=st.data(),
        radius=st.sampled_from([0.01, 0.5, 1.5, 3.0]),
        scale=st.sampled_from([1.0, 2.0**24]),
    )
    def test_close_pairs_match_brute_force(self, sizes, data, radius, scale):
        """Every pair within radius of each other in one group, and no other.
        A 0.5 lattice puts many pairs at exactly the radius and many points
        on strip and bin edges; a wide spread (scale) makes strips and bins
        wider than the radius needs."""
        n = sum(sizes)
        groups = np.repeat(np.arange(len(sizes)), sizes)
        groups = groups[data.draw(st.permutations(range(n)))]
        lattice = st.integers(-8, 8).map(lambda k: k * 0.5)
        xy = data.draw(arrays(np.float64, (2, n), elements=lattice)) * scale
        if scale > 1:
            xy[:, 0] += 1.0  # a point off the coarse lattice
        assert_close_pairs(*xy, groups, radius)

    @pytest.mark.parametrize("radius", [0.01, 0.5, 1.5, 3.0])
    def test_close_pairs_just_inside_the_radius(self, radius):
        """Pairs as far apart as a close pair can be, across x, across y and
        in between, both ways, at many alignments to the strips and bins."""
        start = (np.arange(-40, 40) / 97 - 0.3) * radius
        x, y = np.meshgrid(start, start[::9])
        x, y = x.ravel(), y.ravel()
        angles = np.arange(-6, 7) * (np.pi / 12)  # -90 to 90 degrees
        near = radius * (1 - 2.0**-30)
        dx, dy = near * np.cos(angles), near * np.sin(angles)
        k = np.arange(len(x)) % len(angles)  # one partner per point
        groups = np.arange(len(x))  # a pair per group: only partners are close
        assert_close_pairs(
            np.concatenate([x, x + dx[k]]), np.concatenate([y, y + dy[k]]),
            np.tile(groups, 2), radius,
        )

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(n=st.integers(1, 60), data=st.data())
    def test_priority_order_matches_lexsort(self, n, data):
        """Ties abound: three values, a coarse (y, x) lattice, repeated
        points; the oracle is the lexsort over two complex keys."""
        values = data.draw(arrays(np.float64, n, elements=st.sampled_from([0.25, 1.0, 1 / 3])))
        lattice = st.integers(-2, 2).map(lambda k: k * 0.5)
        x, y = data.draw(arrays(np.float64, (2, n), elements=lattice))
        joints = data.draw(arrays(np.intp, n, elements=st.integers(0, 3)))
        want = np.lexsort((y + 1j * x, joints - 1j * values))
        np.testing.assert_array_equal(hm._priority_order(x, y, joints, values), want)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        keys=arrays(
            np.int64, st.integers(1, 300), elements=st.integers(-5, 5).map(lambda k: k << 40)
        )
    )
    def test_first_occurrences_match_unique(self, keys):
        np.testing.assert_array_equal(
            hm._first_occurrences(keys), np.unique(keys, return_index=True)[1]
        )

    def test_nms_matches_loop_suppression(self, monkeypatch):
        def loop_suppress(x, y, groups, radius, limit):  # one group, as in NMS
            order = np.arange(len(x))
            kept = ref.greedy_suppress(np.stack([x, y], axis=1), order, radius, limit)[1]
            return np.isin(order, kept)

        rng = np.random.default_rng(13)
        grid = rng.integers(0, 3, size=(16, 16)).astype(np.float64)
        grid += render_gaussian((5.0, 9.0), 16) + render_gaussian((11.0, 4.0), 16)
        for limit, upscale in ((4, 2), (40, 1), (400, 4)):
            monkeypatch.setattr(hm, "_NMS_UPSCALE", upscale)
            got = find_modes_nms(grid, limit, radius=1.5)
            monkeypatch.setattr(hm, "_suppress", loop_suppress)
            want = find_modes_nms(grid, limit, radius=1.5)
            monkeypatch.undo()
            np.testing.assert_array_equal(got.positions, want.positions)
            np.testing.assert_array_equal(got.values, want.values)


class TestFindModesNms:
    def test_single_bump_peak(self):
        grid = render_gaussian((20.0, 11.0), 32)
        modes = find_modes_nms(grid, 8, radius=3.0)
        assert len(modes) >= 1
        assert np.linalg.norm(modes.positions[0] - (20, 11)) < 0.5

    @staticmethod
    def _significant(modes, rel=1e-6):
        """Drop the float-underflow plateau artifacts in far Gaussian tails."""
        keep = modes.values > rel * modes.values[0]
        return modes.positions[keep], modes.values[keep]

    def test_separated_bumps_both_kept(self):
        grid = render_gaussian((8.0, 16.0), 32) + 0.9 * render_gaussian(
            (24.0, 16.0), 32
        )
        modes = find_modes_nms(grid, 8, radius=3.0)
        positions, _ = self._significant(modes)
        assert len(positions) == 2
        assert np.linalg.norm(positions[0] - (8, 16)) < 0.5
        assert np.linalg.norm(positions[1] - (24, 16)) < 0.5

    def test_close_bumps_suppressed_to_stronger(self):
        grid = render_gaussian((15.0, 16.0), 32) + 0.9 * render_gaussian(
            (17.0, 16.0), 32
        )
        modes = find_modes_nms(grid, 8, radius=3.0)
        positions, _ = self._significant(modes)
        assert len(positions) == 1
        # the merged blob peaks between the bumps, nearer the stronger one
        assert abs(positions[0][0] - 15.0) < 1.5

    def test_truncation(self, monkeypatch):
        monkeypatch.setattr(hm, "_NMS_UPSCALE", 2)
        rng = np.random.default_rng(9)
        grid = rng.uniform(0, 1, size=(32, 32))
        modes = find_modes_nms(grid, 5, radius=1.0)
        assert len(modes) <= 5
        assert np.all(np.diff(modes.values) <= 1e-12)

    def test_upscale_one(self, monkeypatch):
        monkeypatch.setattr(hm, "_NMS_UPSCALE", 1)
        grid = np.zeros((16, 16))
        grid[5, 9] = 1.0
        modes = find_modes_nms(grid, 4, radius=2.0)
        np.testing.assert_allclose(modes.positions[0], (9, 5))
        assert hm._upsample(grid, 1).tobytes() == grid.tobytes()

    def test_grid_checked_as_a_volume_is(self):
        grid = render_gaussian((3.0, 4.0), 8)
        grid[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            find_modes_nms(grid, 4, radius=3.0)
        with pytest.raises(ValueError, match="all-zero"):
            find_modes_nms(np.zeros((8, 8)), 4, radius=3.0)

    def test_peaks_rank_as_lexsort(self):
        # a tie-heavy integer grid: at upscale 1 every peak value repeats,
        # and at 2 bilinear resampling adds symmetric ties
        rng = np.random.default_rng(4)
        grid = rng.integers(0, 4, size=(24, 24)).astype(np.float64)
        for upscale in (1, 2):
            up = hm._upsample(grid, upscale)
            ys, xs = np.nonzero(hm._peak_mask(up))
            vals = up[ys, xs]
            assert len(np.unique(vals)) < len(vals) / 4
            order = hm._priority_order(xs, ys, np.zeros(len(vals), dtype=np.intp), vals)
            np.testing.assert_array_equal(order, np.lexsort((xs, ys, -vals)))


UPSCALES = st.sampled_from([1, 2, 3, 5, 8])
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def assert_matches_scipy(grid, upscale):
    with np.errstate(over="ignore", invalid="ignore"):  # grids near the float64 maximum
        up = hm._upsample(grid, upscale)
    assert up.tobytes() == ref.upsample(grid, upscale).tobytes()
    np.testing.assert_array_equal(hm._peak_mask(up), ref.peak_mask(up))


class TestNmsMatchesScipy:
    """_upsample and _peak_mask give the same bits as scipy.ndimage."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        grid=arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            elements=st.sampled_from([0.0, 1.0]) | FINITE,
        ),
        upscale=UPSCALES,
    )
    def test_float64_grids(self, grid, upscale):
        assert_matches_scipy(grid, upscale)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 5)])
    @pytest.mark.parametrize("upscale", [1, 2, 3, 5, 8])
    def test_small_shapes(self, shape, upscale):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        assert_matches_scipy(rng.uniform(0, 1, shape), upscale)

    @pytest.mark.parametrize("upscale", [1, 2, 3, 5, 8])
    def test_synth_grids(self, upscale):
        # volumes hold float32 values, as every volume on disk does;
        # find_modes_nms widens them to float64 before it upsamples
        corruption = CorruptionSpec(distractor_prob=0.4, noise_floor=0.02)
        frames = generate_frames(default_skeleton(), default_camera(), 2, corruption, seed=3)
        for frame in frames:
            for grid in frame.volume.maps.astype(np.float64):
                assert_matches_scipy(grid, upscale)


class TestRenderGaussian:
    def test_peak_value_at_pixel_center(self):
        grid = render_gaussian((12.0, 7.0), 32)
        assert grid[7, 12] == pytest.approx(1.0)

    def test_one_sigma_value(self):
        grid = render_gaussian((12.0, 7.0), 32)
        assert grid[7, 13] == pytest.approx(np.exp(-0.5))

    def test_argmax_is_nearest_pixel(self):
        grid = render_gaussian((12.3, 6.8), 32)
        y, x = np.unravel_index(np.argmax(grid), grid.shape)
        assert (x, y) == (12, 7)

    def test_one_joint_gives_the_per_joint_grid(self):
        for joint in [(20.0, 11.0), (3.2, -4.6), (0.0, 0.0)]:
            for grid_size in (1, 8, 32):
                np.testing.assert_array_equal(
                    render_gaussian(joint, grid_size),
                    synth_reference.render_gaussian(joint, grid_size),
                )

    @pytest.mark.parametrize("count", [0, 1, 17])
    @pytest.mark.parametrize("grid_size", [1, 8, 32])
    def test_joint_stack_is_the_stack_of_grids(self, count, grid_size):
        joints = np.random.default_rng(count).uniform(-2, grid_size + 2, (count, 2))
        grids = render_gaussian(joints, grid_size)
        assert grids.shape == (count, grid_size, grid_size)
        for joint, grid in zip(joints, grids):
            np.testing.assert_array_equal(grid, render_gaussian(joint, grid_size))
