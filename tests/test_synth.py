"""Synthetic data generation and benchmark harness tests.

Forward kinematics is checked against the bone-length contract, rendering
against the projected ground truth, and the harness against its
determinism and self-consistency invariants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import harness
import synth_reference as ref
from poselift import synth
from poselift.fileio import load_volume, save_volume
from poselift.geometry import error_2d, image_to_crop, image_to_grid, project_perspective
from poselift.inference import InferenceConfig
from poselift.lifter import LifterTrainConfig
from poselift.synth import (
    CorruptionSpec,
    SkeletonSpec,
    check_depth_range,
    default_camera,
    default_skeleton,
    generate_frames,
    make_frame,
    place_subject,
    sample_pose,
    subject_reach,
)

FLOAT32_MAX = float(np.finfo(np.float32).max)


class TestSkeletonSpec:
    def test_default_is_valid(self):
        spec = default_skeleton()
        assert spec.num_joints == 17
        assert spec.parents[0] == -1
        assert harness.mean_bone_length(spec) == pytest.approx(
            np.mean(np.asarray(spec.bone_lengths)[1:])
        )

    def test_rejects_non_tree(self):
        with pytest.raises(ValueError):
            SkeletonSpec(
                parents=(-1, 2, 1),  # joint 1's parent not yet defined
                bone_lengths=np.ones(3),
                rest_directions=np.zeros((3, 3)),
                angle_ranges=np.zeros((3, 3)),
                angle_centers=np.zeros((3, 3)),
            )

    def test_rejects_nonpositive_bone(self):
        with pytest.raises(ValueError):
            SkeletonSpec(
                parents=(-1, 0),
                bone_lengths=np.array([0.0, 0.0]),
                rest_directions=np.zeros((2, 3)),
                angle_ranges=np.zeros((2, 3)),
                angle_centers=np.zeros((2, 3)),
            )

    def test_rejects_bone_lengths_of_another_shape(self):
        # one length would broadcast over every bone of the batched kinematics
        with pytest.raises(ValueError, match=r"bone_lengths must be \(M,\)"):
            SkeletonSpec(
                parents=(-1, 0, 1),
                bone_lengths=np.array([5.0]),
                rest_directions=np.zeros((3, 3)),
                angle_ranges=np.zeros((3, 3)),
                angle_centers=np.zeros((3, 3)),
            )

    def test_corruption_validation(self):
        with pytest.raises(ValueError):
            CorruptionSpec(distractor_prob=1.5)
        with pytest.raises(ValueError):
            CorruptionSpec(strength=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["strength", "noise_floor"])
    def test_corruption_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError):
            CorruptionSpec(**{field: value})

    @pytest.mark.parametrize("field", ["strength", "noise_floor"])
    def test_corruption_rejects_peaks_beyond_float32(self, field):
        # 1 + float32 max rounds to float32 max in float64
        CorruptionSpec(**{field: FLOAT32_MAX})
        with pytest.raises(ValueError, match="float32"):
            CorruptionSpec(**{field: np.nextafter(FLOAT32_MAX, np.inf)})


class TestSamplePose:
    def test_bone_lengths_exact(self):
        spec = default_skeleton()
        rng = np.random.default_rng(0)
        for _ in range(20):
            pose = sample_pose(spec, rng)
            for j in range(1, spec.num_joints):
                length = np.linalg.norm(pose[j] - pose[spec.parents[j]])
                assert length == pytest.approx(spec.bone_lengths[j], abs=1e-9)

    def test_determinism(self):
        spec = default_skeleton()
        np.testing.assert_array_equal(
            sample_pose(spec, np.random.default_rng(42)),
            sample_pose(spec, np.random.default_rng(42)),
        )

    def test_zero_ranges_give_rest_pose(self):
        spec = default_skeleton()
        frozen = SkeletonSpec(
            parents=spec.parents,
            bone_lengths=spec.bone_lengths,
            rest_directions=spec.rest_directions,
            angle_ranges=np.zeros_like(spec.angle_ranges),
            angle_centers=np.zeros_like(spec.angle_centers),
        )
        pose = sample_pose(frozen, np.random.default_rng(0))
        # rest pose: every joint at parent + length * rest direction
        expected = np.zeros((spec.num_joints, 3))
        for j in range(1, spec.num_joints):
            expected[j] = (
                expected[spec.parents[j]]
                + spec.bone_lengths[j] * spec.rest_directions[j]
            )
        np.testing.assert_allclose(pose, expected, atol=1e-12)

    def test_root_at_origin(self):
        pose = sample_pose(default_skeleton(), np.random.default_rng(1))
        np.testing.assert_array_equal(pose[0], (0, 0, 0))


@st.composite
def skeletons(draw):
    """Trees of 1 to 20 joints: chains, stars or random topological
    parents, with zero, narrow or wide (up to 3 rad) angle ranges."""
    m = draw(st.integers(1, 20))
    shape = draw(st.sampled_from(["chain", "star", "random"]))

    def parent(j):
        if shape == "chain":
            return j - 1
        return 0 if shape == "star" else draw(st.integers(0, j - 1))

    parents = [-1] + [parent(j) for j in range(1, m)]
    half_range = draw(st.sampled_from([0.0, 0.3, 3.0]))
    lengths = draw(arrays(np.float64, m, elements=st.floats(1.0, 1000.0)))
    lengths[0] = 0.0
    return SkeletonSpec(
        parents=tuple(parents),
        bone_lengths=lengths,
        rest_directions=draw(arrays(np.float64, (m, 3), elements=st.floats(-1, 1))),
        angle_ranges=draw(
            arrays(np.float64, (m, 3), elements=st.floats(0.0, half_range))
        ),
        angle_centers=draw(arrays(np.float64, (m, 3), elements=st.floats(-3, 3))),
    )


class TestMatchesReference:
    """The level-batched kinematics and the batched rendering give the bits,
    and leave the random-number state, of the per-joint reference in
    tests/synth_reference.py."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(spec=skeletons(), seed=st.integers(0, 2**32 - 1))
    def test_sample_pose(self, spec, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            np.testing.assert_array_equal(
                sample_pose(spec, rng), ref.sample_pose(spec, ref_rng)
            )
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_sample_pose_default_skeleton(self):
        spec = default_skeleton()
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(500):
            np.testing.assert_array_equal(
                sample_pose(spec, rng), ref.sample_pose(spec, ref_rng)
            )
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("grid_size", [1, 8, 32])
    @pytest.mark.parametrize("noise_floor", [0.0, 0.02])
    @pytest.mark.parametrize("distractor_prob", [0.0, 0.5, 1.0])
    def test_make_frame(self, distractor_prob, noise_floor, grid_size):
        camera = default_camera()
        corruption = CorruptionSpec(
            distractor_prob=distractor_prob, noise_floor=noise_floor
        )
        for seed in range(10):
            pose, _ = placed_pose(seed)
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = make_frame(pose, camera, corruption, rng, grid_size)
            want = ref.make_frame(pose, camera, corruption, ref_rng, grid_size)
            np.testing.assert_array_equal(got[0].maps, want[0].maps)
            assert got[0].box == want[0].box
            np.testing.assert_array_equal(got[1], want[1])
            np.testing.assert_array_equal(got[2], want[2])
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def placed_pose(seed=0, depth_range=(3000.0, 6000.0)):
    rng = np.random.default_rng(seed)
    pose = sample_pose(default_skeleton(), rng)
    return place_subject(pose, default_camera(), rng, depth_range), rng


class TestPlaceSubject:
    @pytest.mark.parametrize(
        "depth_range",
        [(np.nan, 6000.0), (3000.0, np.nan), (3000.0, np.inf), (-100.0, 50.0),
         (0.0, 50.0), (6000.0, 3000.0)],
    )
    def test_bad_depth_range_rejected(self, depth_range):
        with pytest.raises(ValueError, match="depth range"):
            placed_pose(depth_range=depth_range)

    def test_reach_bounds_every_joint(self):
        spec = default_skeleton()
        reach = subject_reach(spec)
        rng = np.random.default_rng(0)
        poses = np.array([sample_pose(spec, rng) for _ in range(500)])
        spread = np.linalg.norm(poses - poses.mean(axis=1, keepdims=True), axis=2)
        assert spread.max() < reach < 3000.0  # the default range passes

    def test_depth_min_within_reach_rejected(self):
        spec = default_skeleton()
        reach = subject_reach(spec)
        with pytest.raises(ValueError, match="behind the camera"):
            check_depth_range((reach, 6000.0), spec)
        check_depth_range((np.nextafter(reach, np.inf), 6000.0), spec)


class TestMakeFrame:
    def test_clean_argmax_is_nearest_pixel(self):
        camera = default_camera()
        for seed in range(5):
            pose, rng = placed_pose(seed)
            volume, pose_2d, _ = make_frame(pose, camera, CorruptionSpec(), rng)
            grid_joints = image_to_grid(pose_2d, volume.box, volume.grid_size)
            for i, joint in enumerate(grid_joints):
                flat = np.argmax(volume.maps[i])
                py, px = np.unravel_index(flat, volume.maps[i].shape)
                np.testing.assert_array_equal(
                    (px, py), np.round(joint).astype(int)
                )

    def test_distractor_prob_one_moves_global_max(self):
        # strength 2.0: even when the distractor center lands between
        # pixels (peak pixel value >= 2 * exp(-0.5^2)), it beats the true
        # bump's best pixel (<= 1), so the argmax moves deterministically;
        # at the benchmark's 1.1 the sub-pixel discretization makes the
        # per-joint argmax flip only statistically
        camera = default_camera()
        corruption = CorruptionSpec(distractor_prob=1.0, strength=2.0)
        pose, rng = placed_pose(3)
        volume, pose_2d, _ = make_frame(pose, camera, corruption, rng)
        grid_joints = image_to_grid(pose_2d, volume.box, volume.grid_size)
        # distractors are clipped to the grid, so only interior joints are
        # guaranteed an unclipped >= 6 px offset
        interior = 0
        for i, joint in enumerate(grid_joints):
            if np.any(joint < 6) or np.any(joint > 25):
                continue
            interior += 1
            flat = np.argmax(volume.maps[i])
            py, px = np.unravel_index(flat, volume.maps[i].shape)
            # the 1.1x distractor sits >= 6 px away and wins the argmax
            assert np.linalg.norm(np.array([px, py]) - joint) > 3.0
        assert interior >= 5

    def test_volume_round_trips_bit_exactly(self, tmp_path):
        pose, rng = placed_pose(4)
        volume, _, _ = make_frame(pose, default_camera(), CorruptionSpec(), rng)
        # held at file precision, float32
        assert volume.maps.dtype == np.float32
        assert volume.maps.nbytes == 4 * np.prod(volume.maps.shape)
        path = tmp_path / "frame.hmv"
        save_volume(path, volume)
        loaded = load_volume(path)
        assert loaded.maps.dtype == np.float32
        np.testing.assert_array_equal(loaded.maps, volume.maps)
        assert loaded.box == volume.box

    def test_box_contains_all_joints_with_margin(self):
        pose, rng = placed_pose(5)
        volume, pose_2d, _ = make_frame(pose, default_camera(), CorruptionSpec(), rng)
        crop = image_to_crop(pose_2d, volume.box)
        assert np.all(crop >= 0) and np.all(crop <= 256)

    def test_largest_storable_peak_round_trips(self, tmp_path):
        half = FLOAT32_MAX / 2  # 1 + half + half rounds to float32 max
        corruption = CorruptionSpec(
            distractor_prob=1.0, strength=half, noise_floor=half
        )
        pose, rng = placed_pose(4)
        volume, _, _ = make_frame(pose, default_camera(), corruption, rng)
        path = tmp_path / "frame.hmv"
        save_volume(path, volume)
        np.testing.assert_array_equal(load_volume(path).maps, volume.maps)

    def test_noise_floor_keeps_maps_nonnegative(self):
        pose, rng = placed_pose(6)
        volume, _, _ = make_frame(
            pose, default_camera(), CorruptionSpec(noise_floor=0.05), rng
        )
        assert np.all(volume.maps >= 0)


class TestDefaultCamera:
    def test_fixed_and_centered_on_the_image(self):
        camera = default_camera()
        assert (camera.fx, camera.fy) == (1150.0, 1150.0)
        assert camera.cx == camera.cy == synth.IMAGE_SIZE / 2

    def test_placed_subjects_project_inside_the_image(self):
        rng = np.random.default_rng(0)
        camera = default_camera()
        for _ in range(200):
            pose = place_subject(sample_pose(default_skeleton(), rng), camera, rng)
            pose_2d = project_perspective(pose, camera)
            assert np.all((pose_2d > 0) & (pose_2d < synth.IMAGE_SIZE))


class TestGenerateFrames:
    def test_self_consistency(self):
        # ground-truth 2D must be exactly the projection of ground-truth 3D
        frames = generate_frames(
            default_skeleton(), default_camera(), 5, CorruptionSpec(), seed=0
        )
        for f in frames:
            assert f.volume.maps.dtype == np.float32
            assert f.volume.maps.nbytes == 4 * np.prod(f.volume.maps.shape)
            reproj = project_perspective(f.pose_3d, default_camera())
            assert error_2d(
                image_to_crop(f.pose_2d, f.volume.box),
                image_to_crop(reproj, f.volume.box),
            ) < 1e-9

    def test_determinism(self):
        args = (default_skeleton(), default_camera(), 3, CorruptionSpec(), 7)
        a = generate_frames(*args)
        b = generate_frames(*args)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.volume.maps, fb.volume.maps)
            np.testing.assert_array_equal(fa.pose_2d, fb.pose_2d)
            np.testing.assert_array_equal(fa.pose_3d, fb.pose_3d)

    def test_depth_range_within_reach_rejected_up_front(self, monkeypatch):
        # 100 mm is within the skeleton's reach: a placed subject can have
        # joints behind the camera, so no pose may be sampled at all
        sampled = []
        monkeypatch.setattr(
            synth, "sample_pose", lambda *args: sampled.append(args) or sample_pose(*args)
        )
        with pytest.raises(ValueError, match="skeleton's reach"):
            generate_frames(
                default_skeleton(), default_camera(), 200, CorruptionSpec(), 1,
                depth_range=(100.0, 200.0),
            )
        assert sampled == []

    @pytest.mark.parametrize("grid_size", [0, 2**32, 8.5])
    def test_grid_size_outside_uint32_rejected_up_front(self, monkeypatch, grid_size):
        sampled = []
        monkeypatch.setattr(
            synth, "sample_pose", lambda *args: sampled.append(args) or sample_pose(*args)
        )
        with pytest.raises(ValueError, match="grid size"):
            generate_frames(
                default_skeleton(), default_camera(), 3, CorruptionSpec(), 1,
                grid_size=grid_size,
            )
        assert sampled == []

    def test_depth_range_respected(self):
        frames = generate_frames(
            default_skeleton(), default_camera(), 5, CorruptionSpec(), 1,
            depth_range=(35000.0, 45000.0),
        )
        for f in frames:
            depth = f.pose_3d[:, 2].mean()
            assert 34000.0 < depth < 46000.0


class TestBootstrap:
    def test_degenerate_constant_samples(self):
        rng = np.random.default_rng(0)
        lo, hi = harness.bootstrap_mean_ci(np.full(50, 3.25), rng)
        assert lo == pytest.approx(3.25) and hi == pytest.approx(3.25)

    def test_interval_brackets_true_mean(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(10.0, 2.0, size=400)
        lo, hi = harness.bootstrap_mean_ci(samples, rng)
        assert lo < samples.mean() < hi
        assert hi - lo < 1.0  # ~4 se at n=400


class TestRunBenchmark:
    CONFIGS = {
        "greedy": InferenceConfig(prior_strength=0.0, num_candidates=8),
        "prior": InferenceConfig(prior_strength=1.0, num_candidates=8),
    }
    TRAIN = LifterTrainConfig(epochs=3, hidden_sizes=(32,))

    def run(self, **kw):
        return harness.run_benchmark(
            default_skeleton(),
            default_camera(),
            n_train=20,
            n_test=5,
            configs=self.CONFIGS,
            seed=0,
            train_config=self.TRAIN,
            baseline="greedy",
            **kw,
        )

    def test_report_structure(self):
        report, _ = self.run()
        assert set(report["configs"]) == {"greedy", "prior"}
        for row in report["configs"].values():
            assert row["mpjpe_mean"] > 0
            assert row["similarity_mean"] > 0
            assert row["error_2d_mean"] >= 0
        delta = report["deltas_vs_baseline"]["prior"]
        lo, hi = delta["ci95"]
        assert lo <= delta["mpjpe_delta_mean"] <= hi

    def test_reproducible(self):
        a, _ = self.run()
        b, _ = self.run()
        assert a["configs"] == b["configs"]
        assert a["deltas_vs_baseline"] == b["deltas_vs_baseline"]

    def test_shared_test_split_across_configs(self):
        # both configs see identical frames: identical 2D error under a
        # zero-strength tie means candidate generation matched exactly
        _, per_frame = self.run()
        greedy = per_frame["greedy"]
        prior = per_frame["prior"]
        assert len(greedy["mpjpe"]) == len(prior["mpjpe"]) == 5

    def test_unknown_baseline_refused_before_training(self, monkeypatch):
        trained = []
        monkeypatch.setattr(harness, "train_lifter", lambda *args: trained.append(args))
        with pytest.raises(ValueError, match="baseline 'gredy'"):
            harness.run_benchmark(
                default_skeleton(), default_camera(), n_train=20, n_test=5,
                configs=self.CONFIGS, seed=0, train_config=self.TRAIN,
                baseline="gredy",
            )
        assert trained == []

    def test_empty_test_split_refused(self):
        # not a report of NaN means: its values must all be JSON
        with pytest.raises(ValueError, match="frame count"):
            harness.run_benchmark(
                default_skeleton(), default_camera(), n_train=20, n_test=0,
                configs=self.CONFIGS, seed=0, train_config=self.TRAIN,
            )

    def test_clean_frames_have_subpixel_2d_error(self):
        report, _ = harness.run_benchmark(
            default_skeleton(),
            default_camera(),
            n_train=20,
            n_test=10,
            configs={"greedy": InferenceConfig(prior_strength=0.0, num_candidates=4)},
            seed=3,
            train_config=self.TRAIN,
        )
        # sub-grid-cell mode accuracy: J_2D under half a grid cell (256/32/2)
        assert report["configs"]["greedy"]["error_2d_mean"] < 4.0
