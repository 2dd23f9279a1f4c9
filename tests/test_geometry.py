"""Pose containers, projection, and metric tests.

Derived values are checked against independent oracles: hand-evaluated
formulas, round-trip compositions, and a numerical minimizer for the
similarity-alignment error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.spatial.transform import Rotation

from poselift.geometry import (
    BehindCameraError,
    BoundingBox,
    CameraModel,
    DegeneratePoseError,
    error_2d,
    grid_to_image,
    image_to_crop,
    image_to_grid,
    mpjpe,
    normalize_pose,
    normalize_poses,
    procrustes_error,
    project_orthographic,
    project_perspective,
)


def random_pose3d(rng, m=17, scale=400.0):
    return rng.normal(0.0, scale, size=(m, 3))


class TestNormalizePose:
    def test_symmetric_two_point_example(self):
        joints, mean, scale = normalize_pose([(0.0, 0.0), (2.0, 0.0)])
        np.testing.assert_allclose(joints, [(-1, 0), (1, 0)])
        np.testing.assert_allclose(mean, (1, 0))
        assert scale == pytest.approx(1.0)

    def test_already_normalized_pose_is_unchanged(self):
        pose = np.array([(-1.0, 0.0), (1.0, 0.0)])
        joints, mean, scale = normalize_pose(pose)
        np.testing.assert_allclose(joints, pose)
        np.testing.assert_allclose(mean, (0, 0), atol=1e-12)
        assert scale == pytest.approx(1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        pose = rng.uniform(0, 500, size=(17, 2))
        joints, mean, scale = normalize_pose(pose)
        np.testing.assert_allclose(joints * scale + mean, pose, atol=1e-9)

    def test_zero_mean_unit_rms_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            joints, _, _ = normalize_pose(rng.uniform(-100, 600, size=(17, 2)))
            np.testing.assert_allclose(
                joints.mean(axis=0), (0, 0), atol=1e-9
            )
            rms = np.sqrt(np.mean(np.sum(joints**2, axis=1)))
            assert rms == pytest.approx(1.0, rel=1e-9)

    def test_coincident_joints_raise(self):
        with pytest.raises(DegeneratePoseError):
            normalize_pose([(5.0, 5.0)] * 4)

    def test_single_joint_rejected(self):
        with pytest.raises(ValueError):
            normalize_pose([(1.0, 2.0)])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            normalize_pose([(0.0, 0.0), (np.nan, 1.0)])


    def test_batched_matches_single_bitwise(self):
        rng = np.random.default_rng(2)
        poses = rng.normal(300.0, 10.0 ** rng.uniform(-3, 3, size=(40, 1, 1)), size=(40, 17, 2))
        poses[7] = 5.0  # degenerate
        joints, means, scales = normalize_poses(poses)
        for k, pose in enumerate(poses):
            if k == 7:
                assert scales[k] == 0.0
                np.testing.assert_array_equal(joints[k], 0.0)
                continue
            normed, mean, scale = normalize_pose(pose)
            np.testing.assert_array_equal(joints[k], normed)
            np.testing.assert_array_equal(means[k], mean)
            assert scales[k] == scale


class TestProjection:
    def test_stacked_poses_project_like_single_ones(self):
        rng = np.random.default_rng(3)
        cam = CameraModel(fx=1100.0, fy=1000.0, cx=500.0, cy=480.0)
        stack = rng.normal(0, 300, size=(4, 5, 3)) + (0, 0, 4000)
        persp = project_perspective(stack, cam)
        ortho = project_orthographic(stack)
        for pose, p, o in zip(stack, persp, ortho):
            np.testing.assert_array_equal(p, project_perspective(pose, cam))
            np.testing.assert_array_equal(o, project_orthographic(pose))
        stack[2, 1, 2] = -1.0
        with pytest.raises(BehindCameraError):
            project_perspective(stack, cam)

    def test_principal_axis_point(self):
        cam = CameraModel(fx=1000, fy=1000, cx=128, cy=128)
        out = project_perspective([(0, 0, 2000)], cam)
        np.testing.assert_allclose(out, [(128, 128)])

    def test_pinhole_equation(self):
        cam = CameraModel(fx=1000, fy=1000, cx=128, cy=128)
        out = project_perspective([(200, 0, 2000)], cam)
        np.testing.assert_allclose(out, [(228, 128)])

    def test_scale_invariance(self):
        cam = CameraModel(fx=1150, fy=1150, cx=500, cy=500)
        rng = np.random.default_rng(2)
        pose = rng.normal(0, 300, size=(17, 3)) + (0, 0, 4000)
        np.testing.assert_allclose(
            project_perspective(pose, cam),
            project_perspective(2.0 * pose, cam),
            atol=1e-9,
        )

    def test_behind_camera_raises(self):
        cam = CameraModel(fx=1000, fy=1000, cx=0, cy=0)
        with pytest.raises(BehindCameraError):
            project_perspective([(0, 0, 1000), (0, 0, -1)], cam)
        with pytest.raises(BehindCameraError):
            project_perspective([(0, 0, 0.0)], cam)

    def test_orthographic_drops_depth(self):
        np.testing.assert_allclose(
            project_orthographic([(10, 20, 999)]), [(10, 20)]
        )

    def test_orthographic_depth_invariance(self):
        rng = np.random.default_rng(3)
        pose = rng.normal(0, 100, size=(8, 3))
        shifted = pose + (0, 0, 1234.5)
        np.testing.assert_allclose(
            project_orthographic(pose), project_orthographic(shifted)
        )

    def test_orthographic_zero_pose(self):
        np.testing.assert_allclose(
            project_orthographic(np.zeros((5, 3))), np.zeros((5, 2))
        )

    def test_invalid_intrinsics(self):
        with pytest.raises(ValueError):
            CameraModel(fx=0, fy=1000, cx=0, cy=0)


class TestMpjpe:
    def test_identical_poses(self):
        pose = np.arange(51, dtype=float).reshape(17, 3)
        assert mpjpe(pose, pose) == 0.0

    def test_hand_value(self):
        gt = [(0, 0, 0), (0, 0, 100)]
        est = [(0, 0, 0), (0, 0, 130)]
        assert mpjpe(gt, est) == pytest.approx(15.0)

    def test_translation_invariance_exact(self):
        # integer-valued data keeps the translations lossless in floating
        # point, so the invariance holds bitwise, not just approximately
        rng = np.random.default_rng(4)
        gt = rng.integers(-4000, 4000, size=(17, 3)).astype(np.float64)
        est = rng.integers(-4000, 4000, size=(17, 3)).astype(np.float64)
        t1 = rng.integers(-100000, 100000, size=3).astype(np.float64)
        t2 = rng.integers(-100000, 100000, size=3).astype(np.float64)
        assert mpjpe(gt + t1, est + t2) == mpjpe(gt, est)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mpjpe(np.zeros((4, 3)), np.zeros((5, 3)))


def _numerical_similarity_error(gt, est):
    """Independent oracle: direct minimization over (rotvec, log s, t)."""

    def objective(params):
        rot = Rotation.from_rotvec(params[:3]).as_matrix()
        s = np.exp(params[3])
        t = params[4:]
        return np.sum((gt - (s * est @ rot.T + t)) ** 2)

    best = None
    rng = np.random.default_rng(99)
    for _ in range(8):
        x0 = np.concatenate(
            [rng.normal(0, 1, 3), [rng.normal(0, 0.5)], rng.normal(0, 100, 3)]
        )
        res = minimize(objective, x0, method="BFGS", options={"gtol": 1e-10})
        if best is None or res.fun < best.fun:
            best = res
    rot = Rotation.from_rotvec(best.x[:3]).as_matrix()
    s = np.exp(best.x[3])
    aligned = s * est @ rot.T + best.x[4:]
    return float(np.mean(np.linalg.norm(gt - aligned, axis=1)))


class TestProcrustes:
    def test_exact_similarity_copy(self):
        rng = np.random.default_rng(5)
        gt = random_pose3d(rng)
        rot = Rotation.random(random_state=7).as_matrix()
        est = 0.7 * gt @ rot.T + (10, -40, 250)
        assert procrustes_error(gt, est) == pytest.approx(0.0, abs=1e-6)

    def test_identity(self):
        rng = np.random.default_rng(6)
        gt = random_pose3d(rng)
        assert procrustes_error(gt, gt) == pytest.approx(0.0, abs=1e-9)

    def test_matches_numerical_minimizer(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            gt = random_pose3d(rng, m=8)
            est = gt + rng.normal(0, 40, size=gt.shape)
            closed = procrustes_error(gt, est)
            numerical = _numerical_similarity_error(gt, est)
            assert closed == pytest.approx(numerical, rel=1e-4)

    def test_invariance_under_similarity(self):
        rng = np.random.default_rng(8)
        gt = random_pose3d(rng)
        est = gt + rng.normal(0, 50, size=gt.shape)
        base = procrustes_error(gt, est)
        rot = Rotation.random(random_state=11).as_matrix()
        transformed = 1.8 * est @ rot.T + (5, 6, 7)
        assert procrustes_error(gt, transformed) == pytest.approx(
            base, abs=1e-6
        )

    def test_not_above_centered_error(self):
        rng = np.random.default_rng(9)
        gt = random_pose3d(rng)
        est = gt + rng.normal(0, 80, size=gt.shape)
        centered_err = float(
            np.mean(
                np.linalg.norm(
                    (gt - gt.mean(axis=0)) - (est - est.mean(axis=0)), axis=1
                )
            )
        )
        assert procrustes_error(gt, est) <= centered_err + 1e-9

    def test_degenerate_point_set(self):
        gt = np.zeros((5, 3))
        est = np.random.default_rng(10).normal(size=(5, 3))
        with pytest.raises(DegeneratePoseError):
            procrustes_error(gt, est)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            procrustes_error(np.zeros((2, 3)), np.zeros((2, 3)))


class TestError2D:
    def test_identical(self):
        pose = np.random.default_rng(11).uniform(0, 256, size=(17, 2))
        assert error_2d(pose, pose) == 0.0

    def test_single_joint_offset(self):
        gt = np.zeros((17, 2))
        est = gt.copy()
        est[3] = (3.0, 4.0)
        assert error_2d(gt, est) == pytest.approx(5.0 / 17.0)

    def test_uniform_shift(self):
        gt = np.random.default_rng(12).uniform(0, 256, size=(10, 2))
        assert error_2d(gt, gt + (1.0, 0.0)) == pytest.approx(1.0)


class TestGridImageMapping:
    BOX = BoundingBox(origin_x=0.0, origin_y=0.0, side=256.0)

    def test_pixel_center_formula(self):
        np.testing.assert_allclose(
            grid_to_image(np.array([(0.0, 0.0)]), self.BOX, 32), [(4, 4)]
        )

    def test_center_maps_to_center(self):
        np.testing.assert_allclose(
            grid_to_image(np.array([(15.5, 15.5)]), self.BOX, 32),
            [(128, 128)],
        )

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        box = BoundingBox(origin_x=37.5, origin_y=-12.0, side=420.0)
        pts = rng.uniform(0, 32, size=(20, 2))
        back = image_to_grid(grid_to_image(pts, box, 32), box, 32)
        np.testing.assert_allclose(back, pts, atol=1e-9)

    def test_crop_mapping(self):
        box = BoundingBox(origin_x=100.0, origin_y=50.0, side=512.0)
        np.testing.assert_allclose(
            image_to_crop(np.array([(100.0, 50.0), (612.0, 562.0)]), box),
            [(0, 0), (256, 256)],
        )

    def test_invalid_grid_size(self):
        with pytest.raises(ValueError):
            grid_to_image(np.zeros((1, 2)), self.BOX, 0)

    def test_invalid_box(self):
        with pytest.raises(ValueError):
            BoundingBox(origin_x=0, origin_y=0, side=0)

    @pytest.mark.parametrize("field", ["origin_x", "origin_y", "side"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_box(self, field, value):
        fields = {"origin_x": 0.0, "origin_y": 0.0, "side": 256.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            BoundingBox(**fields)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-1e4, 1e4, allow_nan=False),
            st.floats(-1e4, 1e4, allow_nan=False),
        ),
        min_size=2,
        max_size=20,
    )
)
def test_normalize_round_trip_property(points):
    pose = np.array(points, dtype=np.float64)
    try:
        joints, mean, scale = normalize_pose(pose)
    except DegeneratePoseError:
        return
    np.testing.assert_allclose(
        joints * scale + mean, pose, atol=1e-6 * max(1.0, np.abs(pose).max())
    )
    np.testing.assert_allclose(joints.mean(axis=0), (0, 0), atol=1e-9)
