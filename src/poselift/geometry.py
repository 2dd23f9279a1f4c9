"""Pose containers, camera projection, and evaluation metrics.

2D poses are (M, 2) float arrays in image pixels, 3D poses are (M, 3)
float arrays in millimeters in the camera coordinate system.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

DEGENERATE_TOL = 1e-12

# side, in pixels, of the square crop that 2D errors are measured on
CROP_SIZE = 256


def check_count(value, name: str, high: int | None = None) -> None:
    """ValueError, naming the count, unless value is an integer (numpy's
    included) in [1, high], or at least 1 when high is None: the one rule
    for every count and size the library takes."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if high is None and not 1 <= value:
        raise ValueError(f"{name} must be >= 1")
    if high is not None and not 1 <= value <= high:
        raise ValueError(f"{name} must be in [1, {high}]")


class DegeneratePoseError(ValueError):
    """All joints coincide (or nearly so); the pose cannot be normalized."""


class BehindCameraError(ValueError):
    """A 3D joint has non-positive depth and cannot be projected."""


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.fx, self.fy, self.cx, self.cy])):
            raise ValueError("camera intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")


@dataclass(frozen=True)
class BoundingBox:
    """Square crop box in original-image pixels."""

    origin_x: float
    origin_y: float
    side: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.origin_x, self.origin_y, self.side])):
            raise ValueError("box origin and side must be finite")
        if self.side <= 0:
            raise ValueError("box side must be positive")


def as_poses(poses, dim: int, ndim: int | None = 2) -> np.ndarray:
    """Finite float64 poses of `dim` coordinates: one (M, dim) pose, a
    (K, M, dim) stack with ndim=3, or (..., M, dim) with ndim=None; else
    ValueError, which for a stack names the first bad pose (flat order)."""
    try:
        poses = np.asarray(poses, dtype=np.float64)
    except ValueError as e:
        raise ValueError(f"{dim}D poses are not all (M, {dim}) arrays: {e}") from e
    if poses.ndim < 2 or poses.shape[-1] != dim or ndim not in (None, poses.ndim):
        lead = "" if ndim == 2 else "K, " if ndim == 3 else "..., "
        raise ValueError(f"expected ({lead}M, {dim}) array, got {poses.shape}")
    finite = np.isfinite(poses).all(axis=(-2, -1)).ravel()
    if not finite.all():
        where = f"pose {np.argmin(finite)}: " if poses.ndim > 2 else ""
        raise ValueError(f"{where}{dim}D pose contains non-finite coordinates")
    return poses


def normalize_poses(poses):
    """normalize_pose over a (K, M, 2) stack, without raising.

    Returns (joints (K, M, 2), means (K, 2), scales (K,)). A pose whose
    RMS spread is at most DEGENERATE_TOL, such as a pose of one joint, is
    degenerate: its scale is exactly 0 and its joints are zero. Callers
    test `scales > 0`.
    """
    poses = np.asarray(poses, dtype=np.float64)
    means = poses.mean(axis=1)
    centered = poses - means[:, None, :]
    scales = np.sqrt(np.mean(np.sum(centered**2, axis=2), axis=1))
    ok = scales > DEGENERATE_TOL
    scales[~ok] = 0.0
    joints = centered / np.where(ok, scales, 1.0)[:, None, None]
    joints[~ok] = 0.0
    return joints, means, scales


def normalize_pose(pose):
    """Shift to zero mean and divide by the RMS joint distance from the mean.

    Returns (joints, mean, scale), with pose = joints * scale + mean. Raises
    DegeneratePoseError when all joints coincide, one joint included.
    """
    joints, means, scales = normalize_poses(as_poses(pose, 2)[None])
    if not scales[0] > 0:
        raise DegeneratePoseError("all joints coincide; scale is zero")
    return joints[0], means[0], float(scales[0])


def project_perspective(pose, camera: CameraModel) -> np.ndarray:
    """Pinhole projection u = fx*X/Z + cx, v = fy*Y/Z + cy.

    Takes one (M, 3) pose or a stack (..., M, 3). Raises BehindCameraError
    when any joint has Z <= 0.
    """
    pose = as_poses(pose, 3, ndim=None)
    z = pose[..., 2]
    if np.any(z <= 0):
        raise BehindCameraError("joint with non-positive depth")
    u = camera.fx * pose[..., 0] / z + camera.cx
    v = camera.fy * pose[..., 1] / z + camera.cy
    return np.stack([u, v], axis=-1)


def project_orthographic(pose) -> np.ndarray:
    """Drop the depth coordinate: (X, Y, Z) -> (X, Y); one pose or a stack."""
    pose = as_poses(pose, 3, ndim=None)
    return pose[..., :2].copy()


def mpjpe(gt, est) -> float:
    """Mean per-joint position error in millimeters, relative to joint 0."""
    gt = as_poses(gt, 3)
    est = as_poses(est, 3)
    if gt.shape != est.shape:
        raise ValueError("pose shapes differ")
    d = (gt - gt[0]) - (est - est[0])
    return float(np.mean(np.linalg.norm(d, axis=1)))


def procrustes_error(gt, est) -> float:
    """Mean per-joint distance after optimal similarity alignment (mm).

    The alignment is the similarity transform (s, R, t) minimizing
    ||gt - (s*est@R.T + t)||^2; reflections are excluded via the
    determinant sign correction.
    """
    gt = as_poses(gt, 3)
    est = as_poses(est, 3)
    if gt.shape != est.shape or len(gt) < 3:
        raise ValueError("need matching point sets with at least 3 points")
    mu_gt = gt.mean(axis=0)
    mu_est = est.mean(axis=0)
    a = gt - mu_gt
    b = est - mu_est
    var_b = np.sum(b**2)
    if var_b <= DEGENERATE_TOL or np.sum(a**2) <= DEGENERATE_TOL:
        raise DegeneratePoseError("zero-variance point set in alignment")
    u, s, vt = np.linalg.svd(a.T @ b)
    d = np.ones(3)
    d[-1] = np.sign(np.linalg.det(u @ vt))
    rot = u @ np.diag(d) @ vt
    scale = np.sum(s * d) / var_b
    aligned = scale * b @ rot.T + mu_gt
    return float(np.mean(np.linalg.norm(gt - aligned, axis=1)))


def error_2d(gt, est) -> float:
    """Mean per-joint Euclidean distance in pixels (256x256 crop frame)."""
    gt = as_poses(gt, 2)
    est = as_poses(est, 2)
    if gt.shape != est.shape:
        raise ValueError("pose shapes differ")
    return float(np.mean(np.linalg.norm(gt - est, axis=1)))


def grid_to_image(points, box: BoundingBox, grid_size: int):
    """Map heat-map grid coordinates to original-image pixels.

    Pixel-center convention: grid coordinate p covers the image span
    [origin + p*cell, origin + (p+1)*cell] and maps to its center.
    """
    check_count(grid_size, "grid size")
    points = np.asarray(points, dtype=np.float64)
    cell = box.side / grid_size
    origin = np.array([box.origin_x, box.origin_y])
    return origin + (points + 0.5) * cell


def image_to_grid(points, box: BoundingBox, grid_size: int):
    """Inverse of grid_to_image."""
    check_count(grid_size, "grid size")
    points = np.asarray(points, dtype=np.float64)
    cell = box.side / grid_size
    origin = np.array([box.origin_x, box.origin_y])
    return (points - origin) / cell - 0.5


def image_to_crop(points, box: BoundingBox):
    """Map original-image pixels into the box's crop, resized to CROP_SIZE."""
    points = np.asarray(points, dtype=np.float64)
    origin = np.array([box.origin_x, box.origin_y])
    return (points - origin) * (CROP_SIZE / box.side)
