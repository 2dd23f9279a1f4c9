"""Synthetic data generation.

Stands in for motion-capture datasets: articulated poses are sampled by
forward kinematics, projected through a virtual pinhole camera, and
rendered as ground-truth heat maps with optional distractor corruption.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import BoundingBox, CameraModel, check_count, image_to_grid, project_perspective
from .heatmaps import HeatMapVolume, render_gaussian

# the crop box extends this share of the pose's larger extent on each side
BOX_MARGIN = 0.15

# default (min, max) depth of a placed subject's centroid, mm from the camera
DEPTH_RANGE = (3000.0, 6000.0)

# side, in pixels, of the square camera image, and a heat map's default side
IMAGE_SIZE = 1000
GRID_SIZE = 32

# (min, max) distance, in grid pixels, of a distractor bump from its joint
DISTRACTOR_OFFSETS = (6.0, 12.0)


@dataclass(frozen=True)
class SkeletonSpec:
    """Kinematic tree with fixed bone lengths and per-joint angle ranges."""

    parents: tuple[int, ...]  # -1 for the root
    bone_lengths: np.ndarray  # (M,) mm, 0 for the root
    rest_directions: np.ndarray  # (M, 3) unit offsets from the parent
    angle_ranges: np.ndarray  # (M, 3) Euler half-range per axis, radians
    angle_centers: np.ndarray  # (M, 3) Euler range center per axis, radians
    # (joints, their parents) per tree depth from 1 down; set from parents
    levels: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = len(self.parents)
        if self.parents[0] != -1 or any(
            not 0 <= p < i for i, p in enumerate(self.parents[1:], 1)
        ):
            raise ValueError("parents must form a tree in topological order")
        if np.asarray(self.bone_lengths).shape != (m,):
            raise ValueError("bone_lengths must be (M,)")
        if np.any(np.asarray(self.bone_lengths)[1:] <= 0):
            raise ValueError("bone lengths must be positive")
        if np.asarray(self.rest_directions).shape != (m, 3):
            raise ValueError("rest_directions must be (M, 3)")
        if (
            np.asarray(self.angle_ranges).shape != (m, 3)
            or np.asarray(self.angle_centers).shape != (m, 3)
        ):
            raise ValueError("angle_ranges and angle_centers must be (M, 3)")
        depth = np.zeros(m, dtype=int)
        for j in range(1, m):
            depth[j] = depth[self.parents[j]] + 1
        parents = np.array(self.parents)
        by_depth = (np.flatnonzero(depth == d) for d in range(1, depth.max() + 1))
        object.__setattr__(self, "levels", tuple((js, parents[js]) for js in by_depth))

    @property
    def num_joints(self) -> int:
        return len(self.parents)


@dataclass(frozen=True)
class CorruptionSpec:
    """Distractor bumps and noise injected into rendered heat maps."""

    distractor_prob: float = 0.0  # per joint
    strength: float = 1.1  # distractor peak relative to the true peak
    noise_floor: float = 0.0  # uniform noise amplitude

    def __post_init__(self):
        # written so that NaN fails them too
        if not 0 <= self.distractor_prob <= 1:
            raise ValueError("distractor probability must be in [0, 1]")
        if not (0 <= self.strength < np.inf and 0 <= self.noise_floor < np.inf):
            raise ValueError("strength and noise floor must be finite and >= 0")
        # no rendered value exceeds this sum, rounded as make_frame rounds;
        # a volume file stores float32
        if not 1 + self.strength + self.noise_floor <= float(np.finfo(np.float32).max):
            raise ValueError("1 + strength + noise floor exceeds the float32 maximum")


def default_skeleton() -> SkeletonSpec:
    """17-joint humanoid tree with plausible indoor-capture bone lengths."""
    # pelvis, r-hip/knee/ankle, l-hip/knee/ankle, spine, thorax, neck,
    # head, l-shoulder/elbow/wrist, r-shoulder/elbow/wrist
    parents = (-1, 0, 1, 2, 0, 4, 5, 0, 7, 8, 9, 8, 11, 12, 8, 14, 15)
    lengths = np.array(
        [0, 130, 450, 450, 130, 450, 450, 250, 250, 120, 120,
         180, 280, 250, 180, 280, 250],
        dtype=np.float64,
    )
    d = {
        "down": (0, 1, 0), "up": (0, -1, 0),
        "left": (1, 0, 0), "right": (-1, 0, 0),
    }
    directions = np.array(
        [
            (0, 0, 0), d["right"], d["down"], d["down"],
            d["left"], d["down"], d["down"],
            d["up"], d["up"], d["up"], d["up"],
            d["left"], d["down"], d["down"],
            d["right"], d["down"], d["down"],
        ],
        dtype=np.float64,
    )
    # Half-ranges per joint for (x: out-of-plane tilt, y: twist, z: in-plane).
    # The ranges keep the 2D-to-3D mapping well conditioned: tilts are
    # sampled one-sided away from zero (centers below) so depth offsets
    # have a fixed sign and never hit the flat top of the foreshortening
    # curve, and twist is minimal because it is invisible in projection.
    base = np.array(
        [
            (0.2, 0.2, 0.2),
            (0.5, 0.3, 0.3), (1.2, 0.1, 0.1), (0.5, 0.1, 0.1),
            (0.5, 0.3, 0.3), (1.2, 0.1, 0.1), (0.5, 0.1, 0.1),
            (0.2, 0.2, 0.2), (0.2, 0.2, 0.2), (0.3, 0.3, 0.3),
            (0.3, 0.3, 0.3),
            (0.8, 0.5, 0.5), (1.3, 0.1, 0.1), (0.5, 0.3, 0.3),
            (0.8, 0.5, 0.5), (1.3, 0.1, 0.1), (0.5, 0.3, 0.3),
        ],
        dtype=np.float64,
    )
    ranges = 0.35 * base
    ranges[:, 1] = 0.02
    ranges[0] = (0.1, 0.5, 0.1)  # root: moderate yaw, slight tilt/roll
    centers = np.zeros_like(ranges)
    centers[1:, 0] = ranges[1:, 0] + 0.25
    return SkeletonSpec(
        parents=parents,
        bone_lengths=lengths,
        rest_directions=directions,
        angle_ranges=ranges,
        angle_centers=centers,
    )


def default_camera() -> CameraModel:
    """The one synthetic camera: 1150 px focal length, centered on the image."""
    return CameraModel(fx=1150.0, fy=1150.0, cx=IMAGE_SIZE / 2, cy=IMAGE_SIZE / 2)


def _euler_rotations(angles) -> np.ndarray:
    """(M, 3, 3) rotations rz @ ry @ rx of (M, 3) Euler angles (x, y, z)."""
    c, s = np.cos(angles), np.sin(angles)
    rx, ry, rz = (np.zeros((len(angles), 3, 3)) for _ in range(3))
    rx[:, 0, 0] = ry[:, 1, 1] = rz[:, 2, 2] = 1.0
    rx[:, 1, 1] = rx[:, 2, 2] = c[:, 0]
    rx[:, 2, 1], rx[:, 1, 2] = s[:, 0], -s[:, 0]
    ry[:, 0, 0] = ry[:, 2, 2] = c[:, 1]
    ry[:, 0, 2], ry[:, 2, 0] = s[:, 1], -s[:, 1]
    rz[:, 0, 0] = rz[:, 1, 1] = c[:, 2]
    rz[:, 1, 0], rz[:, 0, 1] = s[:, 2], -s[:, 2]
    # kept on @: a stacked matmul gives the bits of one 3x3 @ at a time,
    # while hand-written products round apart from BLAS's fused multiply-adds
    return rz @ ry @ rx


def sample_pose(spec: SkeletonSpec, rng) -> np.ndarray:
    """Forward kinematics with uniformly sampled joint angles; root at origin.

    The tree is walked one depth level at a time: each level composes its
    joints' rotations with their parents' and places them in one stacked
    product each.
    """
    angles = rng.uniform(
        spec.angle_centers - spec.angle_ranges,
        spec.angle_centers + spec.angle_ranges,
    )
    rotations = _euler_rotations(angles)
    offsets = np.asarray(spec.bone_lengths)[:, None] * np.asarray(spec.rest_directions)
    positions = np.zeros((spec.num_joints, 3))
    for joints, parents in spec.levels:
        turned = rotations[parents] @ rotations[joints]
        rotations[joints] = turned
        moved = turned @ offsets[joints, :, None]
        positions[joints] = positions[parents] + moved[:, :, 0]
    return positions


def make_frame(
    pose_3d,
    camera: CameraModel,
    corruption: CorruptionSpec,
    rng,
    grid_size: int = GRID_SIZE,
):
    """Project a camera-space pose and render its (optionally corrupted)
    heat-map volume. Returns (volume, pose_2d_image, pose_3d)."""
    pose_3d = np.asarray(pose_3d, dtype=np.float64)
    pose_2d = project_perspective(pose_3d, camera)

    lo = pose_2d.min(axis=0)
    hi = pose_2d.max(axis=0)
    side = float(np.max(hi - lo)) * (1.0 + 2.0 * BOX_MARGIN)
    center = (lo + hi) / 2
    box = BoundingBox(
        origin_x=float(center[0] - side / 2),
        origin_y=float(center[1] - side / 2),
        side=side,
    )

    grid_joints = image_to_grid(pose_2d, box, grid_size)
    # the draws keep their per-joint order: the distractor test, a hit's
    # angle and radius, then the joint's noise block
    hits, angles, radii = [], [], []
    maps_shape = (len(pose_3d), grid_size, grid_size)
    noise = np.empty(maps_shape) if corruption.noise_floor > 0 else None
    for i in range(len(pose_3d)):
        if rng.random() < corruption.distractor_prob:
            hits.append(i)
            angles.append(rng.uniform(0, 2 * np.pi))
            radii.append(rng.uniform(*DISTRACTOR_OFFSETS))
        if noise is not None:
            noise[i] = rng.uniform(0, corruption.noise_floor, size=noise.shape[1:])
    maps = render_gaussian(grid_joints, grid_size)
    if hits:
        angles = np.array(angles)
        offsets = np.array(radii)[:, None] * np.stack([np.cos(angles), np.sin(angles)], 1)
        distractors = np.clip(grid_joints[hits] + offsets, 0, grid_size - 1)
        maps[hits] += corruption.strength * render_gaussian(distractors, grid_size)
    if noise is not None:
        maps += noise
    # hold at file precision, float32, so volumes round-trip bit-exactly
    maps = np.clip(maps, 0, None).astype(np.float32)
    return HeatMapVolume(maps=maps, box=box), pose_2d, pose_3d


def subject_reach(spec: SkeletonSpec) -> float:
    """Bound, in mm, on any joint's distance from a pose's centroid.

    A joint is no farther from the centroid than its mean distance to the
    joints, and no farther from a joint than the bones on the tree path
    between them, whatever the angles.
    """
    m = spec.num_joints
    lengths = np.asarray(spec.bone_lengths, dtype=np.float64)
    path = np.zeros((m, m))  # bone length along the path between two joints
    for j in range(1, m):
        # joints before j are not below it, so their paths pass its parent
        path[j, :j] = path[spec.parents[j], :j] + lengths[j]
        path[:j, j] = path[j, :j]
    return float(path.mean(axis=1).max())


def check_depth_range(depth_range, spec: SkeletonSpec | None = None) -> None:
    """ValueError unless depth_range is (low, high) with 0 < low <= high < inf
    and, given a skeleton, low beyond its reach, so that every joint of a
    placed subject is in front of the camera."""
    low, high = depth_range
    if not 0 < low <= high < np.inf:
        raise ValueError(f"depth range must be finite, 0 < min <= max: {depth_range}")
    reach = 0.0 if spec is None else subject_reach(spec)
    if not low > reach:
        raise ValueError(
            f"depth range min {low} can put joints behind the camera: it must "
            f"exceed the skeleton's reach from its centroid, {reach:.1f} mm"
        )


def check_grid_size(grid_size) -> None:
    """ValueError unless grid_size is an integer in [1, 2**32 - 1]: a volume
    file's header holds it as uint32."""
    check_count(grid_size, "grid size", high=2**32 - 1)


def place_subject(pose_centered, camera: CameraModel, rng, depth_range=DEPTH_RANGE):
    """Translate a root-centered pose to a random position in the frustum."""
    check_depth_range(depth_range)
    low, high = depth_range
    depth = rng.uniform(low, high)
    # mild lateral jitter, in mm, so the subject stays well inside the view
    lateral = 0.1 * depth
    center = np.array(
        [rng.uniform(-lateral, lateral), rng.uniform(-lateral, lateral), depth]
    )
    return pose_centered - pose_centered.mean(axis=0) + center


@dataclass(frozen=True)
class SyntheticFrame:
    volume: HeatMapVolume
    pose_2d: np.ndarray  # image pixels
    pose_3d: np.ndarray  # camera space, mm


def _frames(spec, camera, count, corruption, seed, depth_range, grid_size):
    """generate_frames' frames, made one at a time; the frame count, the
    grid size, and the depth range against the skeleton's reach, are checked
    before any pose is sampled."""
    check_count(count, "frame count")
    check_grid_size(grid_size)
    check_depth_range(depth_range, spec)
    rng = np.random.default_rng(seed)
    poses = (
        place_subject(sample_pose(spec, rng), camera, rng, depth_range)
        for _ in range(count)
    )
    return (
        SyntheticFrame(*make_frame(pose, camera, corruption, rng, grid_size=grid_size))
        for pose in poses
    )


def generate_frames(
    spec: SkeletonSpec,
    camera: CameraModel,
    count: int,
    corruption: CorruptionSpec,
    seed: int,
    depth_range=DEPTH_RANGE,
    grid_size: int = GRID_SIZE,
) -> list[SyntheticFrame]:
    return list(_frames(spec, camera, count, corruption, seed, depth_range, grid_size))

