"""Reference synthetic sampler: forward kinematics and rendering per joint.

Each joint builds its own Euler rotation from nested lists, is placed
after its parent with one matrix product at a time, and gets its heat map
rendered, corrupted and noised before the next joint is looked at. It is
slow but easy to check by eye, so the tests hold the batched sampler in
poselift.synth to it bit for bit, random-number stream included.
"""

import numpy as np

from poselift.geometry import BoundingBox, image_to_grid, project_perspective
from poselift.heatmaps import HeatMapVolume
from poselift.synth import BOX_MARGIN, DISTRACTOR_OFFSETS, GRID_SIZE


def euler_rotation(angles):
    ax, ay, az = angles
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


def render_gaussian(joint, grid_size):
    joint = np.asarray(joint, dtype=np.float64)
    ys, xs = np.mgrid[0:grid_size, 0:grid_size]
    d2 = (xs - joint[0]) ** 2 + (ys - joint[1]) ** 2
    return np.exp(-d2 / 2.0)


def sample_pose(spec, rng):
    m = spec.num_joints
    angles = rng.uniform(
        spec.angle_centers - spec.angle_ranges,
        spec.angle_centers + spec.angle_ranges,
    )
    positions = np.zeros((m, 3))
    rotations = [np.eye(3)] * m
    for j in range(m):
        local = euler_rotation(angles[j])
        if spec.parents[j] == -1:
            rotations[j] = local
            continue
        parent = spec.parents[j]
        rotations[j] = rotations[parent] @ local
        offset = spec.bone_lengths[j] * spec.rest_directions[j]
        positions[j] = positions[parent] + rotations[j] @ offset
    return positions


def make_frame(pose_3d, camera, corruption, rng, grid_size=GRID_SIZE):
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
    maps = np.empty((len(pose_3d), grid_size, grid_size))
    for i, joint in enumerate(grid_joints):
        grid = render_gaussian(joint, grid_size)
        if rng.random() < corruption.distractor_prob:
            angle = rng.uniform(0, 2 * np.pi)
            radius = rng.uniform(*DISTRACTOR_OFFSETS)
            distractor = joint + radius * np.array([np.cos(angle), np.sin(angle)])
            distractor = np.clip(distractor, 0, grid_size - 1)
            grid = grid + corruption.strength * render_gaussian(distractor, grid_size)
        if corruption.noise_floor > 0:
            grid = grid + rng.uniform(0, corruption.noise_floor, size=grid.shape)
        maps[i] = grid
    maps = np.clip(maps, 0, None).astype(np.float32).astype(np.float64)
    return HeatMapVolume(maps=maps, box=box), pose_2d, pose_3d
