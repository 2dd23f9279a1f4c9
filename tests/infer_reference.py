"""Reference frame inference: one candidate pose at a time.

Candidates come from tests/modes_reference.py. Every pose of the candidate
product is scored by a left-to-right sum and ranked by (-score, indices);
a frame whose product is too large to enumerate takes a ranking function
from the caller instead. Each pose is mapped to image pixels, normalized
and lifted on its own through tests/lifter_reference.py's forward pass,
and its consistency prior is written out joint by joint. The winner is
the lowest energy, ties going to the lower rank. It is slow but easy to
check by eye, so the tests hold the batched `infer` to it.
"""

import itertools
import math

import numpy as np

import lifter_reference
import modes_reference
from poselift.geometry import DEGENERATE_TOL
from poselift.inference import GENERATOR_MEAN_SHIFT, PRIOR_PERSPECTIVE
from poselift.lifter import INPUT_FULL, POSITION_INPUT_SCALE


def ranked_poses(values, n):
    """The n best (indices, score) of the whole candidate product."""
    poses = []
    for indices in itertools.product(*(range(len(v)) for v in values)):
        score = 0.0
        for joint, k in enumerate(indices):
            score += values[joint][k]
        poses.append((indices, score))
    poses.sort(key=lambda pose: (-pose[1], pose[0]))
    return poses[:n]


def normalize(pose):
    """(joints, mean, scale) of one pose as lists, the joints shifted to
    zero mean and divided by the RMS joint distance from it; None for a
    pose whose scale is at most DEGENERATE_TOL."""
    m = len(pose)
    mean = [sum(p[axis] for p in pose) / m for axis in (0, 1)]
    centered = [[p[0] - mean[0], p[1] - mean[1]] for p in pose]
    scale = math.sqrt(sum(x * x + y * y for x, y in centered) / m)
    if not scale > DEGENERATE_TOL:
        return None
    return [[x / scale, y / scale] for x, y in centered], mean, scale


def lift(pose, model):
    """The zero-mean 3D pose (M, 3) that the model gives one 2D pose; a
    pose that cannot be normalized gets the input row of zeros."""
    normalized = normalize(pose)
    if normalized is None:
        row = [0.0] * model.input_dim
    else:
        joints, mean, scale = normalized
        row = [c for joint in joints for c in joint]
        if model.input_mode == INPUT_FULL:
            row += [mean[0] / POSITION_INPUT_SCALE, mean[1] / POSITION_INPUT_SCALE,
                    scale / POSITION_INPUT_SCALE]
    out, _ = lifter_reference.forward_cached(
        model.weights, model.biases, np.array([row])
    )
    return out[0].reshape(model.num_joints, 3)


def prior(pose, lifted, model, config, camera):
    """Strength times the squared distance between the normalized pose and
    its normalized re-projection; +inf when a joint of the absolute lift is
    at non-positive depth, or either pose cannot be normalized."""
    if config.prior_strength == 0:
        return 0.0
    reprojected = []
    for x, y, z in lifted:
        if config.prior_mode == PRIOR_PERSPECTIVE:
            x, y, z = x + model.mean_offset[0], y + model.mean_offset[1], z + model.mean_offset[2]
            if not z > 0:
                return math.inf
            x, y = camera.fx * x / z + camera.cx, camera.fy * y / z + camera.cy
            if not (math.isfinite(x) and math.isfinite(y)):
                return math.inf
        reprojected.append([x, y])
    a, b = normalize(pose), normalize(reprojected)
    if a is None or b is None:
        return math.inf
    total = 0.0
    for (ax, ay), (bx, by) in zip(a[0], b[0]):
        total += (ax - bx) ** 2 + (ay - by) ** 2
    return config.prior_strength * total


def infer(volume, model, config, camera=None, rank=ranked_poses):
    """(ranked, energies, chosen, pose_2d, pose_3d) for one frame.

    ranked is the (indices, score) list of the candidate poses, best first,
    that rank(per-joint candidate values, config.num_candidates) gives.
    Only the mean-shift generator is covered.
    """
    assert config.generator == GENERATOR_MEAN_SHIFT
    modes = modes_reference.find_modes_volume(
        volume.maps, config.bandwidth, config.num_candidates
    )
    ranked = rank([values.tolist() for _, values in modes], config.num_candidates)
    box, cell = volume.box, volume.box.side / volume.grid_size
    energies, poses_2d, poses_3d = [], [], []
    for indices, score in ranked:
        pose = []
        for joint, k in enumerate(indices):
            gx, gy = modes[joint][0][k]
            pose.append([box.origin_x + (gx + 0.5) * cell, box.origin_y + (gy + 0.5) * cell])
        lifted = lift(pose, model)
        energies.append(-score + prior(pose, lifted, model, config, camera))
        poses_2d.append(pose)
        poses_3d.append(lifted)
    chosen = 0
    for k, energy in enumerate(energies):
        if energy < energies[chosen]:
            chosen = k
    return ranked, energies, chosen, np.array(poses_2d[chosen]), poses_3d[chosen]
