"""Energy assembly and optimal pose selection.

Each pose candidate's energy is the negative sum of its smoothed
heat-map values plus a consistency prior: the lifted 3D pose is
re-projected to 2D and compared, after normalization, with the
candidate itself. The lowest-energy candidate wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    CameraModel,
    as_poses,
    grid_to_image,
    normalize_pose,  # unused here: bench/spans.py wraps inference.normalize_pose
    normalize_poses,
    project_orthographic,
    project_perspective,
)
from .heatmaps import HeatMapVolume, check_extraction, find_modes_nms, find_modes_volume
from .lifter import LifterModel
from .nbest import check_pose_count, n_best_poses

PRIOR_PERSPECTIVE = "perspective"
PRIOR_ORTHOGRAPHIC = "orthographic"
GENERATOR_MEAN_SHIFT = "mean-shift"
GENERATOR_NMS = "nms"
PRIOR_MODES = (PRIOR_PERSPECTIVE, PRIOR_ORTHOGRAPHIC)
GENERATORS = (GENERATOR_MEAN_SHIFT, GENERATOR_NMS)


def check_prior(mode: str, strength: float) -> None:
    """ValueError unless mode is one of PRIOR_MODES and strength is finite
    and >= 0, so that every prior is >= 0 or +inf."""
    if mode not in PRIOR_MODES:
        raise ValueError(f"unknown prior mode {mode!r}")
    # written so that NaN fails it too
    if not 0 <= strength < np.inf:
        raise ValueError("prior strength must be finite and >= 0")


def check_camera(mode: str, camera: CameraModel | None) -> None:
    """ValueError when the perspective prior has no camera to project through."""
    if mode == PRIOR_PERSPECTIVE and camera is None:
        raise ValueError("perspective prior requires a camera model")


@dataclass(frozen=True)
class InferenceConfig:
    prior_strength: float = 1.0  # weight on the consistency term
    bandwidth: float = 3.0
    num_candidates: int = 128
    prior_mode: str = PRIOR_PERSPECTIVE
    generator: str = GENERATOR_MEAN_SHIFT

    def __post_init__(self):
        # each rule's owner is the function that relies on it; only the
        # generator is checked here, as its one user, extract_candidates,
        # takes this config
        check_prior(self.prior_mode, self.prior_strength)
        check_pose_count(self.num_candidates)
        check_extraction(self.bandwidth, self.num_candidates)
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown candidate generator {self.generator!r}")


@dataclass(frozen=True)
class CandidateResult:
    score: float
    prior: float  # +inf when the prior could not be evaluated
    energy: float

    @property
    def failed(self) -> bool:
        return not np.isfinite(self.prior)


@dataclass(frozen=True)
class InferenceResult:
    pose_2d: np.ndarray
    pose_3d: np.ndarray  # zero-mean, millimeters
    pose_3d_absolute: np.ndarray
    chosen_index: int
    candidates: tuple[CandidateResult, ...]


def consistency_priors(
    poses_2d, lifted, model: LifterModel, mode: str, strength: float, camera=None
) -> np.ndarray:
    """Consistency term for a batch of candidates; the prior infer runs.

    poses_2d (K, M, 2) are candidate poses in image pixels and lifted
    (K, M, 3) their zero-mean lifts. Each lift is re-projected -- shifted
    by the model's mean position and projected through the camera
    (perspective), or with the depth axis dropped (orthographic) -- and the
    value is strength times the squared distance between the normalized
    candidate and the normalized re-projection. Candidates whose absolute
    lift has a joint at non-positive depth, whose re-projection overflows,
    or whose pose or re-projection cannot be normalized, get +inf. Raises
    ValueError for non-finite lifts, for a mode or strength that
    check_prior refuses, and for a camera that check_camera refuses.
    """
    check_prior(mode, strength)
    check_camera(mode, camera)
    poses_2d = np.asarray(poses_2d, dtype=np.float64)
    lifted = np.asarray(lifted, dtype=np.float64)
    if mode == PRIOR_PERSPECTIVE:
        absolute = as_poses(lifted + model.mean_offset, 3, ndim=3)
        unseen = np.any(absolute[..., 2] <= 0, axis=1)
        reproj = np.zeros(poses_2d.shape)
        reproj[~unseen] = project_perspective(absolute[~unseen], camera)
        unseen |= ~np.isfinite(reproj).all(axis=(1, 2))
        reproj[unseen] = 0.0
    else:
        unseen = np.zeros(len(lifted), dtype=bool)
        reproj = project_orthographic(lifted)
    x_norm, _, x_scale = normalize_poses(poses_2d)
    y_norm, _, y_scale = normalize_poses(reproj)
    diff = (x_norm - y_norm).reshape(len(poses_2d), 2 * poses_2d.shape[1])
    values = strength * np.sum(diff**2, axis=1)
    values[unseen | ~(x_scale > 0) | ~(y_scale > 0)] = np.inf
    return values


def extract_candidates(volume: HeatMapVolume, config: InferenceConfig):
    """Per-joint ranked candidates with the configured generator."""
    if config.generator == GENERATOR_MEAN_SHIFT:
        return find_modes_volume(
            volume.maps, config.bandwidth, config.num_candidates
        )
    return [
        find_modes_nms(grid, config.num_candidates, radius=config.bandwidth)
        for grid in volume.maps
    ]


def infer(
    volume: HeatMapVolume,
    model: LifterModel,
    config: InferenceConfig,
    camera: CameraModel | None = None,
) -> InferenceResult:
    """Full per-frame pipeline: candidates, top-N poses, priors, argmin energy.

    With prior_strength 0 the priors are identically zero and the winner
    is the greedy top-score pose. Every candidate is lifted once, in one
    batch. Candidates whose prior cannot be evaluated (a lift behind the
    camera, or joints that coincide) get +inf energy instead of aborting
    the frame. Raises FloatingPointError when a lift is not finite (the
    network overflows on this input).
    """
    check_camera(config.prior_mode, camera)
    if volume.num_joints != model.num_joints:
        raise ValueError(
            f"volume has {volume.num_joints} joints, model expects {model.num_joints}"
        )
    per_joint = extract_candidates(volume, config)
    assignments = n_best_poses([c.values for c in per_joint], config.num_candidates)

    # every candidate pose with one gather: joint i's candidate idx is row
    # starts[i] + idx of the joints' concatenated positions
    positions = np.concatenate([c.positions for c in per_joint])
    starts = np.cumsum([0] + [len(c) for c in per_joint[:-1]])
    indices = np.array([a.indices for a in assignments])
    poses_img = grid_to_image(positions[indices + starts], volume.box, volume.grid_size)

    lifted = model.lift_batch(model.build_inputs(poses_img)[0])
    if not np.all(np.isfinite(lifted + model.mean_offset)):
        raise FloatingPointError("lifted poses are not finite")
    if config.prior_strength == 0:
        priors = np.zeros(len(assignments))
    else:
        priors = consistency_priors(
            poses_img, lifted, model, config.prior_mode, config.prior_strength, camera
        )
    scores = np.array([a.score for a in assignments])
    energies = -scores + priors
    best = int(np.argmin(energies))  # ties resolve to the lowest k
    best_3d = lifted[best]
    candidates = tuple(
        CandidateResult(score=float(s), prior=float(v), energy=float(e))
        for s, v, e in zip(scores, priors, energies)
    )
    return InferenceResult(
        pose_2d=poses_img[best],
        pose_3d=best_3d,
        pose_3d_absolute=best_3d + model.mean_offset,
        chosen_index=best,
        candidates=candidates,
    )
