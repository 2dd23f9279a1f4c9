"""The experiment harness: train a lifter on synthetic frames, infer with
several configurations on a shared test split, and report the metrics.

The acceptance criteria and tests/test_synth.py call it; nothing in the
package, the CLI or the bench does, so it lives beside the tests.
"""

from dataclasses import replace

import numpy as np

from poselift.geometry import (
    CameraModel,
    error_2d,
    image_to_crop,
    mpjpe,
    procrustes_error,
)
from poselift.inference import InferenceConfig, infer
from poselift.lifter import LifterTrainConfig, train_lifter
from poselift.synth import (
    DEPTH_RANGE,
    CorruptionSpec,
    SkeletonSpec,
    generate_frames,
)

# bootstrap_mean_ci: resamples drawn, and the interval's total tail mass
BOOTSTRAP_RESAMPLES = 1000
BOOTSTRAP_ALPHA = 0.05


def mean_bone_length(spec: SkeletonSpec) -> float:
    """Mean length, in mm, of the skeleton's bones (the root has none)."""
    return float(np.mean(np.asarray(spec.bone_lengths)[1:]))


def evaluate_frames(frames, model, config: InferenceConfig, camera: CameraModel):
    """Per-frame metrics for one inference configuration."""
    per_frame = {"mpjpe": [], "similarity": [], "error_2d": [], "chosen": []}
    for frame in frames:
        result = infer(frame.volume, model, config, camera=camera)
        gt_3d = frame.pose_3d - frame.pose_3d.mean(axis=0)
        per_frame["mpjpe"].append(mpjpe(gt_3d, result.pose_3d))
        per_frame["similarity"].append(procrustes_error(gt_3d, result.pose_3d))
        per_frame["error_2d"].append(
            error_2d(
                image_to_crop(frame.pose_2d, frame.volume.box),
                image_to_crop(result.pose_2d, frame.volume.box),
            )
        )
        per_frame["chosen"].append(result.chosen_index)
    return {k: np.array(v) for k, v in per_frame.items()}


def bootstrap_mean_ci(samples, rng):
    """Percentile bootstrap confidence interval for the mean."""
    samples = np.asarray(samples, dtype=np.float64)
    means = np.empty(BOOTSTRAP_RESAMPLES)
    n = len(samples)
    for i in range(BOOTSTRAP_RESAMPLES):
        means[i] = samples[rng.integers(0, n, size=n)].mean()
    lo, hi = np.quantile(means, [BOOTSTRAP_ALPHA / 2, 1 - BOOTSTRAP_ALPHA / 2])
    return float(lo), float(hi)


def run_benchmark(
    skeleton: SkeletonSpec,
    camera: CameraModel,
    n_train: int,
    n_test: int,
    configs: dict[str, InferenceConfig],
    seed: int,
    corruption: CorruptionSpec = CorruptionSpec(),
    train_config: LifterTrainConfig = LifterTrainConfig(),
    baseline: str | None = None,
    depth_range=DEPTH_RANGE,
) -> tuple[dict, dict]:
    """Train a lifter, infer with each config on a shared test split, and
    report the three metrics plus a bootstrap interval for the paired MPJPE
    delta against the named baseline config.

    Returns (report, per_frame): the report holds only JSON values, and
    per_frame maps each config name to evaluate_frames' arrays. A baseline
    that names no config is refused before any training.
    """
    if baseline is not None and baseline not in configs:
        raise ValueError(f"baseline {baseline!r} is not one of the configs")
    rng = np.random.default_rng(seed)
    train_seed, test_seed, lifter_seed, boot_seed = rng.integers(0, 2**31, size=4)

    report: dict = {
        "seed": seed,
        "n_train": n_train,
        "n_test": n_test,
        "configs": {},
    }
    train_frames = generate_frames(
        skeleton, camera, n_train, CorruptionSpec(), int(train_seed),
        depth_range=depth_range,
    )
    model, report["train_loss"] = train_lifter(
        [f.pose_2d for f in train_frames],
        [f.pose_3d for f in train_frames],
        replace(train_config, seed=int(lifter_seed)),
    )

    test_frames = generate_frames(
        skeleton, camera, n_test, corruption, int(test_seed),
        depth_range=depth_range,
    )
    per_frame = {}
    for name, config in configs.items():
        metrics = evaluate_frames(test_frames, model, config, camera)
        per_frame[name] = metrics
        report["configs"][name] = {
            "mpjpe_mean": float(metrics["mpjpe"].mean()),
            "similarity_mean": float(metrics["similarity"].mean()),
            "error_2d_mean": float(metrics["error_2d"].mean()),
        }

    if baseline is not None:
        boot_rng = np.random.default_rng(int(boot_seed))
        report["deltas_vs_baseline"] = {}
        for name, metrics in per_frame.items():
            if name == baseline:
                continue
            delta = metrics["mpjpe"] - per_frame[baseline]["mpjpe"]
            lo, hi = bootstrap_mean_ci(delta, boot_rng)
            report["deltas_vs_baseline"][name] = {
                "mpjpe_delta_mean": float(delta.mean()),
                "ci95": [lo, hi],
            }
    return report, per_frame
