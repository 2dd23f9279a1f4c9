"""Acceptance criteria for the full pipeline, one test per criterion.

These are the binding end-to-end checks: exact N-best enumeration against
brute force, mode-finding fidelity, gradient correctness, lifter
learnability, prior effectiveness under corruption, projection-mode
agreement, degenerate-config identities, metric invariances, throughput,
and CLI reproducibility.
"""

import itertools
import json
import time

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from harness import mean_bone_length, run_benchmark
from poselift.cli import main as cli_main
from poselift.geometry import (
    CameraModel,
    grid_to_image,
    mpjpe,
    procrustes_error,
    project_perspective,
)
from poselift.heatmaps import find_modes_volume, render_gaussian
from poselift.inference import (
    PRIOR_ORTHOGRAPHIC,
    InferenceConfig,
    extract_candidates,
    infer,
)
from poselift.lifter import (
    INPUT_NORMALIZED,
    LifterTrainConfig,
    init_parameters,
    loss_and_gradients,
    train_lifter,
)
from poselift.nbest import PoseAssignment, n_best_poses
from poselift.synth import (
    CorruptionSpec,
    default_camera,
    default_skeleton,
    generate_frames,
    place_subject,
    sample_pose,
)


def test_criterion_1_nbest_exactness():
    """>= 10,000 random instances match brute force bitwise in < 10 s."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(10_000):
        m = int(rng.integers(1, 5))
        values = []
        for _ in range(m):
            k = int(rng.integers(1, 6))
            values.append(np.sort(rng.uniform(0, 1, size=k))[::-1])
        n = int(rng.integers(1, 11))

        expected = []
        for indices in itertools.product(*(range(len(v)) for v in values)):
            total = 0.0
            for i, idx in enumerate(indices):
                total += float(values[i][idx])
            expected.append(PoseAssignment(indices=indices, score=total))
        expected.sort(key=lambda p: (-p.score, p.indices))

        assert n_best_poses(values, n) == expected[:n]
    assert time.perf_counter() - start < 10.0


def test_criterion_2_mean_shift_fidelity():
    """Single-Gaussian localization within 0.5 px and exact two-bump mode
    counts, both in >= 99% of 1,000 grids at b = 3.0."""
    rng = np.random.default_rng(1)
    bandwidth = 3.0

    hits = 0
    for _ in range(1000):
        center = rng.uniform(4, 28, size=2)
        grid = render_gaussian(center, 32)
        modes = find_modes_volume(grid[None], bandwidth, 8)[0]
        if np.linalg.norm(modes.positions[0] - center) < 0.5:
            hits += 1
    assert hits >= 990

    exact = 0
    for _ in range(1000):
        while True:
            c1 = rng.uniform(5, 27, size=2)
            c2 = rng.uniform(5, 27, size=2)
            if np.linalg.norm(c1 - c2) >= 10.0:
                break
        grid = render_gaussian(c1, 32) + 0.8 * render_gaussian(c2, 32)
        modes = find_modes_volume(grid[None], bandwidth, 8)[0]
        if len(modes) == 2:
            exact += 1
    assert exact >= 990


def _relu_pattern(weights, biases, x):
    """Hidden-layer activation sign pattern; the loss is differentiable in
    a parameter only while the pattern is locally constant."""
    pattern = []
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        pre = h @ w + b
        pattern.append(pre > 0)
        h = np.maximum(pre, 0.0)
    return pattern


def test_criterion_3_gradient_correctness():
    """Analytic gradients match central finite differences on 100 random
    tiny configurations within 1e-4 relative, in < 30 s. Parameters whose
    perturbation flips a rectifier (a kink, where the loss is not
    differentiable) are excluded from the comparison."""
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    checked = 0
    for _ in range(100):
        depth = int(rng.integers(1, 4))
        sizes = (
            (int(rng.integers(2, 10)),)
            + tuple(int(rng.integers(2, 9)) for _ in range(depth))
            + (int(rng.integers(2, 10)),)
        )
        weights, biases = init_parameters(sizes, rng)
        biases = [rng.normal(0, 0.3, size=b.shape) for b in biases]
        x = rng.normal(size=(4, sizes[0]))
        y = rng.normal(size=(4, sizes[-1]))
        _, w_grads, b_grads = loss_and_gradients(weights, biases, x, y)
        eps = 1e-4
        for layer in range(len(weights)):
            for arr, grads in ((weights, w_grads), (biases, b_grads)):
                flat = arr[layer].ravel()
                g = grads[layer].ravel()
                picks = rng.choice(
                    flat.size, size=min(5, flat.size), replace=False
                )
                for idx in picks:
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    up = loss_and_gradients(weights, biases, x, y)[0]
                    pattern_up = _relu_pattern(weights, biases, x)
                    flat[idx] = orig - eps
                    down = loss_and_gradients(weights, biases, x, y)[0]
                    pattern_down = _relu_pattern(weights, biases, x)
                    flat[idx] = orig
                    if any(
                        not np.array_equal(a, b)
                        for a, b in zip(pattern_up, pattern_down)
                    ):
                        continue  # kink crossed; derivative undefined here
                    numeric = (up - down) / (2 * eps)
                    denom = max(abs(numeric), abs(g[idx]), 1e-8)
                    assert abs(numeric - g[idx]) / denom < 1e-4
                    checked += 1
    assert checked > 2000  # kink skips must stay rare
    assert time.perf_counter() - start < 30.0


def _pose_pairs(skeleton, camera, count, seed, depth_range=(3000.0, 6000.0)):
    """Exact 2D/3D pairs without heat-map rendering (lifter-only data)."""
    rng = np.random.default_rng(seed)
    poses_2d, poses_3d = [], []
    for _ in range(count):
        pose = sample_pose(skeleton, rng)
        pose = place_subject(pose, camera, rng, depth_range)
        poses_2d.append(project_perspective(pose, camera))
        poses_3d.append(pose)
    return poses_2d, poses_3d


def test_criterion_4_lifter_learnability():
    """5,000/1,000 synthetic split: full-input J_MPJPE below 20% of the
    mean bone length, and the full input beats normalized-only."""
    start = time.perf_counter()
    skeleton = default_skeleton()
    camera = default_camera()
    train_2d, train_3d = _pose_pairs(skeleton, camera, 5000, seed=10)
    test_2d, test_3d = _pose_pairs(skeleton, camera, 1000, seed=11)

    def evaluate(model):
        errors = [
            mpjpe(gt - gt.mean(axis=0), model.lift(p2))
            for p2, gt in zip(test_2d, test_3d)
        ]
        return float(np.mean(errors))

    full_model, _ = train_lifter(
        train_2d, train_3d, LifterTrainConfig(seed=0)
    )
    norm_model, _ = train_lifter(
        train_2d,
        train_3d,
        LifterTrainConfig(input_mode=INPUT_NORMALIZED, seed=0),
    )
    full_err = evaluate(full_model)
    norm_err = evaluate(norm_model)

    assert full_err < 0.2 * mean_bone_length(skeleton)
    assert full_err < norm_err
    assert time.perf_counter() - start < 600.0


def test_criterion_5_prior_effectiveness():
    """Distractor corruption (p=0.15, strength 1.1): the consistency prior
    cuts mean J_MPJPE by >= 5% vs the unary-only decode, with a bootstrap
    95% interval excluding zero."""
    start = time.perf_counter()
    report, _ = run_benchmark(
        default_skeleton(),
        default_camera(),
        n_train=2000,
        n_test=300,
        configs={
            "unary": InferenceConfig(prior_strength=0.0, num_candidates=8),
            "prior": InferenceConfig(prior_strength=1.0, num_candidates=8),
        },
        seed=0,
        corruption=CorruptionSpec(distractor_prob=0.15, strength=1.1),
        baseline="unary",
    )
    unary = report["configs"]["unary"]["mpjpe_mean"]
    prior = report["configs"]["prior"]["mpjpe_mean"]
    assert prior < 0.95 * unary
    lo, hi = report["deltas_vs_baseline"]["prior"]["ci95"]
    assert hi < 0.0  # the whole interval is an improvement
    assert time.perf_counter() - start < 600.0


def test_criterion_6_perspective_orthographic_agreement():
    """At depth >= 20x subject extent the two prior modes pick the same
    candidate on >= 95% of frames."""
    _, per_frame = run_benchmark(
        default_skeleton(),
        default_camera(),
        n_train=1000,
        n_test=200,
        configs={
            "perspective": InferenceConfig(num_candidates=8),
            "orthographic": InferenceConfig(
                num_candidates=8, prior_mode=PRIOR_ORTHOGRAPHIC
            ),
        },
        seed=0,
        corruption=CorruptionSpec(distractor_prob=0.15, strength=1.1),
        depth_range=(35000.0, 45000.0),  # ~23x the ~1.7 m subject extent
    )
    chosen_p = per_frame["perspective"]["chosen"]
    chosen_o = per_frame["orthographic"]["chosen"]
    agreement = float(np.mean(chosen_p == chosen_o))
    assert agreement >= 0.95


def test_criterion_7_degenerate_lambda_identity():
    """With zero prior strength, infer equals greedy top-1 decode exactly
    on every benchmark frame."""
    frames = generate_frames(
        default_skeleton(),
        default_camera(),
        30,
        CorruptionSpec(distractor_prob=0.15, strength=1.1),
        seed=5,
    )
    train_2d, train_3d = _pose_pairs(default_skeleton(), default_camera(), 50, seed=6)
    model, _ = train_lifter(
        train_2d, train_3d, LifterTrainConfig(epochs=2, hidden_sizes=(32,))
    )
    config = InferenceConfig(prior_strength=0.0, num_candidates=8)
    for frame in frames:
        result = infer(frame.volume, model, config, camera=default_camera())
        assert result.chosen_index == 0
        per_joint = extract_candidates(frame.volume, config)
        greedy = grid_to_image(
            np.array([c.positions[0] for c in per_joint]),
            frame.volume.box,
            frame.volume.grid_size,
        )
        np.testing.assert_array_equal(result.pose_2d, greedy)


def test_criterion_8_metric_correctness():
    """Procrustes similarity invariance (1,000 trials, 1e-6) and exact
    MPJPE translation invariance."""
    rng = np.random.default_rng(3)
    for i in range(1000):
        gt = rng.normal(0, 400, size=(17, 3))
        rot = Rotation.random(random_state=i).as_matrix()
        s = float(rng.uniform(0.2, 5.0))
        t = rng.normal(0, 1000, size=3)
        est = s * gt @ rot.T + t
        assert procrustes_error(gt, est) < 1e-6

    # exact invariance: integer-valued poses and translations make the
    # additions lossless in double precision, so the root-relative
    # differences — all mpjpe sees — are bitwise identical
    for _ in range(100):
        gt = rng.integers(-4000, 4000, size=(17, 3)).astype(np.float64)
        est = rng.integers(-4000, 4000, size=(17, 3)).astype(np.float64)
        t1 = rng.integers(-100000, 100000, size=3).astype(np.float64)
        t2 = rng.integers(-100000, 100000, size=3).astype(np.float64)
        assert mpjpe(gt + t1, est + t2) == mpjpe(gt, est)


def test_criterion_9_throughput():
    """Full per-frame pipeline (M=17, N=128, desk-scale lifter) under
    50 ms single-threaded after warm-up."""
    frames = generate_frames(
        default_skeleton(),
        default_camera(),
        12,
        CorruptionSpec(noise_floor=0.02),
        seed=7,
    )
    train_2d, train_3d = _pose_pairs(default_skeleton(), default_camera(), 200, seed=8)
    model, _ = train_lifter(
        train_2d, train_3d, LifterTrainConfig(epochs=5)
    )
    config = InferenceConfig(num_candidates=128)
    camera = default_camera()
    infer(frames[0].volume, model, config, camera=camera)  # warm-up
    infer(frames[1].volume, model, config, camera=camera)
    timed = frames[2:]
    start = time.perf_counter()
    for frame in timed:
        infer(frame.volume, model, config, camera=camera)
    per_frame = (time.perf_counter() - start) / len(timed)
    assert per_frame < 0.050


def test_criterion_10_cli_reproducibility(tmp_path):
    """Every subcommand yields byte-identical outputs across two runs."""

    def run(*argv):
        assert cli_main(list(argv)) == 0

    outputs = {}
    for tag in ("a", "b"):
        base = tmp_path / tag
        data = base / "data"
        run(
            "synth", "--out-dir", str(data), "--frames", "4", "--seed", "9",
            "--distractor-prob", "0.2",
        )
        model = base / "model.bin"
        run(
            "train-lifter",
            "--poses-2d", str(data / "poses_2d.jsonl"),
            "--poses-3d", str(data / "poses_3d.jsonl"),
            "--out", str(model),
            "--epochs", "3", "--hidden-sizes", "32", "--seed", "9",
        )
        inferred = base / "out"
        run(
            "infer",
            "--manifest", str(data / "manifest.txt"),
            "--model", str(model),
            "--camera", str(data / "camera.json"),
            "--out-dir", str(inferred),
            "--num-candidates", "8",
        )
        report = base / "report.json"
        run(
            "eval",
            "--pred-3d", str(inferred / "poses_3d_absolute.jsonl"),
            "--gt-3d", str(data / "poses_3d.jsonl"),
            "--pred-2d", str(inferred / "poses_2d.jsonl"),
            "--gt-2d", str(data / "poses_2d.jsonl"),
            "--manifest", str(data / "manifest.txt"),
            "--out", str(report),
        )
        outputs[tag] = {
            rel: (base / rel).read_bytes()
            for rel in (
                "data/poses_2d.jsonl",
                "data/poses_3d.jsonl",
                "data/manifest.txt",
                "data/volumes/frame_000002.hmv",
                "model.bin",
                "out/poses_2d.jsonl",
                "out/poses_3d.jsonl",
                "out/poses_3d_absolute.jsonl",
                "out/selection.jsonl",
                "report.json",
            )
        }
    assert outputs["a"] == outputs["b"]
