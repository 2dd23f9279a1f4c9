"""Energy assembly and winner-selection tests.

Stub lifters with constant output make every prior value hand-computable;
the energy identity and the greedy reduction at zero prior strength are
checked against direct recomputation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infer_reference
from poselift import inference
from poselift.geometry import BoundingBox, CameraModel, grid_to_image, project_perspective
from poselift.heatmaps import (
    HeatMapVolume,
    _window_masks,
    find_modes_nms,
    find_modes_volume,
    render_gaussian,
)
from poselift.inference import (
    GENERATOR_NMS,
    PRIOR_MODES,
    PRIOR_ORTHOGRAPHIC,
    PRIOR_PERSPECTIVE,
    InferenceConfig,
    check_camera,
    consistency_priors,
    extract_candidates,
    infer,
)
from poselift.lifter import (
    INPUT_FULL,
    INPUT_MODES,
    LifterModel,
    LifterTrainConfig,
    init_parameters,
    train_lifter,
)
from poselift.nbest import n_best_poses
from poselift.synth import (
    CorruptionSpec,
    default_camera,
    default_skeleton,
    generate_frames,
    place_subject,
    sample_pose,
)


def constant_lifter(pose_3d, mean_offset=(0.0, 0.0, 4000.0)):
    """Single-layer zero-weight model: lift() returns pose_3d for any input."""
    pose_3d = np.asarray(pose_3d, dtype=np.float64)
    m = len(pose_3d)
    return LifterModel(
        num_joints=m,
        weights=(np.zeros((2 * m + 3, 3 * m)),),
        biases=(pose_3d.ravel().copy(),),
        mean_offset=np.asarray(mean_offset, dtype=np.float64),
    )


def hand_normalize(pose):
    pose = np.asarray(pose, dtype=np.float64)
    mean = pose.mean(axis=0)
    sigma = np.sqrt(np.mean(np.sum((pose - mean) ** 2, axis=1)))
    return (pose - mean) / sigma


def make_volume(joints, grid_size=32, side=256.0):
    maps = np.stack([render_gaussian(j, grid_size) for j in joints])
    return HeatMapVolume(
        maps=maps, box=BoundingBox(origin_x=0.0, origin_y=0.0, side=side)
    )


CAMERA = CameraModel(fx=1000.0, fy=1000.0, cx=500.0, cy=500.0)


def prior(pose_2d, model, mode, strength, camera=None):
    """(consistency_priors of one pose, its lift) with the model's lift."""
    lifted = model.lift(pose_2d)
    values = consistency_priors(
        np.asarray(pose_2d)[None], lifted[None], model, mode, strength, camera
    )
    return float(values[0]), lifted


class TestPriors:
    POSE_2D = np.array([(400.0, 420.0), (520.0, 400.0), (470.0, 560.0)])

    def test_zero_strength_perspective(self):
        model = constant_lifter(np.random.default_rng(0).normal(0, 200, (3, 3)))
        value, _ = prior(self.POSE_2D, model, PRIOR_PERSPECTIVE, 0.0, CAMERA)
        assert value == 0.0

    def test_zero_strength_orthographic(self):
        model = constant_lifter(np.random.default_rng(1).normal(0, 200, (3, 3)))
        value, _ = prior(self.POSE_2D, model, PRIOR_ORTHOGRAPHIC, 0.0)
        assert value == 0.0

    def test_perspective_hand_computed(self):
        rng = np.random.default_rng(2)
        lifted = rng.normal(0.0, 200.0, size=(3, 3))
        offset = np.array([0.0, 0.0, 4000.0])
        model = constant_lifter(lifted, offset)
        strength = 1.7
        value, returned = prior(
            self.POSE_2D, model, PRIOR_PERSPECTIVE, strength, CAMERA
        )
        # independent evaluation of the pinhole projection and Eq.-style norm
        absolute = lifted + offset
        reproj = np.stack(
            [
                1000.0 * absolute[:, 0] / absolute[:, 2] + 500.0,
                1000.0 * absolute[:, 1] / absolute[:, 2] + 500.0,
            ],
            axis=1,
        )
        expected = strength * np.sum(
            (hand_normalize(self.POSE_2D) - hand_normalize(reproj)) ** 2
        )
        assert value == pytest.approx(expected, rel=1e-12)
        np.testing.assert_array_equal(returned, lifted)

    def test_orthographic_similarity_equivalent_lift_is_zero(self):
        # constant lift whose (X, Y) is a scaled/translated copy of the pose:
        # normalization removes the difference entirely
        xy = 2.5 * (self.POSE_2D - self.POSE_2D.mean(axis=0)) + (40.0, -70.0)
        lifted = np.concatenate([xy, np.full((3, 1), 123.0)], axis=1)
        model = constant_lifter(lifted)
        value, _ = prior(self.POSE_2D, model, PRIOR_ORTHOGRAPHIC, 1.0)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_orthographic_mirrored_hand_value(self):
        norm = hand_normalize(self.POSE_2D)
        mirrored = norm * (-1.0, 1.0)
        model = constant_lifter(
            np.concatenate([mirrored, np.zeros((3, 1))], axis=1)
        )
        strength = 0.8
        value, _ = prior(self.POSE_2D, model, PRIOR_ORTHOGRAPHIC, strength)
        # mirroring commutes with normalization, so the discrepancy is 2x
        # the x-components: sum of (2 * x)^2
        expected = strength * np.sum((2.0 * norm[:, 0]) ** 2)
        assert value == pytest.approx(expected, rel=1e-9)

    def test_priors_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = constant_lifter(rng.normal(0, 300, (3, 3)))
            pose = rng.uniform(100, 900, (3, 2))
            vp, _ = prior(pose, model, PRIOR_PERSPECTIVE, 1.0, CAMERA)
            vo, _ = prior(pose, model, PRIOR_ORTHOGRAPHIC, 1.0)
            assert vp >= 0.0 and vo >= 0.0

    def test_behind_camera_is_infinite(self):
        model = constant_lifter(np.zeros((3, 3)), mean_offset=(0, 0, -10.0))
        value, _ = prior(self.POSE_2D, model, PRIOR_PERSPECTIVE, 1.0, CAMERA)
        assert value == np.inf

    @pytest.mark.parametrize("mode, camera", [(PRIOR_PERSPECTIVE, CAMERA), (PRIOR_ORTHOGRAPHIC, None)])
    def test_empty_batch(self, mode, camera):
        model = constant_lifter(np.zeros((3, 3)))
        values = consistency_priors(np.zeros((0, 3, 2)), np.zeros((0, 3, 3)), model, mode, 1.0, camera)
        assert values.shape == (0,)

    @pytest.mark.parametrize("batch", [1, 0])
    def test_perspective_without_camera_is_refused(self, batch):
        model = constant_lifter(np.zeros((3, 3)), mean_offset=(0, 0, 4000.0))
        poses = np.repeat(self.POSE_2D[None], batch, axis=0)
        with pytest.raises(ValueError, match="requires a camera"):
            consistency_priors(poses, np.zeros((batch, 3, 3)), model, PRIOR_PERSPECTIVE, 1.0)

    @pytest.mark.parametrize(
        "mode, camera",
        [(PRIOR_PERSPECTIVE, CAMERA), (PRIOR_ORTHOGRAPHIC, None), (PRIOR_ORTHOGRAPHIC, CAMERA)],
        ids=["perspective-camera", "orthographic-no-camera", "orthographic-camera"],
    )
    def test_check_camera_accepts(self, mode, camera):
        assert check_camera(mode, camera) is None


class TestConfig:
    def test_defaults(self):
        config = InferenceConfig()
        assert config.prior_strength == 1.0
        assert config.bandwidth == 3.0
        assert config.num_candidates == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            InferenceConfig(prior_strength=-0.1)
        with pytest.raises(ValueError):
            InferenceConfig(bandwidth=0)
        with pytest.raises(ValueError, match="square"):  # 2**-538 squared is 0
            InferenceConfig(bandwidth=2.0**-538)
        InferenceConfig(bandwidth=2.0**-537)  # squared, the least positive float
        with pytest.raises(ValueError):
            InferenceConfig(num_candidates=0)
        with pytest.raises(ValueError):
            InferenceConfig(prior_mode="isometric")
        with pytest.raises(ValueError):
            InferenceConfig(generator="random")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["prior_strength", "bandwidth"])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            InferenceConfig(**{field: value})

    def test_pose_count_is_named_for_the_option(self):
        with pytest.raises(ValueError, match=r"^number of candidate poses must be in \[1, 8192\]$"):
            InferenceConfig(num_candidates=0)


GRID = render_gaussian((3.2, 4.6), 8)


def _extract(bandwidth=3.0, max_candidates=4):
    try:
        return find_modes_volume(GRID[None], bandwidth, max_candidates)
    finally:
        _window_masks.cache_clear()  # a wide window's catalog is large


def _priors_at(mode, strength):
    model = constant_lifter(np.random.default_rng(0).normal(0, 200, (3, 3)))
    pose = np.array([(400.0, 420.0), (520.0, 400.0), (470.0, 560.0)])
    return consistency_priors(pose[None], model.lift(pose)[None], model, mode, strength, CAMERA)


# Each rule and the functions that rely on it; InferenceConfig checks
# every rule once for the run it configures.
ENTRY_POINTS = {
    "bandwidth": {
        "config": lambda v: InferenceConfig(bandwidth=v),
        "find_modes_volume": lambda v: _extract(bandwidth=v),
        "find_modes_nms": lambda v: find_modes_nms(GRID, 4, radius=v),
    },
    "max_candidates": {  # InferenceConfig passes its pose count, checked below
        "find_modes_volume": lambda v: _extract(max_candidates=v),
        "find_modes_nms": lambda v: find_modes_nms(GRID, v, radius=3.0),
    },
    "pose_count": {
        "config": lambda v: InferenceConfig(num_candidates=v),
        # a one-pose product, which an unchecked n returns at once
        "n_best_poses": lambda v: n_best_poses([[1.0]], v),
    },
    "strength": {
        "config": lambda v: InferenceConfig(prior_strength=v),
        "consistency_priors": lambda v: _priors_at(PRIOR_ORTHOGRAPHIC, v),
    },
    "mode": {
        "config": lambda v: InferenceConfig(prior_mode=v),
        "consistency_priors": lambda v: _priors_at(v, 1.0),
    },
}
REFUSED = {
    "bandwidth": [0.0, -1.0, np.nan, np.inf, 1e300, 1e6, 2.0**-538, 64.0000001],
    "max_candidates": [0],
    "pose_count": [0, 8193, 10**12],
    "strength": [np.nan, np.inf, -1.0],
    "mode": ["bogus"],
}
ACCEPTED = {
    "bandwidth": [2.0**-537, 64.0],  # 2**-537 squared is the least positive float
    "max_candidates": [1],
    "pose_count": [1, 8192],
    "strength": [0.0],
    "mode": [PRIOR_PERSPECTIVE, PRIOR_ORTHOGRAPHIC],
}


def _cases(table):
    return [
        pytest.param(call, value, id=f"{rule}-{name}-{value!r}")
        for rule, values in table.items()
        for name, call in ENTRY_POINTS[rule].items()
        for value in values
    ]


@pytest.mark.parametrize("call, value", _cases(REFUSED))
def test_every_entry_point_refuses_what_its_rule_refuses(call, value):
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize("call, value", _cases(ACCEPTED))
def test_every_entry_point_accepts_the_bounds(call, value):
    call(value)


JOINTS = np.array([(8.0, 9.0), (22.0, 10.0), (16.0, 24.0)])


class TestInfer:
    def setup_method(self):
        self.volume = make_volume(JOINTS)
        rng = np.random.default_rng(4)
        self.model = constant_lifter(rng.normal(0, 200, (3, 3)))

    def test_zero_strength_is_greedy(self):
        config = InferenceConfig(prior_strength=0.0, num_candidates=4)
        result = infer(self.volume, self.model, config, CAMERA)
        assert result.chosen_index == 0
        per_joint = extract_candidates(self.volume, config)
        greedy = grid_to_image(
            np.array([c.positions[0] for c in per_joint]),
            self.volume.box,
            self.volume.grid_size,
        )
        np.testing.assert_array_equal(result.pose_2d, greedy)

    def test_energy_identity(self):
        config = InferenceConfig(num_candidates=4)
        result = infer(self.volume, self.model, config, CAMERA)
        for c in result.candidates:
            assert c.energy == pytest.approx(-c.score + c.prior, abs=1e-9)

    def test_winner_has_minimum_energy(self):
        config = InferenceConfig(num_candidates=4)
        result = infer(self.volume, self.model, config, CAMERA)
        energies = [c.energy for c in result.candidates]
        assert result.candidates[result.chosen_index].energy == min(energies)
        # ties resolve to the earliest candidate
        assert all(
            e > energies[result.chosen_index]
            for e in energies[: result.chosen_index]
        )

    def test_absolute_pose_offset(self):
        config = InferenceConfig(num_candidates=2)
        result = infer(self.volume, self.model, config, CAMERA)
        np.testing.assert_allclose(
            result.pose_3d_absolute - result.pose_3d,
            np.broadcast_to(self.model.mean_offset, (3, 3)),
        )

    def test_behind_camera_candidates_flagged_not_fatal(self):
        model = constant_lifter(
            np.zeros((3, 3)), mean_offset=(0.0, 0.0, -100.0)
        )
        config = InferenceConfig(num_candidates=3)
        result = infer(self.volume, model, config, CAMERA)
        assert all(c.failed for c in result.candidates)
        assert all(np.isinf(c.energy) for c in result.candidates)

    @pytest.mark.parametrize("strength", [0.0, 1.0])
    def test_no_normalizable_candidate(self, strength):
        # every joint's map is the same bump: each candidate pose has all
        # joints at one point, so no prior can be evaluated
        volume = make_volume([(10.0, 12.0)] * 3)
        config = InferenceConfig(prior_strength=strength, num_candidates=4)
        result = infer(volume, self.model, config, CAMERA)
        assert result.chosen_index == 0
        assert all(c.prior == (np.inf if strength else 0.0) for c in result.candidates)

    def test_orthographic_needs_no_camera(self):
        config = InferenceConfig(
            prior_mode=PRIOR_ORTHOGRAPHIC, num_candidates=2
        )
        result = infer(self.volume, self.model, config)
        assert np.isfinite(result.candidates[result.chosen_index].energy)

    def test_perspective_requires_camera(self, monkeypatch):
        def extract(*args):
            raise AssertionError("candidates extracted before the camera check")

        monkeypatch.setattr(inference, "extract_candidates", extract)
        with pytest.raises(ValueError, match="requires a camera"):
            infer(self.volume, self.model, InferenceConfig())

    def test_joint_count_mismatch(self):
        volume = make_volume(np.vstack([JOINTS, [(5.0, 5.0)]]))
        with pytest.raises(ValueError):
            infer(volume, self.model, InferenceConfig(), CAMERA)

    def test_zero_strength_scaling_invariance(self):
        config = InferenceConfig(prior_strength=0.0, num_candidates=4)
        scaled = HeatMapVolume(maps=3.7 * self.volume.maps, box=self.volume.box)
        a = infer(self.volume, self.model, config, CAMERA)
        b = infer(scaled, self.model, config, CAMERA)
        assert a.chosen_index == b.chosen_index
        # exactly symmetric bumps have two near-tied fixed points; float
        # scaling can flip which one ranks first, a sub-0.1-px artifact
        np.testing.assert_allclose(a.pose_2d, b.pose_2d, atol=0.5)

    def test_nms_generator(self):
        config = InferenceConfig(generator=GENERATOR_NMS, num_candidates=2)
        result = infer(self.volume, self.model, config, CAMERA)
        # the dominant bump is found near the true joints either way
        np.testing.assert_allclose(
            result.pose_2d,
            grid_to_image(JOINTS, self.volume.box, self.volume.grid_size),
            atol=2.0,
        )

    def test_candidate_scores_non_increasing(self):
        config = InferenceConfig(num_candidates=6)
        result = infer(self.volume, self.model, config, CAMERA)
        scores = [c.score for c in result.candidates]
        assert all(a >= b for a, b in zip(scores, scores[1:]))


def assert_matches_reference(volume, model, config, camera, rank=infer_reference.ranked_poses):
    """infer against tests/infer_reference.py: the same ranked candidate
    poses and scores, energies within a relative 1e-9, and the same winner
    wherever the two lowest energies are further apart than that."""
    got = infer(volume, model, config, camera=camera)
    values = [c.values for c in extract_candidates(volume, config)]
    listed = [(a.indices, a.score) for a in n_best_poses(values, config.num_candidates)]
    ranked, energies, chosen, pose_2d, pose_3d = infer_reference.infer(
        volume, model, config, camera, rank
    )
    assert listed == ranked
    assert [c.score for c in got.candidates] == [score for _, score in ranked]
    np.testing.assert_allclose([c.energy for c in got.candidates], energies, rtol=1e-9)
    lowest = np.sort(energies)[:2]
    # when every prior failed, all energies are +inf and tie
    if len(lowest) == 1 or np.isfinite(lowest[0]) and lowest[1] - lowest[0] > 1e-9 * abs(lowest[0]):
        assert got.chosen_index == chosen
        np.testing.assert_allclose(got.pose_2d, pose_2d, rtol=1e-12)
        np.testing.assert_allclose(
            got.pose_3d, pose_3d, rtol=1e-9, atol=1e-9 * np.abs(pose_3d).max()
        )


@st.composite
def small_frames(draw):
    """A volume of 3-5 joints on an 8-16 pixel grid, each joint one to four
    bumps on a 2^-20 lattice (so that both extraction engines add its window
    sums exactly), a random lifter of one or two small hidden layers whose
    lifts span a few hundred mm, and an inference config. Each list of
    choices starts with the one that exercises the most."""
    m, size = draw(st.integers(3, 5)), draw(st.integers(8, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = []
    for _ in range(m):
        k = rng.integers(1, 5)
        grid = sum(
            h * render_gaussian((x, y), size)
            for x, y, h in zip(*rng.uniform(0, size - 1, (2, k)), rng.choice([0.25, 0.5, 1.0], k))
        )
        maps.append(np.round(grid * 2**20) / 2**20)
    volume = HeatMapVolume(
        maps=np.stack(maps), box=BoundingBox(origin_x=300.0, origin_y=250.0, side=256.0)
    )
    input_mode = draw(st.sampled_from(INPUT_MODES))
    hidden = draw(st.sampled_from([(8,), (6, 5)]))
    input_dim = 2 * m + (3 if input_mode == INPUT_FULL else 0)
    weights, biases = init_parameters((input_dim,) + hidden + (3 * m,), rng)
    weights[-1] *= 300.0
    model = LifterModel(
        num_joints=m, weights=tuple(weights), biases=tuple(biases),
        # at 100 mm many lifts put a joint behind the camera
        mean_offset=np.array([0.0, 0.0, draw(st.sampled_from([100.0, 4000.0]))]),
        input_mode=input_mode,
    )
    config = InferenceConfig(
        prior_strength=draw(st.sampled_from([1.0, 2.5, 0.0])),
        bandwidth=draw(st.sampled_from([1.5, 1.0, 2.0, 3.0])),
        num_candidates=draw(st.sampled_from([64, 6, 1])),
        prior_mode=draw(st.sampled_from(PRIOR_MODES)),
    )
    return volume, model, config


@pytest.fixture(scope="module")
def criterion_9():
    """Criterion 9's camera, its twelve frames (seed 7) and its lifter: 200
    pairs from seed 8, 5 epochs."""
    camera = default_camera()
    frames = generate_frames(
        default_skeleton(), camera, 12, CorruptionSpec(noise_floor=0.02), seed=7
    )
    rng = np.random.default_rng(8)
    poses_3d = [
        place_subject(sample_pose(default_skeleton(), rng), camera, rng) for _ in range(200)
    ]
    poses_2d = [project_perspective(pose, camera) for pose in poses_3d]
    model, _ = train_lifter(poses_2d, poses_3d, LifterTrainConfig(epochs=5))
    return camera, frames, model


class TestMatchesReference:
    """The batched frame pipeline -- the gather, the batched lift, the
    batched prior and the argmin -- against the per-candidate loop of
    tests/infer_reference.py."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(frame=small_frames())
    def test_small_volumes(self, frame):
        volume, model, config = frame
        assert_matches_reference(volume, model, config, CAMERA)

    def test_criterion_9_frames(self, criterion_9):
        # a product of about 25**17 poses: the reference ranks its own
        # candidates with n_best_poses, which criterion 1 holds to brute force
        camera, frames, model = criterion_9
        config = InferenceConfig(num_candidates=128)

        def rank(values, n):
            return [(a.indices, a.score) for a in n_best_poses(values, n)]

        for frame in frames:
            assert_matches_reference(frame.volume, model, config, camera, rank)

    def test_float32_volume_matches_its_float64_copy(self, criterion_9):
        """Volumes hold float32, as volume files do, and extraction widens
        them to float64 before any sum: both extraction engines and infer
        give a float32 volume's bits for its float64 copy."""
        camera, frames, model = criterion_9
        corruption = CorruptionSpec(distractor_prob=0.4, strength=1.1)
        distractor = generate_frames(default_skeleton(), camera, 1, corruption, seed=3)
        config = InferenceConfig(num_candidates=128)
        for frame in list(frames[:4]) + list(distractor):
            narrow = frame.volume
            assert narrow.maps.dtype == np.float32
            wide = HeatMapVolume(maps=narrow.maps.astype(np.float64), box=narrow.box)
            pairs = list(
                zip(find_modes_volume(narrow.maps, 3.0, 128), find_modes_volume(wide.maps, 3.0, 128))
            )
            for a, b in zip(narrow.maps, wide.maps):
                pairs.append((find_modes_nms(a, 64, 3.0), find_modes_nms(b, 64, 3.0)))
            for a, b in pairs:
                assert a.positions.tobytes() == b.positions.tobytes()
                assert a.values.tobytes() == b.values.tobytes()
            a, b = infer(narrow, model, config, camera), infer(wide, model, config, camera)
            assert (a.chosen_index, a.candidates) == (b.chosen_index, b.candidates)
            for field in ("pose_2d", "pose_3d", "pose_3d_absolute"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
