"""Lifter network tests: forward pass, gradients, training, serialization.

Gradients are checked against central finite differences; training is
checked by memorization and determinism contracts, not by inspecting the
optimizer state.
"""

import hashlib
import struct

import numpy as np
import pytest

import lifter_reference
from poselift import lifter
from poselift.fileio import DataFormatError
from poselift.geometry import DegeneratePoseError
from poselift.lifter import (
    INPUT_FULL,
    INPUT_NORMALIZED,
    POSITION_INPUT_SCALE,
    LifterModel,
    LifterTrainConfig,
    TrainingDivergedError,
    init_parameters,
    load_model,
    loss_and_gradients,
    save_model,
    train_lifter,
)


def make_model(rng, num_joints=3, hidden=(8, 8), input_mode=INPUT_FULL):
    input_dim = 2 * num_joints + (3 if input_mode == INPUT_FULL else 0)
    sizes = (input_dim,) + hidden + (3 * num_joints,)
    weights, biases = init_parameters(sizes, rng)
    # nonzero biases so rectifier patterns are nontrivial
    biases = [rng.normal(0, 0.1, size=b.shape) for b in biases]
    return LifterModel(
        num_joints=num_joints,
        weights=tuple(weights),
        biases=tuple(biases),
        mean_offset=rng.normal(0, 100, size=3),
        input_mode=input_mode,
    )


def random_pose2d(rng, m=3):
    return rng.uniform(0, 500, size=(m, 2))


class TestForward:
    def test_one_joint_model_rejected(self):
        # a pose of one joint has no scale to normalize by
        with pytest.raises(ValueError, match="at least 2 joints"):
            make_model(np.random.default_rng(0), num_joints=1)

    def test_unknown_input_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown input mode 'bogus'"):
            make_model(np.random.default_rng(0), input_mode="bogus")

    def test_zero_weight_network_outputs_bias(self):
        m = 3
        w = (np.zeros((2 * m + 3, 4)), np.zeros((4, 3 * m)))
        out_bias = np.arange(3 * m, dtype=float)
        model = LifterModel(
            num_joints=m,
            weights=w,
            biases=(np.zeros(4), out_bias),
            mean_offset=np.zeros(3),
        )
        pose = random_pose2d(np.random.default_rng(0))
        np.testing.assert_array_equal(
            model.lift(pose), out_bias.reshape(m, 3)
        )

    def test_hand_evaluated_single_hidden_layer(self):
        # zero input: output = W_out.T-free form  relu(b_hidden) @ W_out + b_out
        m = 2
        rng = np.random.default_rng(1)
        w_h = rng.normal(size=(2 * m + 3, 5))
        b_h = rng.normal(size=5)
        w_o = rng.normal(size=(5, 3 * m))
        b_o = rng.normal(size=3 * m)
        model = LifterModel(
            num_joints=m,
            weights=(w_h, w_o),
            biases=(b_h, b_o),
            mean_offset=np.zeros(3),
        )
        x = np.zeros((1, 2 * m + 3))
        expected = np.maximum(b_h, 0.0) @ w_o + b_o
        np.testing.assert_allclose(model.lift_batch(x)[0].ravel(), expected, atol=1e-12)

    def test_input_layout_and_scaling(self):
        model = make_model(np.random.default_rng(2), num_joints=2)
        pose = np.array([(100.0, 40.0), (140.0, 40.0)])
        x = model.build_input(pose)
        # normalized joints: mean (120, 40), sigma 20
        np.testing.assert_allclose(x[:4], [-1, 0, 1, 0])
        np.testing.assert_allclose(
            x[4:], np.array([120.0, 40.0, 20.0]) / POSITION_INPUT_SCALE
        )

    def test_normalized_mode_drops_extras(self):
        model = make_model(
            np.random.default_rng(3), num_joints=2, input_mode=INPUT_NORMALIZED
        )
        x = model.build_input(np.array([(100.0, 40.0), (140.0, 40.0)]))
        assert x.shape == (4,)

    def test_joint_count_mismatch(self):
        model = make_model(np.random.default_rng(4), num_joints=3)
        pose = np.zeros((5, 2)) + np.arange(5)[:, None]
        with pytest.raises(ValueError):
            model.lift(pose)
        with pytest.raises(ValueError, match=r"\(4, 5, 2\), model expects \(K, 3, 2\)"):
            model.build_inputs(np.stack([pose] * 4))

    def test_finite_output(self):
        rng = np.random.default_rng(5)
        model = make_model(rng)
        out = model.lift(random_pose2d(rng))
        assert out.shape == (3, 3)
        assert np.all(np.isfinite(out))

    def test_layer_chain_validation(self):
        with pytest.raises(ValueError):
            LifterModel(
                num_joints=2,
                weights=(np.zeros((7, 4)), np.zeros((5, 6))),
                biases=(np.zeros(4), np.zeros(6)),
                mean_offset=np.zeros(3),
            )


    def test_batched_inputs_match_single_rows(self):
        rng = np.random.default_rng(4)
        for mode in (INPUT_FULL, INPUT_NORMALIZED):
            model = make_model(rng, input_mode=mode)
            poses = np.stack([random_pose2d(rng) for _ in range(6)])
            poses[2] = 7.0  # all joints coincide
            inputs, ok = model.build_inputs(poses)
            np.testing.assert_array_equal(ok, np.arange(6) != 2)
            np.testing.assert_array_equal(inputs[2], 0.0)
            for k in (0, 1, 3, 4, 5):
                np.testing.assert_array_equal(inputs[k], model.build_input(poses[k]))


class TestGradients:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(9)
        sizes = (9, 8, 8, 9)
        weights, biases = init_parameters(sizes, rng)
        biases = [rng.normal(0, 0.3, size=b.shape) for b in biases]
        x = rng.normal(size=(5, sizes[0]))
        y = rng.normal(size=(5, sizes[-1]))
        _, w_grads, b_grads = loss_and_gradients(weights, biases, x, y)
        eps = 1e-4

        def loss_at(ws, bs):
            return loss_and_gradients(ws, bs, x, y)[0]

        def relu_pattern():
            pattern = []
            h = x
            for w, b in zip(weights[:-1], biases[:-1]):
                pre = h @ w + b
                pattern.append(pre > 0)
                h = np.maximum(pre, 0.0)
            return pattern

        checked = 0
        for layer in range(len(weights)):
            for arr, grads in ((weights, w_grads), (biases, b_grads)):
                flat = arr[layer].ravel()
                g = grads[layer].ravel()
                for idx in rng.choice(flat.size, size=min(20, flat.size), replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    up = loss_at(weights, biases)
                    pattern_up = relu_pattern()
                    flat[idx] = orig - eps
                    down = loss_at(weights, biases)
                    pattern_down = relu_pattern()
                    flat[idx] = orig
                    if any(
                        not np.array_equal(a, b)
                        for a, b in zip(pattern_up, pattern_down)
                    ):
                        continue  # rectifier kink: derivative undefined
                    numeric = (up - down) / (2 * eps)
                    denom = max(abs(numeric), abs(g[idx]), 1e-8)
                    assert abs(numeric - g[idx]) / denom < 1e-4
                    checked += 1
        assert checked > 50

    def test_loss_is_mse_over_all_elements(self):
        weights = [np.zeros((2, 3))]
        biases = [np.array([1.0, 2.0, 3.0])]
        x = np.zeros((4, 2))
        y = np.zeros((4, 3))
        loss, _, _ = loss_and_gradients(weights, biases, x, y)
        assert loss == pytest.approx((1 + 4 + 9) / 3.0)


def small_dataset(rng, n=6, m=4):
    poses_2d = [rng.uniform(0, 400, size=(m, 2)) for _ in range(n)]
    poses_3d = [rng.normal(0, 300, size=(m, 3)) + (0, 0, 4000) for _ in range(n)]
    return poses_2d, poses_3d


class TestTraining:
    def test_single_pair_memorization(self, monkeypatch):
        rng = np.random.default_rng(10)
        pose_2d = rng.uniform(0, 400, size=(4, 2))
        pose_3d = rng.normal(0, 300, size=(4, 3)) + (0, 0, 4000)
        monkeypatch.setattr(lifter, "NOISE_STD", 0.0)
        config = LifterTrainConfig(epochs=3000, hidden_sizes=(32, 32), seed=0)
        model, final_loss = train_lifter([pose_2d], [pose_3d], config)
        centered = pose_3d - pose_3d.mean(axis=0)
        # memorized: prediction error far below target magnitude (~300 mm)
        assert np.max(np.abs(model.lift(pose_2d) - centered)) < 0.5
        np.testing.assert_allclose(model.mean_offset, pose_3d.mean(axis=0))

    def test_mean_offset_is_centroid_mean(self):
        rng = np.random.default_rng(11)
        poses_2d, poses_3d = small_dataset(rng)
        config = LifterTrainConfig(epochs=1, hidden_sizes=(8,), seed=1)
        model, _ = train_lifter(poses_2d, poses_3d, config)
        expected = np.mean([p.mean(axis=0) for p in poses_3d], axis=0)
        np.testing.assert_allclose(model.mean_offset, expected)

    def test_seed_determinism_bit_identical(self):
        rng = np.random.default_rng(12)
        poses_2d, poses_3d = small_dataset(rng)
        config = LifterTrainConfig(epochs=3, hidden_sizes=(16,), seed=7)
        a, loss_a = train_lifter(poses_2d, poses_3d, config)
        b, loss_b = train_lifter(poses_2d, poses_3d, config)
        assert loss_a == loss_b
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            np.testing.assert_array_equal(ba, bb)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(13)
        poses_2d, poses_3d = small_dataset(rng)
        a, _ = train_lifter(
            poses_2d, poses_3d, LifterTrainConfig(epochs=1, hidden_sizes=(8,), seed=0)
        )
        b, _ = train_lifter(
            poses_2d, poses_3d, LifterTrainConfig(epochs=1, hidden_sizes=(8,), seed=1)
        )
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_returned_model_outputs_millimeters(self):
        # the scaled-target reparameterization must be folded away: a barely
        # trained model's outputs sit at the scale of the centered targets
        rng = np.random.default_rng(14)
        poses_2d, poses_3d = small_dataset(rng, n=30)
        config = LifterTrainConfig(epochs=50, hidden_sizes=(32,), seed=2)
        model, final_loss = train_lifter(poses_2d, poses_3d, config)
        spread = np.std([p - p.mean(axis=0) for p in poses_3d])
        preds = np.std([model.lift(p) for p in poses_2d])
        assert preds > 0.1 * spread  # mm scale, not mm/256 scale
        assert final_loss < 3 * spread**2  # loss reported in mm^2

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            train_lifter([], [], LifterTrainConfig())

    def test_mismatched_lengths(self):
        rng = np.random.default_rng(15)
        poses_2d, poses_3d = small_dataset(rng)
        with pytest.raises(ValueError):
            train_lifter(poses_2d, poses_3d[:-1], LifterTrainConfig())

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_raises(self):
        # finite poses whose scale overflows the squared error
        rng = np.random.default_rng(16)
        poses_2d, poses_3d = small_dataset(rng)
        poses_2d = [p * 1e100 for p in poses_2d]
        poses_3d = [p * 1e100 for p in poses_3d]
        config = LifterTrainConfig(epochs=50, hidden_sizes=(16,), seed=0)
        with pytest.raises(TrainingDivergedError, match="non-finite loss"):
            train_lifter(poses_2d, poses_3d, config)

    @pytest.mark.parametrize(
        "field, value",
        [("epochs", 0), ("epochs", -3),
         ("hidden_sizes", (0,)), ("hidden_sizes", (16, 0)), ("hidden_sizes", (8, -2))],
    )
    def test_config_rejects_sizes_below_one(self, field, value):
        with pytest.raises(ValueError, match=field):
            LifterTrainConfig(**{field: value})

    @pytest.mark.parametrize(
        "sizes, accepted",
        [((), True), ((8192,), True), ((4096, 4096), True), ((1,) * 8192, True),
         ((8193,), False), ((4096, 4097), False), ((1,) * 8193, False),
         ((10**11,), False)],
        ids=["none", "one-layer", "two-layers", "most-layers",
             "one-layer-over", "two-layers-over", "layers-over", "huge"],
    )
    def test_config_bounds_the_sum_of_hidden_widths(self, sizes, accepted):
        """The widths sum to at most MAX_HIDDEN_UNITS, checked without
        training."""
        assert lifter.MAX_HIDDEN_UNITS == 8192
        if accepted:
            assert LifterTrainConfig(hidden_sizes=sizes).hidden_sizes == sizes
        else:
            with pytest.raises(ValueError, match=r"the sum of hidden_sizes must be in \[1, 8192\]"):
                LifterTrainConfig(hidden_sizes=sizes)

    def test_config_rejects_unknown_input_mode(self):
        # the modes are case-sensitive: "Full" once trained the 34-wide
        # normalized layout and was saved as normalized
        with pytest.raises(ValueError, match="unknown input mode 'Full'"):
            LifterTrainConfig(input_mode="Full")

    def test_normalized_input_mode(self):
        rng = np.random.default_rng(17)
        poses_2d, poses_3d = small_dataset(rng)
        config = LifterTrainConfig(
            epochs=2, hidden_sizes=(8,), input_mode=INPUT_NORMALIZED, seed=0
        )
        model, _ = train_lifter(poses_2d, poses_3d, config)
        assert model.input_mode == INPUT_NORMALIZED
        assert model.weights[0].shape[0] == 2 * 4


class TestReferenceTrainer:
    """The batched, in-place trainer against the per-pose, allocating
    reference in tests/lifter_reference.py, bit for bit."""

    # each case patches the schedule constants that both trainers read
    @pytest.mark.parametrize(
        "overrides, constants",
        [
            (dict(), dict()),
            (dict(), dict(NOISE_STD=0.0)),
            (dict(input_mode=INPUT_NORMALIZED), dict()),
            (dict(input_mode=INPUT_NORMALIZED, hidden_sizes=(8, 4, 6)), dict(NOISE_STD=0.0)),
            (dict(), dict(BATCH_SIZE=7)),  # 7 does not divide 30
            (dict(), dict(BATCH_SIZE=64)),  # one batch holds every pair
        ],
        ids=["full", "full-no-noise", "normalized", "normalized-no-noise-3-hidden",
             "ragged-batches", "single-batch"],
    )
    def test_bit_identical_to_reference(self, monkeypatch, overrides, constants):
        for name, value in {"BATCH_SIZE": 8, **constants}.items():
            monkeypatch.setattr(lifter, name, value)
        rng = np.random.default_rng(40)
        poses_2d, poses_3d = small_dataset(rng, n=30, m=5)
        settings = dict(epochs=4, hidden_sizes=(16, 12), seed=9)
        config = LifterTrainConfig(**{**settings, **overrides})
        model, loss = train_lifter(poses_2d, poses_3d, config)
        weights, biases, mean_offset, ref_loss = lifter_reference.train_lifter(
            poses_2d, poses_3d, config
        )
        assert loss == ref_loss
        np.testing.assert_array_equal(model.mean_offset, mean_offset)
        assert len(model.weights) == len(weights)
        for got, want in zip(model.weights + model.biases, weights + biases):
            np.testing.assert_array_equal(got, want)

    def test_loss_and_gradients_match_reference(self):
        rng = np.random.default_rng(41)
        weights, biases = init_parameters((11, 16, 8, 12), rng)
        biases = [rng.normal(0, 0.1, size=b.shape) for b in biases]
        x = rng.normal(size=(9, 11))
        y = rng.normal(size=(9, 12))
        got = loss_and_gradients(weights, biases, x, y)
        want = lifter_reference.loss_and_gradients(weights, biases, x, y)
        assert got[0] == want[0]
        for a, b in zip(got[1] + got[2], want[1] + want[2]):
            np.testing.assert_array_equal(a, b)

    def test_loss_and_gradients_leave_arguments_unmodified(self):
        rng = np.random.default_rng(42)
        weights, biases = init_parameters((11, 16, 8, 12), rng)
        biases = [rng.normal(0, 0.1, size=b.shape) for b in biases]
        x = rng.normal(size=(9, 11))
        y = rng.normal(size=(9, 12))
        before = [a.copy() for a in (*weights, *biases, x, y)]
        loss_and_gradients(weights, biases, x, y)
        for a, b in zip((*weights, *biases, x, y), before):
            np.testing.assert_array_equal(a, b)

    def test_non_finite_pose_is_value_error(self):
        rng = np.random.default_rng(43)
        poses_2d, poses_3d = small_dataset(rng)
        poses_2d[2] = poses_2d[2].copy()
        poses_2d[2][1, 0] = np.nan
        with pytest.raises(ValueError, match="pose 2"):
            train_lifter(poses_2d, poses_3d, LifterTrainConfig(epochs=1))
        poses_2d, poses_3d = small_dataset(rng)
        poses_3d[4] = poses_3d[4].copy()
        poses_3d[4][0, 2] = np.inf
        with pytest.raises(ValueError, match="pose 4"):
            train_lifter(poses_2d, poses_3d, LifterTrainConfig(epochs=1))

    @pytest.mark.parametrize("bad", ["ragged", "three-columns", "joint-count"])
    def test_wrongly_shaped_poses_are_value_errors(self, bad):
        rng = np.random.default_rng(44)
        poses_2d, poses_3d = small_dataset(rng)
        if bad == "ragged":
            poses_2d[1] = poses_2d[1][:3]
        elif bad == "three-columns":
            poses_2d = [np.c_[p, p[:, :1]] for p in poses_2d]
        else:
            poses_3d = [p[:3] for p in poses_3d]
        with pytest.raises(ValueError):
            train_lifter(poses_2d, poses_3d, LifterTrainConfig(epochs=1))

    def test_coinciding_joints_are_degenerate(self):
        rng = np.random.default_rng(45)
        poses_2d, poses_3d = small_dataset(rng)
        poses_2d[3] = np.full((4, 2), 100.0)
        with pytest.raises(DegeneratePoseError, match="pose 3"):
            train_lifter(poses_2d, poses_3d, LifterTrainConfig(epochs=1))


def fixed_model(input_mode, hidden):
    """A 2-joint model of dyadic values, so every platform saves the same
    bytes."""
    sizes = (2 * 2 + 3 * (input_mode == INPUT_FULL),) + hidden + (6,)
    weights, biases = [], []
    for layer, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = np.arange(fan_in * fan_out).reshape(fan_in, fan_out)
        weights.append((w - 7.0) / 8 + layer)
        biases.append(np.arange(fan_out) / -16.0)
    return LifterModel(
        2, tuple(weights), tuple(biases), np.array([12.5, -0.75, 3000.0]), input_mode
    )


class TestSerialization:
    # SHA-256 of each container: new digests mean a new model format
    @pytest.mark.parametrize(
        "input_mode, hidden, digest",
        [
            (INPUT_FULL, (5,),
             "661ee16d2997bb955f8a3f47b2996446a65743d426cb846d31149544b0debd44"),
            (INPUT_FULL, (5, 4),
             "f46031858f573018ec8c9180693a383a1d39e35ffb9f7982663c81e40d824c3e"),
            (INPUT_NORMALIZED, (5,),
             "aa4223b883dfcc57effcfda6d84d9cda4161a8dc3d193075f7950639979695bf"),
            (INPUT_NORMALIZED, (5, 4),
             "09481effe9a78e846eea08a6b6ba67bf487b6631cb52339f62d7586034c981a2"),
        ],
        ids=["full-2-layers", "full-3-layers", "normalized-2-layers",
             "normalized-3-layers"],
    )
    def test_container_bytes_are_pinned(self, tmp_path, input_mode, hidden, digest):
        model = fixed_model(input_mode, hidden)
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        loaded = load_model(path)
        for a, b in zip(
            (loaded.mean_offset, *loaded.weights, *loaded.biases),
            (model.mean_offset, *model.weights, *model.biases),
        ):
            np.testing.assert_array_equal(a, b)

    def trained(self, tmp_path, **kw):
        rng = np.random.default_rng(18)
        poses_2d, poses_3d = small_dataset(rng)
        config = LifterTrainConfig(epochs=2, hidden_sizes=(8, 8), seed=3, **kw)
        model, _ = train_lifter(poses_2d, poses_3d, config)
        path = tmp_path / "model.bin"
        save_model(model, path)
        return model, path

    def test_round_trip_bit_identical_outputs(self, tmp_path):
        model, path = self.trained(tmp_path)
        loaded = load_model(path)
        rng = np.random.default_rng(19)
        for _ in range(5):
            pose = random_pose2d(rng, m=4)
            np.testing.assert_array_equal(loaded.lift(pose), model.lift(pose))
        np.testing.assert_array_equal(loaded.mean_offset, model.mean_offset)
        assert loaded.input_mode == model.input_mode

    def test_round_trip_normalized_mode(self, tmp_path):
        model, path = self.trained(tmp_path, input_mode=INPUT_NORMALIZED)
        assert load_model(path).input_mode == INPUT_NORMALIZED

    def test_truncated_file(self, tmp_path):
        _, path = self.trained(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_corrupted_byte(self, tmp_path):
        _, path = self.trained(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        import hashlib

        payload = b"XXXX" + b"\x00" * 64
        path.write_bytes(payload + hashlib.sha256(payload).digest())
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        _, path = self.trained(tmp_path)
        blob = path.read_bytes()
        import hashlib

        payload = blob[:-32] + b"\x00" * 8  # extra bytes, checksum fixed up
        path.write_bytes(payload + hashlib.sha256(payload).digest())
        with pytest.raises(DataFormatError):
            load_model(path)

    # header fields after the magic: version, num_joints, input mode, n_sizes
    @pytest.mark.parametrize(
        "payload",
        [
            b"PLFT",
            b"PLFT" + struct.pack("<IIBI", 1, 4, 1, 1) + struct.pack("<I", 11) + bytes(24),
            b"PLFT" + struct.pack("<IIBI", 1, 4, 1, 10**6),
            # 4 joints in full mode take 11 inputs, not 5
            b"PLFT" + struct.pack("<IIBI", 1, 4, 1, 2) + struct.pack("<II", 5, 12)
            + bytes(24 + 8 * (5 * 12 + 12)),
        ],
        ids=["magic-only", "one-layer-size", "huge-size-count", "sizes-rejected"],
    )
    def test_malformed_container_with_valid_checksum(self, tmp_path, payload):
        path = tmp_path / "model.bin"
        path.write_bytes(payload + hashlib.sha256(payload).digest())
        with pytest.raises(DataFormatError):
            load_model(path)

    @pytest.mark.parametrize("where", ["mean-offset", "last-bias"])
    def test_non_finite_parameters_with_valid_checksum(self, tmp_path, where):
        _, path = self.trained(tmp_path)
        payload = path.read_bytes()[:-32]
        n_sizes = struct.unpack_from("<IIBI", payload, 4)[3]
        at = 4 + struct.calcsize("<IIBI") + 4 * n_sizes
        if where == "last-bias":
            at = len(payload) - 8
        payload = payload[:at] + np.array([np.nan], "<f8").tobytes() + payload[at + 8 :]
        path.write_bytes(payload + hashlib.sha256(payload).digest())
        with pytest.raises(DataFormatError, match=f"{path}: non-finite"):
            load_model(path)

    def test_wrong_joint_count_at_lift(self, tmp_path):
        model, path = self.trained(tmp_path)
        loaded = load_model(path)
        with pytest.raises(ValueError):
            loaded.lift(np.arange(12, dtype=float).reshape(6, 2))
