"""Feed-forward 2D-to-3D pose lifter.

A fully-connected network maps a normalized 2D pose (optionally with its
mean position and scale appended) to a zero-mean 3D pose in millimeters.
Training uses mean-squared error with gradient descent plus classical
momentum and Gaussian noise augmentation on the normalized joints.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .fileio import DataFormatError, atomic_write_bytes
from .geometry import DegeneratePoseError, as_poses, check_count, normalize_poses

MODEL_MAGIC = b"PLFT"
MODEL_VERSION = 1

# fixed preconditioner for the pixel-scale mean/scale inputs so they sit in
# the same numeric range as the normalized joints during optimization
POSITION_INPUT_SCALE = 256.0

# training runs in a scaled target space (millimeters / TARGET_SCALE) so the
# MSE gradients match the O(1) inputs at LEARNING_RATE; the scale is folded
# back into the last layer before the model is returned
TARGET_SCALE = 256.0

# input layouts: normalized joints only, or joints plus mean and scale
INPUT_FULL = "full"
INPUT_NORMALIZED = "normalized"
INPUT_MODES = (INPUT_FULL, INPUT_NORMALIZED)

# the one training schedule; no workload, criterion or pipeline path varies it
LEARNING_RATE = 1e-3
MOMENTUM = 0.9
NOISE_STD = 0.1  # Gaussian noise on the normalized 2D joints
BATCH_SIZE = 64

# The hidden widths sum to at most this, which bounds the hidden-to-hidden
# weights by 8192^2 / 4, about 16.8 M (128 MiB a copy), and the layer count
# by 8,192; one width of 1e11 would ask for 27 TiB.
MAX_HIDDEN_UNITS = 8192


def check_hidden_sizes(sizes) -> None:
    """ValueError unless every hidden width is an integer >= 1 and the
    widths sum to at most MAX_HIDDEN_UNITS; () is no hidden layer."""
    for width in sizes:
        check_count(width, "each of hidden_sizes")
    if sizes:
        check_count(sum(sizes), "the sum of hidden_sizes", high=MAX_HIDDEN_UNITS)


def check_input_mode(mode) -> None:
    """ValueError unless mode is one of INPUT_MODES."""
    if mode not in INPUT_MODES:
        raise ValueError(f"unknown input mode {mode!r}")


@dataclass(frozen=True)
class LifterModel:
    """MLP weights plus the mean 3D subject position learned from training."""

    num_joints: int
    weights: tuple[np.ndarray, ...]  # per layer, (fan_in, fan_out)
    biases: tuple[np.ndarray, ...]
    mean_offset: np.ndarray  # (3,), millimeters
    input_mode: str = INPUT_FULL

    def __post_init__(self):
        check_input_mode(self.input_mode)
        if self.num_joints < 2:  # a pose of one joint cannot be normalized
            raise ValueError("a lifter needs at least 2 joints")
        dims = self.layer_sizes
        if dims[0] != self.input_dim or dims[-1] != 3 * self.num_joints:
            raise ValueError("layer sizes do not match the joint count")
        for w, b in zip(self.weights, self.biases):
            if w.shape[1] != b.shape[0]:
                raise ValueError("bias length does not match layer width")
        for a, b in zip(self.weights[:-1], self.weights[1:]):
            if a.shape[1] != b.shape[0]:
                raise ValueError("consecutive layer dimensions do not chain")

    @property
    def input_dim(self) -> int:
        base = 2 * self.num_joints
        return base + 3 if self.input_mode == INPUT_FULL else base

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(
            w.shape[1] for w in self.weights
        )

    def build_input(self, pose) -> np.ndarray:
        inputs, ok = self.build_inputs(as_poses(pose, 2)[None])
        if not ok[0]:
            raise DegeneratePoseError("all joints coincide; scale is zero")
        return inputs[0]

    def build_inputs(self, poses) -> tuple[np.ndarray, np.ndarray]:
        """Network inputs (K, input_dim) for a (K, num_joints, 2) stack of
        poses, and a (K,) mask of poses that could be normalized; the rows
        of degenerate poses are zero."""
        poses = np.asarray(poses, dtype=np.float64)
        if poses.ndim != 3 or poses.shape[1:] != (self.num_joints, 2):
            raise ValueError(
                f"poses have shape {poses.shape}, "
                f"model expects (K, {self.num_joints}, 2)"
            )
        return _input_rows(poses, self.input_mode)

    def lift(self, pose) -> np.ndarray:
        """Zero-mean 3D pose (M, 3) in millimeters for one 2D pose."""
        return self.lift_batch(self.build_input(pose)[None])[0]

    def lift_batch(self, inputs: np.ndarray) -> np.ndarray:
        """(B, input_dim) -> (B, M, 3) zero-mean poses."""
        out = _forward_cached(self.weights, self.biases, inputs)[0]
        return out.reshape(-1, self.num_joints, 3)


@dataclass(frozen=True)
class LifterTrainConfig:
    epochs: int = 200
    hidden_sizes: tuple[int, ...] = (256, 256)
    input_mode: str = INPUT_FULL
    seed: int = 0

    def __post_init__(self):
        check_count(self.epochs, "epochs")
        check_hidden_sizes(self.hidden_sizes)
        check_input_mode(self.input_mode)


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


def init_parameters(layer_sizes, rng):
    """Symmetric uniform init scaled by sqrt(6 / (fan_in + fan_out))."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _input_rows(poses, input_mode) -> tuple[np.ndarray, np.ndarray]:
    """Network input rows (K, input_dim) of a (K, M, 2) stack of poses, and
    the (K,) mask of poses that could be normalized. A row holds the
    normalized joints flattened, then in the full layout the mean and scale
    divided by POSITION_INPUT_SCALE; the rows of degenerate poses are zero."""
    joints, means, scales = normalize_poses(poses)
    ok = scales > 0
    rows = joints.reshape(len(joints), -1)
    if input_mode == INPUT_FULL:
        extra = np.column_stack([means, scales]) / POSITION_INPUT_SCALE
        rows = np.concatenate([rows, extra], axis=1)
    rows[~ok] = 0.0
    return rows, ok


def _forward_cached(weights, biases, inputs):
    activations = [inputs]
    h = inputs
    for w, b in zip(weights[:-1], biases[:-1]):
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
        activations.append(h)
    out = h @ weights[-1]
    out += biases[-1]
    return out, activations


def loss_and_gradients(weights, biases, inputs, targets):
    """MSE over all batch elements and output dims, with analytic gradients.

    Returns (loss, weight_grads, bias_grads). Gradients are exact
    backpropagation through the rectifier layers. The arguments are never
    written to; the in-place operations act on this call's own arrays.
    """
    out, activations = _forward_cached(weights, biases, inputs)
    diff = out
    diff -= targets
    loss = float(np.mean(diff**2))
    delta = diff
    delta *= 2.0
    delta /= diff.size
    w_grads = [None] * len(weights)
    b_grads = [None] * len(biases)
    for layer in range(len(weights) - 1, -1, -1):
        w_grads[layer] = activations[layer].T @ delta
        b_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ weights[layer].T
            delta *= activations[layer] > 0
    return loss, w_grads, b_grads


def _prepare_training_data(poses_2d, poses_3d, input_mode):
    """Network inputs (n, input_dim), centered 3D targets (n, 3M) divided by
    TARGET_SCALE, and the removed 3D centroids (n, 3), in one batched pass.

    Raises ValueError for wrongly shaped or non-finite poses and
    DegeneratePoseError for a 2D pose whose joints coincide, as a pose of
    one joint does.
    """
    p2 = as_poses(poses_2d, 2, ndim=3)
    p3 = as_poses(poses_3d, 3, ndim=3)
    if p3.shape[1] != p2.shape[1]:
        raise ValueError(
            f"2D poses have {p2.shape[1]} joints, 3D poses {p3.shape[1]}"
        )
    inputs, ok = _input_rows(p2, input_mode)
    if not ok.all():
        k = int(np.argmin(ok))
        raise DegeneratePoseError(f"pose {k}: all joints coincide; scale is zero")
    centroids = p3.mean(axis=1)
    targets = ((p3 - centroids[:, None, :]) / TARGET_SCALE).reshape(len(p3), -1)
    return inputs, targets, centroids


def train_lifter(
    poses_2d, poses_3d, config: LifterTrainConfig
) -> tuple[LifterModel, float]:
    """Fit the lifter on paired 2D/3D poses; deterministic per seed.

    3D targets are centered per pose; the mean of the removed centroids
    becomes the model's mean_offset. Per batch, fresh Gaussian noise is
    added to the normalized 2D joints (never to the mean or scale).
    Optimization runs on targets divided by TARGET_SCALE; the scale is
    folded back into the last layer, so the returned model emits
    millimeters. Returns (model, final_epoch_mean_loss) with the loss
    expressed in squared millimeters.
    """
    if len(poses_2d) == 0 or len(poses_2d) != len(poses_3d):
        raise ValueError("need a non-empty, aligned 2D/3D pose dataset")
    inputs, targets, centroids = _prepare_training_data(
        poses_2d, poses_3d, config.input_mode
    )
    num_joints = targets.shape[1] // 3
    noise_cols = 2 * num_joints
    rng = np.random.default_rng(config.seed)
    layer_sizes = (inputs.shape[1],) + tuple(config.hidden_sizes) + (3 * num_joints,)
    weights, biases = init_parameters(layer_sizes, rng)
    params = weights + biases
    velocities = [np.zeros_like(p) for p in params]

    n = len(inputs)
    batch = min(BATCH_SIZE, n)
    final_loss = np.inf
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            x = inputs[idx]
            x[:, :noise_cols] += rng.normal(
                0.0, NOISE_STD, size=(len(idx), noise_cols)
            )
            loss, w_grads, b_grads = loss_and_gradients(
                weights, biases, x, targets[idx]
            )
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss {loss} (lr={LEARNING_RATE})"
                )
            epoch_loss += loss * len(idx)
            # classical momentum, v = momentum * v - lr * g, then p += v
            for p, v, g in zip(params, velocities, w_grads + b_grads):
                g *= LEARNING_RATE
                v *= MOMENTUM
                v -= g
                p += v
        final_loss = epoch_loss / n

    # fold the target preconditioner into the last layer: outputs are mm
    weights[-1] = weights[-1] * TARGET_SCALE
    biases[-1] = biases[-1] * TARGET_SCALE
    model = LifterModel(
        num_joints=num_joints,
        weights=tuple(weights),
        biases=tuple(biases),
        mean_offset=centroids.mean(axis=0),
        input_mode=config.input_mode,
    )
    return model, final_loss * TARGET_SCALE**2


def save_model(model: LifterModel, path) -> None:
    """Binary container: header, layer sizes, one float64 block of the
    mean offset and each layer's row-major weights and bias, and a trailing
    SHA-256 checksum of everything before it."""
    sizes = model.layer_sizes
    mode_flag = 1 if model.input_mode == INPUT_FULL else 0
    params = [model.mean_offset]
    for w, b in zip(model.weights, model.biases):
        params += [w, b]
    block = np.concatenate([np.ravel(p) for p in params], dtype="<f8")
    parts = [
        MODEL_MAGIC,
        struct.pack("<IIBI", MODEL_VERSION, model.num_joints, mode_flag, len(sizes)),
        struct.pack(f"<{len(sizes)}I", *sizes),
        block.tobytes(),
    ]
    payload = b"".join(parts)
    atomic_write_bytes(path, payload + hashlib.sha256(payload).digest())


def load_model(path) -> LifterModel:
    """The model in a container that save_model wrote; a malformed file
    raises DataFormatError naming it."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 32 + len(MODEL_MAGIC):
        raise DataFormatError(f"{path}: model file truncated")
    payload, checksum = blob[:-32], blob[-32:]
    if hashlib.sha256(payload).digest() != checksum:
        raise DataFormatError(f"{path}: model file checksum mismatch")
    if payload[:4] != MODEL_MAGIC:
        raise DataFormatError(f"{path}: bad magic; not a lifter model file")
    offset = 4
    try:
        version, num_joints, mode_flag, n_sizes = struct.unpack_from(
            "<IIBI", payload, offset
        )
    except struct.error:
        raise DataFormatError(f"{path}: model file truncated inside header")
    offset += struct.calcsize("<IIBI")
    if version != MODEL_VERSION:
        raise DataFormatError(f"{path}: unsupported model format version {version}")
    if n_sizes < 2:
        raise DataFormatError(
            f"{path}: model file declares {n_sizes} layer sizes, need 2 or more"
        )
    if offset + 4 * n_sizes + 24 > len(payload):
        raise DataFormatError(f"{path}: model file truncated inside layer sizes")
    sizes = struct.unpack_from(f"<{n_sizes}I", payload, offset)
    offset += 4 * n_sizes
    # the float64 block: mean offset, then per layer its weights and bias
    shapes = [(3,)]
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        shapes += [(fan_in, fan_out), (fan_out,)]
    ends = list(accumulate(math.prod(shape) for shape in shapes))
    extra = len(payload) - offset - 8 * ends[-1]
    if extra:
        raise DataFormatError(
            f"{path}: model file truncated inside parameters"
            if extra < 0
            else f"{path}: trailing bytes in model file"
        )
    block = np.frombuffer(payload, dtype="<f8", count=ends[-1], offset=offset).copy()
    if not np.isfinite(block).all():
        raise DataFormatError(f"{path}: non-finite model parameters")
    mean_offset, *params = (
        part.reshape(shape) for part, shape in zip(np.split(block, ends[:-1]), shapes)
    )
    try:
        return LifterModel(
            num_joints=num_joints,
            weights=tuple(params[0::2]),
            biases=tuple(params[1::2]),
            mean_offset=mean_offset,
            input_mode=INPUT_FULL if mode_flag else INPUT_NORMALIZED,
        )
    except ValueError as e:
        raise DataFormatError(f"{path}: bad model file: {e}")
