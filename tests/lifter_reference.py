"""Reference lifter training: per-pose preparation and allocating steps.

Each pair is normalized on its own, every batch rebuilds its mean/scale
columns, and every step builds fresh arrays for the forward pass, the
backward pass and the momentum update. It is slow but easy to check by
eye, so the tests hold the production trainer to it bit for bit.
"""

import numpy as np

from poselift import lifter
from poselift.geometry import normalize_pose
from poselift.lifter import (
    INPUT_FULL,
    POSITION_INPUT_SCALE,
    TARGET_SCALE,
    init_parameters,
)


def forward_cached(weights, biases, inputs):
    activations = [inputs]
    h = inputs
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        activations.append(h)
    out = h @ weights[-1] + biases[-1]
    return out, activations


def loss_and_gradients(weights, biases, inputs, targets):
    out, activations = forward_cached(weights, biases, inputs)
    diff = out - targets
    loss = float(np.mean(diff**2))
    delta = 2.0 * diff / diff.size
    w_grads = [None] * len(weights)
    b_grads = [None] * len(biases)
    for layer in range(len(weights) - 1, -1, -1):
        w_grads[layer] = activations[layer].T @ delta
        b_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (activations[layer] > 0)
    return loss, w_grads, b_grads


def prepare_training_data(poses_2d, poses_3d):
    inputs_flat, means, scales, targets, centroids = [], [], [], [], []
    for p2, p3 in zip(poses_2d, poses_3d):
        joints, mean, scale = normalize_pose(p2)
        inputs_flat.append(joints.ravel())
        means.append(mean)
        scales.append(scale)
        p3 = np.asarray(p3, dtype=np.float64)
        centroid = p3.mean(axis=0)
        centroids.append(centroid)
        targets.append(((p3 - centroid) / TARGET_SCALE).ravel())
    return (
        np.array(inputs_flat),
        np.array(means),
        np.array(scales),
        np.array(targets),
        np.array(centroids),
    )


def train_lifter(poses_2d, poses_3d, config):
    """(weights, biases, mean_offset, final_loss) with the production
    trainer's meaning: last layer in millimeters, loss in mm^2. The schedule
    is read from the lifter module at call time, so a test that patches one
    of its constants patches both trainers."""
    num_joints = len(np.asarray(poses_2d[0]))
    flat, means, scales, targets, centroids = prepare_training_data(
        poses_2d, poses_3d
    )
    rng = np.random.default_rng(config.seed)
    input_dim = 2 * num_joints + (3 if config.input_mode == INPUT_FULL else 0)
    layer_sizes = (input_dim,) + tuple(config.hidden_sizes) + (3 * num_joints,)
    weights, biases = init_parameters(layer_sizes, rng)
    w_vel = [np.zeros_like(w) for w in weights]
    b_vel = [np.zeros_like(b) for b in biases]

    n = len(flat)
    batch = min(lifter.BATCH_SIZE, n)
    lr, momentum = lifter.LEARNING_RATE, lifter.MOMENTUM
    final_loss = np.inf
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            x = flat[idx]
            x = x + rng.normal(0.0, lifter.NOISE_STD, size=x.shape)
            if config.input_mode == INPUT_FULL:
                extra = (
                    np.concatenate([means[idx], scales[idx, None]], axis=1)
                    / POSITION_INPUT_SCALE
                )
                x = np.concatenate([x, extra], axis=1)
            loss, w_grads, b_grads = loss_and_gradients(
                weights, biases, x, targets[idx]
            )
            epoch_loss += loss * len(idx)
            for i in range(len(weights)):
                w_vel[i] = momentum * w_vel[i] - lr * w_grads[i]
                b_vel[i] = momentum * b_vel[i] - lr * b_grads[i]
                weights[i] = weights[i] + w_vel[i]
                biases[i] = biases[i] + b_vel[i]
        final_loss = epoch_loss / n

    weights[-1] = weights[-1] * TARGET_SCALE
    biases[-1] = biases[-1] * TARGET_SCALE
    return weights, biases, centroids.mean(axis=0), final_loss * TARGET_SCALE**2
