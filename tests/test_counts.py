"""Every count and size the library takes goes through geometry.check_count:
one table of the functions that rely on a count, each refusing a
non-integer and the values just outside its bounds, and accepting its
bounds and a numpy integer."""

import re

import numpy as np
import pytest

from poselift.geometry import BoundingBox, grid_to_image, image_to_grid
from poselift.heatmaps import find_modes_nms, find_modes_volume, render_gaussian
from poselift.inference import InferenceConfig
from poselift.lifter import MAX_HIDDEN_UNITS, LifterTrainConfig
from poselift.nbest import MAX_POSES, n_best_poses
from poselift.synth import (
    CorruptionSpec,
    check_grid_size,
    default_camera,
    default_skeleton,
    generate_frames,
    make_frame,
    place_subject,
    sample_pose,
)

GRID = render_gaussian((3.2, 4.6), 8)
BOX = BoundingBox(origin_x=100.0, origin_y=50.0, side=512.0)


def _make_frame(grid_size):
    rng = np.random.default_rng(0)
    pose = place_subject(sample_pose(default_skeleton(), rng), default_camera(), rng)
    return make_frame(pose, default_camera(), CorruptionSpec(), rng, grid_size=grid_size)


# (id, call with the count, name in the error, upper bound); every count is >= 1
COUNTS = [
    ("InferenceConfig.num_candidates", lambda n: InferenceConfig(num_candidates=n),
     "number of candidate poses", MAX_POSES),
    ("n_best_poses", lambda n: n_best_poses([[1.0, 0.5], [2.0]], n),
     "number of candidate poses", MAX_POSES),
    ("find_modes_volume", lambda n: find_modes_volume(GRID[None], 3.0, n),
     "max_candidates", None),
    ("find_modes_nms", lambda n: find_modes_nms(GRID, n, radius=3.0),
     "max_candidates", None),
    ("LifterTrainConfig.epochs", lambda n: LifterTrainConfig(epochs=n),
     "epochs", None),
    ("LifterTrainConfig.hidden_sizes", lambda n: LifterTrainConfig(hidden_sizes=(8, n)),
     "hidden_sizes", MAX_HIDDEN_UNITS - 8),  # the widths' sum is bounded
    ("generate_frames.count",
     lambda n: generate_frames(default_skeleton(), default_camera(), n,
                               CorruptionSpec(), 0, grid_size=8),
     "frame count", None),
    ("check_grid_size", check_grid_size, "grid size", 2**32 - 1),
    ("make_frame.grid_size", _make_frame, "grid size", None),
    ("grid_to_image", lambda n: grid_to_image(np.zeros((2, 2)), BOX, n),
     "grid size", None),
    ("image_to_grid", lambda n: image_to_grid(np.zeros((2, 2)), BOX, n),
     "grid size", None),
]


def _cases(values_of):
    return [
        pytest.param(call, name, value, id=f"{label}-{value!r}")
        for label, call, name, high in COUNTS
        for value in values_of(high)
    ]


@pytest.mark.parametrize(
    "call, name, value",
    _cases(lambda high: [2.5, 0] + ([] if high is None else [high + 1])),
)
def test_refused(call, name, value):
    with pytest.raises(ValueError, match=re.escape(name)):
        call(value)


@pytest.mark.parametrize(
    "call, name, value",
    _cases(lambda high: [1, np.int64(1)] + ([] if high is None else [high])),
)
def test_accepted(call, name, value):
    call(value)
