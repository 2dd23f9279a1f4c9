"""2D pose candidate generation, 2D-to-3D lifting, and energy-based selection."""

from .geometry import (
    BehindCameraError,
    BoundingBox,
    CameraModel,
    DegeneratePoseError,
    NormalizedPose2D,
    error_2d,
    grid_to_image,
    image_to_crop,
    image_to_grid,
    mpjpe,
    normalize_pose,
    procrustes_error,
    project_orthographic,
    project_perspective,
)
from .heatmaps import (
    HeatMapVolume,
    JointCandidates,
    find_modes_nms,
    find_modes_volume,
    render_gaussian,
)
from .inference import (
    CandidateResult,
    InferenceConfig,
    InferenceResult,
    infer,
)
from .lifter import (
    LifterModel,
    LifterTrainConfig,
    load_model,
    save_model,
    train_lifter,
)
from .nbest import PoseAssignment, n_best_poses
from .synth import (
    CorruptionSpec,
    SkeletonSpec,
    default_camera,
    default_skeleton,
    generate_frames,
    make_frame,
    run_benchmark,
    sample_pose,
)

__version__ = "0.1.0"
