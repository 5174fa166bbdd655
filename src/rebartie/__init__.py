"""rebartie: training-free rebar-tying perception pipeline.

Stereo reconstruction -> parallel-plane detection -> plane mask ->
detection-label node localization -> base-frame tie sequencing -> socket
dispatch, with a synthetic-scene oracle and TCE/SAI metrics.
"""

from .cloud import PointCloud, statistical_outlier_removal, voxel_downsample
from .config import PipelineConfig, load_pipeline_config
from .errors import RebarTieError
from .frames import CalibrationSet, TiePoint, camera_to_base, sequence_ties
from .geometry import (
    CameraModel,
    Plane,
    RigidTransform,
    StereoRig,
    backproject,
    compose,
    fit_plane_least_squares,
    invert,
    plane_signed_distance,
    project,
    rotation_aligning,
    transform_point,
)
from .masking import apply_mask, rasterize_mask, select_near_plane
from .metrics import compute_sai, compute_tce, detection_accuracy, match_nodes
from .nodes import DetectionBox, locate_nodes, parse_yolo_labels
from .planes import (
    ParallelPlanePair,
    RansacParams,
    detect_parallel_planes,
    kmeans_split_offsets,
    ransac_dominant_plane,
)
from .robot import RobotCommand, SimRobotConfig, SimRobotServer, execute_sequence
from .scene import GridSpec, generate_grid_cloud, render_disparity, synth_stereo_pair
from .stereo import (
    block_match_disparity,
    disparity_to_cloud,
    disparity_to_depth,
    window_disparity_filter,
)

__version__ = "0.1.0"
