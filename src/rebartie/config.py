"""Pipeline configuration: one flat key=value file shared by every stage.

Command-line flags override file values; flag names mirror the keys.
"""

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ParseError
from .geometry import CameraModel, StereoRig


@dataclass
class PipelineConfig:
    # stereo
    block_radius: int = 2
    max_disparity: int = 64
    window: int = 31
    delta: float = 3.0
    # cloud conditioning
    sor_k: int = 16
    sor_sigma_mult: float = 1.0
    voxel_size: float = 0.005
    # plane detection
    ransac_iterations: int = 500
    ransac_inlier_threshold: float = 0.005
    ransac_min_inlier_fraction: float = 0.3
    ransac_seed: int = 0
    # masking
    tau: float = 0.015
    dilation_radius: int = 2
    # node localization: "plane" intersects the detected mid-plane,
    # "disparity" reads depth at the node pixel (needs --disparity)
    node_depth_source: str = "plane"
    # sequencing and evaluation
    row_tolerance: float = 0.05
    match_cutoff: float = 0.05
    iou_threshold: float = 0.5
    # camera rig (shared rectified intrinsics + baseline)
    fx: float = 700.0
    fy: float = 700.0
    cx: float = 640.0
    cy: float = 360.0
    image_width: int = 1280
    image_height: int = 720
    baseline: float = 0.06
    # robot link
    tie_policy: str = "abort_on_error"
    sim_center_x: float = 0.0
    sim_center_y: float = 0.0
    sim_center_z: float = 0.0
    sim_radius: float = 1.0
    sim_failure_rate: float = 0.0
    sim_seed: int = 0

    def __post_init__(self):
        if self.block_radius < 1 or self.max_disparity < 1:
            raise ValueError("block_radius and max_disparity must be >= 1")
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError("window must be odd and >= 3")
        if self.delta <= 0 or self.voxel_size <= 0 or self.tau <= 0:
            raise ValueError("delta, voxel_size and tau must be positive")
        if self.sor_k < 1:
            raise ValueError("sor_k must be >= 1")
        if self.dilation_radius < 0:
            raise ValueError("dilation_radius must be >= 0")
        if self.node_depth_source not in ("plane", "disparity"):
            raise ValueError("node_depth_source must be 'plane' or 'disparity'")
        if self.tie_policy not in ("abort_on_error", "skip_on_error"):
            raise ValueError("tie_policy must be abort_on_error or skip_on_error")
        if self.row_tolerance <= 0 or self.match_cutoff <= 0:
            raise ValueError("row_tolerance and match_cutoff must be positive")

    def camera(self):
        return CameraModel(
            self.fx, self.fy, self.cx, self.cy, self.image_width, self.image_height
        )

    def rig(self):
        return StereoRig(self.camera(), self.baseline)


def parse_keyvalues(text):
    """Parse 'key = value' lines; '#' starts a comment line.

    Returns {key: (line number, value)}; a repeated key keeps its last line.
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(lineno, "expected key = value")
        key, _, val = line.partition("=")
        values[key.strip()] = (lineno, val.strip())
    return values


def load_pipeline_config(path=None, overrides=None):
    """Build a PipelineConfig from an optional file plus explicit overrides."""
    raw = {}
    if path is not None:
        raw.update(parse_keyvalues(Path(path).read_text()))
    if overrides:
        # a flag has no line: 0
        raw.update({k: (0, v) for k, v in overrides.items() if v is not None})
    kwargs = {}
    types = {f.name: f.type for f in fields(PipelineConfig)}
    for key, (lineno, val) in raw.items():
        if key not in types:
            raise ParseError(lineno, f"unknown config key {key!r}")
        ftype = types[key]
        try:
            if ftype in (int, "int"):
                kwargs[key] = int(val)
            elif ftype in (float, "float"):
                kwargs[key] = float(val)
            else:
                kwargs[key] = str(val)
        except ValueError:
            raise ParseError(lineno, f"bad value for {key}: {val!r}") from None
    try:
        return PipelineConfig(**kwargs)
    except ValueError as e:
        raise ParseError(0, f"bad config: {e}") from None
