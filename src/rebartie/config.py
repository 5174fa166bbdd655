"""Pipeline configuration: one flat key=value file shared by every stage.

Command-line flags override file values; flag names mirror the keys. Values
are only parsed here: each range rule lives in the stage that uses the value.
"""

import math
from dataclasses import dataclass, fields

from .errors import ParseError
from .geometry import CameraModel, StereoRig
from .textio import read_text

# The keys camera() and rig() read, in CameraModel's argument order.
CAMERA_KEYS = ("fx", "fy", "cx", "cy", "image_width", "image_height")
RIG_KEYS = (*CAMERA_KEYS, "baseline")


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

    def camera(self):
        return CameraModel(*(getattr(self, key) for key in CAMERA_KEYS))

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


def convert_keyvalues(values, types):
    """{key: value} from parse_keyvalues' {key: (line, text)} by a {key: type}
    table; an unknown key, a bad value or a non-finite float is a ParseError."""
    out = {}
    for key, (lineno, val) in values.items():
        if key not in types:
            raise ParseError(lineno, f"unknown config key {key!r}")
        try:
            out[key] = types[key](val)
        except ValueError:
            raise ParseError(lineno, f"bad value for {key}: {val!r}") from None
        if types[key] is float and not math.isfinite(out[key]):
            raise ParseError(lineno, f"non-finite value for {key}: {val!r}")
    return out


def load_pipeline_config(path=None, overrides=None):
    """Build a PipelineConfig from an optional file plus explicit overrides."""
    raw = {}
    if path is not None:
        raw.update(parse_keyvalues(read_text(path)))
    if overrides:
        # a flag has no line: 0
        raw.update({k: (0, v) for k, v in overrides.items() if v is not None})
    types = {f.name: f.type for f in fields(PipelineConfig)}
    return PipelineConfig(**convert_keyvalues(raw, types))
