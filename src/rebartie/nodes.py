"""YOLO-format detection labels and binding-node localization.

Labels arrive from an external open-vocabulary detector as text, one
detection per line: "class_id cx cy w h [conf]" with box center and size
normalized by the image dimensions. The node is the box center; its 3-D
position comes from intersecting the camera ray with the detected rebar
plane, or from the disparity at the node pixel.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeDepth, ParseError, RayParallel, SizeMismatch
from .geometry import backproject
from .stereo import disparity_to_depth
from .textio import finite_floats


@dataclass(frozen=True)
class DetectionBox:
    class_id: int
    cx: float
    cy: float
    w: float
    h: float
    conf: float | None = None

    def __post_init__(self):
        if self.class_id < 0:
            raise ValueError("class_id must be >= 0")
        if not (0 <= self.cx <= 1 and 0 <= self.cy <= 1):
            raise ValueError("box center must be normalized to [0, 1]")
        if not (0 < self.w <= 1 and 0 < self.h <= 1):
            raise ValueError("box size must be normalized to (0, 1]")


@dataclass(frozen=True)
class NodeObservation:
    pixel: tuple
    camera_point: np.ndarray
    source_box: DetectionBox


def parse_yolo_labels(text):
    """Parse YOLO label text into DetectionBoxes, preserving line order.

    Blank lines are skipped. Raises ParseError with the 1-based line number
    for a wrong field count, non-numeric or non-finite fields, or
    out-of-range values.
    """
    boxes = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) not in (5, 6):
            raise ParseError(lineno, f"expected 5 or 6 fields, got {len(parts)}")
        try:
            class_id = int(parts[0])
        except ValueError:
            raise ParseError(lineno, "non-numeric field") from None
        values = finite_floats(parts[1:], lineno, "field")
        conf = values[4] if len(values) == 5 else None
        try:
            boxes.append(DetectionBox(class_id, *values[:4], conf=conf))
        except ValueError as e:
            raise ParseError(lineno, str(e)) from None
    return boxes


def write_yolo_labels(boxes):
    """Serialize boxes back to label text, 6 decimals per value."""
    lines = []
    for b in boxes:
        line = f"{b.class_id} {b.cx:.6f} {b.cy:.6f} {b.w:.6f} {b.h:.6f}"
        if b.conf is not None:
            line += f" {b.conf:.6f}"
        lines.append(line)
    return "".join(line + "\n" for line in lines)


def box_to_node_pixel(box, width, height):
    """Node pixel = box center in pixels (equals the bounding-box vertex mean)."""
    return box.cx * width, box.cy * height


def node_pixel_to_camera_point(cam, u, v, plane):
    """Intersect the camera ray through (u, v) with a camera-frame plane."""
    direction = backproject(cam, u, v, 1.0)
    direction = direction / np.linalg.norm(direction)
    denom = float(direction @ plane.normal)
    if abs(denom) <= 1e-9:
        raise RayParallel(f"ray through ({u}, {v}) is parallel to the plane")
    t = plane.offset / denom
    if t <= 0:
        raise NegativeDepth(f"plane intersection behind the camera at t={t:.4g}")
    return t * direction


def locate_nodes(boxes, cam, plane):
    """Localize every detection on the target plane.

    Returns (observations, diagnostics): boxes whose ray misses the plane
    are skipped with a diagnostic string instead of failing the run.
    """
    observations = []
    diagnostics = []
    for i, box in enumerate(boxes):
        u, v = box_to_node_pixel(box, cam.width, cam.height)
        try:
            point = node_pixel_to_camera_point(cam, u, v, plane)
        except (RayParallel, NegativeDepth) as e:
            diagnostics.append(f"box {i}: {type(e).__name__}: {e}")
            continue
        observations.append(NodeObservation((u, v), point, box))
    return observations, diagnostics


def locate_nodes_from_disparity(boxes, rig, disp):
    """Localize every detection at the depth its node pixel's disparity gives.

    Returns (observations, diagnostics) as locate_nodes does: a box whose
    node pixel has no valid disparity is skipped with a diagnostic.
    """
    cam = rig.camera
    if disp.shape != (cam.height, cam.width):
        raise SizeMismatch(f"disparity {disp.shape} vs camera {(cam.height, cam.width)}")
    observations = []
    diagnostics = []
    for i, box in enumerate(boxes):
        u, v = box_to_node_pixel(box, cam.width, cam.height)
        ui, vi = int(round(u)), int(round(v))
        d = disp[vi, ui] if 0 <= vi < cam.height and 0 <= ui < cam.width else -1.0
        z = disparity_to_depth(rig, d) if d > 0 else math.inf
        if not math.isfinite(z):
            diagnostics.append(f"box {i}: no valid disparity at node pixel")
            continue
        observations.append(NodeObservation((u, v), backproject(cam, u, v, z), box))
    return observations, diagnostics
