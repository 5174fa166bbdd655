"""Calibration handling and tie-point sequencing.

Eye-to-hand calibration and the tool bias are consumed from a file, never
solved here; the calibration file is the boundary with whatever produced it.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadCalibration, ParseError
from .geometry import RigidTransform, transform_point
from .nodes import NodeObservation

_CALIB_TOL = 1e-6


@dataclass(frozen=True)
class CalibrationSet:
    t_base_from_camera: RigidTransform
    tool_bias: RigidTransform


@dataclass(frozen=True)
class TiePoint:
    position: np.ndarray
    sequence_index: int
    source: NodeObservation | None = None


def _nearest_rotation(r):
    """Project a near-orthonormal matrix onto SO(3) (polar decomposition)."""
    if np.abs(r.T @ r - np.eye(3)).max() > _CALIB_TOL:
        raise BadCalibration("rotation is not orthonormal within 1e-6")
    u, _, vt = np.linalg.svd(r)
    rot = u @ vt
    if np.linalg.det(rot) < 0:
        raise BadCalibration("rotation has negative determinant (reflection)")
    return rot


def _parse_rows(lines, start, label):
    rows = []
    for k in range(3):
        lineno = start + k
        if lineno > len(lines):
            raise BadCalibration(f"{label}: missing row {k + 1}")
        parts = lines[lineno - 1].split()
        if len(parts) != 4:
            raise BadCalibration(
                f"{label} row {k + 1}: expected 4 values, got {len(parts)}"
            )
        try:
            rows.append([float(v) for v in parts])
        except ValueError:
            raise BadCalibration(f"{label} row {k + 1}: non-numeric value") from None
    m = np.array(rows)
    return m[:, :3], m[:, 3]


def load_calibration(text):
    """Parse a calibration file into a CalibrationSet.

    Format: line 1 "T_base_cam", lines 2-4 the 3x4 [R|t] rows, line 5
    "bias", lines 6-8 its rows. Rotations within 1e-6 of orthonormal are
    renormalized by polar projection; anything worse is BadCalibration.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 8 or lines[0].split() != ["T_base_cam"]:
        raise BadCalibration("expected 'T_base_cam' header")
    if lines[4].split() != ["bias"]:
        raise BadCalibration("expected 'bias' header on line 5")
    r1, t1 = _parse_rows(lines, 2, "T_base_cam")
    r2, t2 = _parse_rows(lines, 6, "bias")
    return CalibrationSet(
        t_base_from_camera=RigidTransform(_nearest_rotation(r1), t1, "camera", "base"),
        tool_bias=RigidTransform(_nearest_rotation(r2), t2, "base", "base"),
    )


def format_calibration(calib):
    def rows(t):
        m = np.hstack([t.rotation, t.translation[:, None]])
        return "".join(
            " ".join(f"{v:.9g}" for v in row) + "\n" for row in m
        )

    return (
        "T_base_cam\n"
        + rows(calib.t_base_from_camera)
        + "bias\n"
        + rows(calib.tool_bias)
    )


def read_calibration_file(path):
    return load_calibration(Path(path).read_text())


def camera_to_base(calib, p):
    """Map camera-frame point(s) into the robot base frame."""
    return transform_point(calib.t_base_from_camera, p)


def apply_tool_bias(calib, target):
    """Compensate the tying tool's installation offset, in base frame."""
    return transform_point(calib.tool_bias, target)


def sequence_ties(points, row_tolerance=0.05, sources=None):
    """Order base-frame tie targets into a serpentine execution sequence.

    Points are grouped into rows by 1-D agglomeration (gap > row_tolerance)
    on whichever of x or y has the larger spread; rows run ascending, and
    alternate rows traverse the other coordinate in opposite directions to
    avoid travel reversals.
    """
    if row_tolerance <= 0:
        raise ValueError("row_tolerance must be positive")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = pts.shape[0]
    if n == 0:
        return []
    spread = pts.max(axis=0) - pts.min(axis=0)
    row_axis = 1 if spread[1] >= spread[0] else 0
    col_axis = 1 - row_axis
    order = np.argsort(pts[:, row_axis], kind="stable")
    vals = pts[order, row_axis]
    breaks = np.flatnonzero(np.diff(vals) > row_tolerance) + 1
    rows = np.split(order, breaks)
    sequence = []
    for r, row in enumerate(rows):
        inner = row[np.argsort(pts[row, col_axis], kind="stable")]
        if r % 2 == 1:
            inner = inner[::-1]
        sequence.extend(inner.tolist())
    return [
        TiePoint(
            position=pts[idx],
            sequence_index=si,
            source=None if sources is None else sources[idx],
        )
        for si, idx in enumerate(sequence)
    ]


def write_tie_points(path, ties):
    """Tie-point file: one 'index x y z' line per tie, 9 digits, meters."""
    with open(path, "w") as f:
        for t in ties:
            x, y, z = t.position
            f.write(f"{t.sequence_index} {x:.9g} {y:.9g} {z:.9g}\n")


def read_tie_points(path):
    ties = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ParseError(lineno, f"expected 4 fields, got {len(parts)}")
            try:
                idx = int(parts[0])
                pos = np.array([float(v) for v in parts[1:]])
            except ValueError:
                raise ParseError(lineno, "non-numeric field") from None
            ties.append(TiePoint(position=pos, sequence_index=idx))
    ties.sort(key=lambda t: t.sequence_index)
    return ties
