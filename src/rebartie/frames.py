"""Calibration handling and tie-point sequencing.

Eye-to-hand calibration and the tool bias are consumed from a file, never
solved here; the calibration file is the boundary with whatever produced it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadCalibration, BadParameter, ParseError
from .geometry import RigidTransform, transform_point
from .textio import finite_floats, read_text

_CALIB_TOL = 1e-6


@dataclass(frozen=True)
class CalibrationSet:
    t_base_from_camera: RigidTransform
    tool_bias: RigidTransform


@dataclass(frozen=True)
class TiePoint:
    position: np.ndarray
    sequence_index: int


def _nearest_rotation(r):
    """Project a near-orthonormal matrix onto SO(3) (polar decomposition)."""
    if np.abs(r.T @ r - np.eye(3)).max() > _CALIB_TOL:
        raise BadCalibration("rotation is not orthonormal within 1e-6")
    u, _, vt = np.linalg.svd(r)
    rot = u @ vt
    if np.linalg.det(rot) < 0:
        raise BadCalibration("rotation has negative determinant (reflection)")
    return rot


def load_calibration(text):
    """Parse a calibration file into a CalibrationSet.

    Format, blank lines aside: "T_base_cam", its three 3x4 [R|t] rows,
    "bias", its three rows, and nothing after. A malformed line is a
    ParseError naming it. Rotations within 1e-6 of orthonormal are
    renormalized by polar projection; anything worse is BadCalibration.
    """
    lines = text.splitlines()
    rows = [(lineno, line.split()) for lineno, line in enumerate(lines, start=1) if line.strip()]
    values = []
    for k, (lineno, parts) in enumerate(rows[:8]):
        header = "bias" if k >= 4 else "T_base_cam"
        if k % 4 == 0:
            if parts != [header]:
                raise ParseError(lineno, f"expected '{header}' header")
        elif len(parts) != 4:
            raise ParseError(lineno, f"expected 4 values, got {len(parts)}")
        else:
            values.append(finite_floats(parts, lineno, f"{header} value"))
    if len(rows) > 8:
        raise ParseError(rows[8][0], "unexpected line after the bias rows")
    if len(rows) < 8:
        raise ParseError(len(lines), f"expected 8 non-blank lines, got {len(rows)}")
    m = np.array(values)
    r1, t1, r2, t2 = m[:3, :3], m[:3, 3], m[3:, :3], m[3:, 3]
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
    return load_calibration(read_text(path))


def camera_to_base(calib, p):
    """Map camera-frame point(s) into the robot base frame."""
    return transform_point(calib.t_base_from_camera, p)


def apply_tool_bias(calib, target):
    """Compensate the tying tool's installation offset, in base frame."""
    return transform_point(calib.tool_bias, target)


def sequence_ties(points, row_tolerance=0.05):
    """Order base-frame tie targets into a serpentine execution sequence.

    Points are grouped into rows by 1-D agglomeration (gap > row_tolerance)
    on whichever of x or y has the larger spread; rows run ascending, and
    alternate rows traverse the other coordinate in opposite directions to
    avoid travel reversals.
    """
    if row_tolerance <= 0:
        raise BadParameter("row_tolerance must be positive")
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
        TiePoint(position=pts[idx], sequence_index=si)
        for si, idx in enumerate(sequence)
    ]


def write_tie_points(path, ties):
    """Tie-point file: one 'index x y z' line per tie, 9 digits, meters."""
    with open(path, "w") as f:
        for t in ties:
            x, y, z = t.position
            f.write(f"{t.sequence_index} {x:.9g} {y:.9g} {z:.9g}\n")


def write_points(path, points):
    """Point file: one 'x y z' line per point, 9 digits, meters."""
    with open(path, "w") as f:
        for x, y, z in points:
            f.write(f"{x:.9g} {y:.9g} {z:.9g}\n")


def _point_rows(path, field_counts):
    """(index or None, [x, y, z]) per non-blank line; field_counts are the row lengths allowed."""
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) not in field_counts:
            expected = " or ".join(map(str, field_counts))
            raise ParseError(lineno, f"expected {expected} fields, got {len(parts)}")
        try:
            idx = int(parts[0]) if len(parts) == 4 else None
        except ValueError:
            raise ParseError(lineno, "non-numeric field") from None
        yield idx, finite_floats(parts[-3:], lineno, "coordinate")


def read_tie_points(path):
    """A tie-point file's ties, in sequence order."""
    ties = [TiePoint(np.array(pos), idx) for idx, pos in _point_rows(path, (4,))]
    ties.sort(key=lambda t: t.sequence_index)
    return ties


def read_points(path):
    """'x y z' rows and tie-point rows, read as read_tie_points reads them: (n, 3), file order."""
    return np.array([pos for _, pos in _point_rows(path, (3, 4))]).reshape(-1, 3)
