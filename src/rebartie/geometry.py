"""3D geometry primitives: planes, rigid transforms, pinhole cameras.

Conventions: camera frame is right-handed with +z forward, +x right, +y down
(rectified stereo imagery). Planes are stored with a canonical normal sign so
two fits of the same surface compare equal.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, BehindCamera, DegenerateInput, FrameMismatch

# Components at or below this magnitude are treated as zero when picking the
# canonical normal sign; a unit normal always has one component above it.
_SIGN_EPS = 1e-12

_ORTHO_TOL = 1e-9

# The largest coordinate, in metres, SOR and RANSAC take: RANSAC's candidate
# normals hold fourth powers of the coordinates, which overflow past 1e76.
MAX_COORDINATE = 1e50


def check_coordinates(points, error):
    """Raise error unless every coordinate lies within MAX_COORDINATE m."""
    # written so that a NaN, which max and min return, fails it too
    if not -MAX_COORDINATE <= points.min() <= points.max() <= MAX_COORDINATE:
        raise error(f"a coordinate lies beyond {MAX_COORDINATE:g} m or is NaN")


def _vec3(p):
    a = np.asarray(p, dtype=float)
    if a.shape[-1] != 3:
        raise ValueError(f"expected 3-vector(s), got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class Plane:
    """Plane {p : normal . p = offset} with unit normal, canonical sign.

    The constructor flips (normal, offset) jointly so the first
    non-negligible normal component is positive.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = _vec3(self.normal)
        if n.shape != (3,) or not np.all(np.isfinite(n)):
            raise ValueError("plane normal must be a finite 3-vector")
        if abs(np.linalg.norm(n) - 1.0) > _ORTHO_TOL:
            raise ValueError("plane normal must be unit length")
        if not np.isfinite(self.offset):
            raise ValueError("plane offset must be finite")
        d = float(self.offset)
        for c in n:
            if abs(c) > _SIGN_EPS:
                if c < 0:
                    n = -n
                    d = -d
                break
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", d)


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rigid motion p -> R p + t between two labelled frames."""

    rotation: np.ndarray
    translation: np.ndarray
    from_frame: str = ""
    to_frame: str = ""

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = _vec3(self.translation)
        if r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if np.abs(r.T @ r - np.eye(3)).max() > _ORTHO_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation determinant must be +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls, from_frame="", to_frame=None):
        if to_frame is None:
            to_frame = from_frame
        return cls(np.eye(3), np.zeros(3), from_frame, to_frame)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics for a rectified view."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise BadParameter("focal lengths must be positive")
        # below 1 pixel, one pixel's field of view exceeds 53 degrees
        if self.fx < 1 or self.fy < 1:
            raise BadParameter("focal lengths must be at least 1 pixel")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise BadParameter("principal point must lie inside the image")


@dataclass(frozen=True)
class StereoRig:
    """Rectified stereo pair sharing one camera model."""

    camera: CameraModel
    baseline: float

    def __post_init__(self):
        if self.baseline <= 0:
            raise BadParameter("baseline must be positive")


def plane_signed_distance(plane, p):
    """Signed distance normal.p - offset; accepts one point or an (n,3) array."""
    a = _vec3(p)
    return a @ plane.normal - plane.offset


def fit_plane_least_squares(points):
    """Least-squares plane through >= 3 non-collinear points.

    Minimizes the sum of squared orthogonal distances: the normal is the
    eigenvector of the smallest eigenvalue of the centered scatter matrix.
    Raises DegenerateInput when the points are collinear or coincident.
    """
    pts = np.atleast_2d(_vec3(points))
    if pts.shape[0] < 3:
        raise DegenerateInput(f"need at least 3 points, got {pts.shape[0]}")
    centroid = pts.mean(axis=0)
    q = pts - centroid
    scatter = q.T @ q
    trace = np.trace(scatter)
    evals, evecs = np.linalg.eigh(scatter)
    if trace <= 0 or (evals[0] < 1e-12 * trace and evals[1] < 1e-12 * trace):
        raise DegenerateInput("points are collinear or coincident")
    normal = evecs[:, 0]
    return Plane(normal, float(normal @ centroid))


def rotation_aligning(from_dir, to_dir, from_frame="", to_frame=""):
    """Rotation-only transform mapping unit vector from_dir onto to_dir.

    Antipodal inputs rotate 180 degrees about a deterministic axis: the
    coordinate axis least parallel to to_dir, orthogonalized against it.
    """
    f = _vec3(from_dir)
    t = _vec3(to_dir)
    dot = float(np.clip(f @ t, -1.0, 1.0))
    if dot > 1.0 - 1e-12:
        return RigidTransform(np.eye(3), np.zeros(3), from_frame, to_frame)
    if dot < -1.0 + 1e-12:
        e = np.zeros(3)
        e[int(np.argmin(np.abs(t)))] = 1.0
        axis = e - (e @ t) * t
        axis /= np.linalg.norm(axis)
        rot = 2.0 * np.outer(axis, axis) - np.eye(3)
        return RigidTransform(rot, np.zeros(3), from_frame, to_frame)
    axis = np.cross(f, t)
    axis /= np.linalg.norm(axis)
    angle = np.arccos(dot)
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    rot = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    return RigidTransform(rot, np.zeros(3), from_frame, to_frame)


def transform_point(transform, p):
    """Apply R p + t; accepts one point or an (n,3) array."""
    a = _vec3(p)
    return a @ transform.rotation.T + transform.translation


def transform_plane(transform, plane):
    """Map a plane through a rigid transform (same canonical result)."""
    n = transform.rotation @ plane.normal
    d = plane.offset + float(n @ transform.translation)
    return Plane(n / np.linalg.norm(n), d)


def compose(second, first):
    """Transform applying ``first`` then ``second``; frame labels must chain."""
    if first.to_frame != second.from_frame:
        raise FrameMismatch(
            f"cannot compose {first.from_frame!r}->{first.to_frame!r} "
            f"with {second.from_frame!r}->{second.to_frame!r}"
        )
    return RigidTransform(
        second.rotation @ first.rotation,
        second.rotation @ first.translation + second.translation,
        first.from_frame,
        second.to_frame,
    )


def invert(transform):
    rt = transform.rotation.T
    return RigidTransform(
        rt, -(rt @ transform.translation), transform.to_frame, transform.from_frame
    )


def project(cam, p):
    """Project camera-frame point(s) to pixel coordinates (u, v)."""
    a = _vec3(p)
    z = a[..., 2]
    if np.any(z <= 0):
        raise BehindCamera("point has non-positive depth")
    u = cam.fx * a[..., 0] / z + cam.cx
    v = cam.fy * a[..., 1] / z + cam.cy
    return np.stack([u, v], axis=-1)


def backproject(cam, u, v, depth):
    """Invert the pinhole projection at the given positive depth."""
    z = np.asarray(depth, dtype=float)
    if np.any(z <= 0):
        raise BehindCamera("depth must be positive")
    x = (np.asarray(u, dtype=float) - cam.cx) / cam.fx * z
    y = (np.asarray(v, dtype=float) - cam.cy) / cam.fy * z
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)
