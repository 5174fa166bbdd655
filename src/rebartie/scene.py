"""Synthetic rebar-grid scenes with full ground truth.

Two perpendicular rod layers form the grid. In the grid frame, layer A rods
run along +x at z multiples of spacing_z, layer B rods run along +z at x
multiples of spacing_x, lifted by layer_gap along +y toward the camera.
Everything (clouds, rendered disparity, stereo pairs, labels) is
deterministic from GridSpec.seed.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud
from .config import PipelineConfig, convert_keyvalues, parse_keyvalues
from .errors import BadParameter, ParseError
from .geometry import (
    Plane,
    RigidTransform,
    backproject,
    project,
    transform_plane,
    transform_point,
)
from .nodes import DetectionBox
from .planes import ParallelPlanePair
from .textio import read_text

# surface sampling density: at least one point per (2 mm)^2
_SAMPLE_AREA = 4e-6

# The most surface samples generate_grid_cloud draws: it holds several (n, 3)
# float64 arrays of them at once, 240 MB each at this count.
_MAX_SAMPLES = 10**7

# background plane for stereo-pair synthesis; an exact integer disparity so
# the background warps without resampling
_BG_DISPARITY = 20

# ground-truth detection box width and height, normalized by the image size
_BOX_SIZE = 0.05


def default_rig():
    return PipelineConfig().rig()


def default_grid_pose(rows, cols, spacing_x, spacing_z, layer_gap, distance=1.2):
    """Grid frame -> camera frame: grid +y points at the camera, the grid is
    centered in view with the inter-layer midplane at the given distance."""
    rot = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, -1.0, 0.0],
    ])
    center = np.array([
        (rows - 1) * spacing_x / 2.0,
        layer_gap / 2.0,
        (cols - 1) * spacing_z / 2.0,
    ])
    translation = np.array([0.0, 0.0, distance]) - rot @ center
    return RigidTransform(rot, translation, "grid", "camera")


@dataclass
class GridSpec:
    rows: int = 5
    cols: int = 5
    spacing_x: float = 0.2
    spacing_z: float = 0.2
    rod_radius: float = 0.006
    layer_gap: float | None = None  # center-to-center; defaults to 2x radius
    grid_pose: RigidTransform | None = None
    noise_sigma: float = 0.0
    outlier_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise ValueError("rows and cols must be >= 2")
        if self.rod_radius <= 0:
            raise ValueError("rod_radius must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.layer_gap is None:
            self.layer_gap = 2.0 * self.rod_radius
        if min(self.spacing_x, self.spacing_z) <= 2.0 * self.rod_radius:
            raise ValueError("spacings must exceed the rod diameter")
        if self.layer_gap < 2.0 * self.rod_radius:
            raise ValueError("layer_gap must be at least the rod diameter")
        if not 0 <= self.outlier_fraction < 1:
            raise ValueError("outlier_fraction must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.grid_pose is None:
            self.grid_pose = default_grid_pose(
                self.rows, self.cols, self.spacing_x, self.spacing_z, self.layer_gap
            )


@dataclass
class GroundTruth:
    nodes: np.ndarray  # (rows*cols, 3) camera frame
    planes: ParallelPlanePair
    labels: list = field(default_factory=list)


def _rods(spec):
    """Rod axes in grid frame: (origin, axis unit, length, layer) tuples.

    Layer A (index 0) at y=0, layer B (index 1) at y=layer_gap.
    """
    length_a = (spec.rows - 1) * spec.spacing_x
    length_b = (spec.cols - 1) * spec.spacing_z
    rods = []
    for k in range(spec.cols):
        rods.append((
            np.array([0.0, 0.0, k * spec.spacing_z]),
            np.array([1.0, 0.0, 0.0]),
            length_a,
            0,
        ))
    for j in range(spec.rows):
        rods.append((
            np.array([j * spec.spacing_x, spec.layer_gap, 0.0]),
            np.array([0.0, 0.0, 1.0]),
            length_b,
            1,
        ))
    return rods


def _grid_nodes(spec):
    xs = np.arange(spec.rows) * spec.spacing_x
    zs = np.arange(spec.cols) * spec.spacing_z
    gx, gz = np.meshgrid(xs, zs, indexing="ij")
    mid = spec.layer_gap / 2.0
    return np.stack([gx.ravel(), np.full(gx.size, mid), gz.ravel()], axis=1)


def _near_far_layers(spec):
    """Layer indices (near, far), ordered by the camera depth of each layer's
    axis plane at the grid origin; layer B counts as near on a tie."""
    pose = spec.grid_pose
    z_a = transform_point(pose, np.array([0.0, 0.0, 0.0]))[2]
    z_b = transform_point(pose, np.array([0.0, spec.layer_gap, 0.0]))[2]
    return (1, 0) if z_b <= z_a else (0, 1)


def ground_truth_planes(spec):
    """The two rod-axis planes in camera frame, near/far ordered by depth."""
    planes = [
        transform_plane(spec.grid_pose, Plane(np.array([0.0, 1.0, 0.0]), y))
        for y in (0.0, spec.layer_gap)
    ]
    near, far = _near_far_layers(spec)
    return planes[near], planes[far]


def generate_grid_cloud(spec, rig=None):
    """Sample the camera-visible half of every rod; returns (cloud, truth).

    Surface points carry Gaussian noise along their normals; outliers are
    uniform in a 2x-expanded bounding box. The ground truth holds the node
    positions, the rod-axis plane pair and projected labels. BadParameter
    when the rods need more than _MAX_SAMPLES surface samples.
    """
    if rig is None:
        rig = default_rig()
    pose = spec.grid_pose
    # labels first: a node off the image fails before rods too long to sample
    truth = GroundTruth(nodes=transform_point(pose, _grid_nodes(spec)), planes=None)
    truth.labels = emit_ground_truth_boxes(truth, rig.camera)
    rng = np.random.default_rng(spec.seed)
    r = spec.rod_radius

    rods = _rods(spec)
    counts = [int(math.ceil(math.pi * r * length / _SAMPLE_AREA)) for _, _, length, _ in rods]
    if sum(counts) > _MAX_SAMPLES:
        raise BadParameter(f"scene needs {sum(counts)} surface samples, more than {_MAX_SAMPLES}")

    # in grid frame the camera looks along -y, so the +y half faces it
    surface = []
    layer_of = []
    for (origin, axis, length, layer), count in zip(rods, counts):
        along = rng.uniform(0.0, length, count)
        theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0, count)
        # perpendicular pair (u toward camera, w completing the frame)
        u = np.array([0.0, 1.0, 0.0])
        w = np.cross(axis, u)
        normals = np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * w
        pts = origin + along[:, None] * axis + r * normals
        if spec.noise_sigma > 0:
            pts = pts + rng.normal(0.0, spec.noise_sigma, count)[:, None] * normals
        surface.append(pts)
        layer_of.append(np.full(count, layer))
    surface = np.concatenate(surface)
    layer_of = np.concatenate(layer_of)

    points = surface
    if spec.outlier_fraction > 0:
        n_out = int(round(spec.outlier_fraction * surface.shape[0]))
        lo = surface.min(axis=0)
        hi = surface.max(axis=0)
        center = (lo + hi) / 2.0
        half = (hi - lo)  # 2x the original half-extent
        outliers = rng.uniform(center - half, center + half, (n_out, 3))
        points = np.concatenate([surface, outliers])

    cam_points = transform_point(pose, points)
    cloud = PointCloud(cam_points)

    near, far = ground_truth_planes(spec)
    truth.planes = ParallelPlanePair(
        normal=near.normal,
        offset_near=near.offset,
        offset_far=far.offset,
        # the surface points sampled on each layer's rods
        inlier_counts=tuple(
            int(np.count_nonzero(layer_of == layer)) for layer in _near_far_layers(spec)
        ),
    )
    return cloud, truth


def _rod_pixel_box(spec, cam, origin, axis, length):
    """(rows, cols) slices holding every pixel whose ray can hit the rod, or
    None when the rod projects off the image.

    The rod lies inside its axis segment padded by rod_radius on every grid
    axis. When all 8 corners of that box are in front of the camera, the
    box projects inside the convex hull of the projected corners, padded
    here by 1 px for rounding. A box reaching z <= 0 gets the full frame.
    """
    ends = np.stack([origin, origin + length * axis])
    lo = ends.min(axis=0) - spec.rod_radius
    hi = ends.max(axis=0) + spec.rod_radius
    corners = transform_point(spec.grid_pose, np.array(list(itertools.product(*zip(lo, hi)))))
    if np.any(corners[:, 2] <= 0):
        return slice(0, cam.height), slice(0, cam.width)
    uv = project(cam, corners)
    u0, v0 = np.maximum(np.floor(uv.min(axis=0)) - 1, 0).astype(int)
    u1, v1 = np.minimum(np.ceil(uv.max(axis=0)) + 2, (cam.width, cam.height)).astype(int)
    if u0 >= u1 or v0 >= v1:
        return None
    return slice(v0, v1), slice(u0, u1)


def render_disparity(spec, rig):
    """Analytic z-buffer render of both rod layers to a disparity map.

    Each finite cylinder is intersected with the rays of the pixels inside
    its projected bounding box; disparity is fx * baseline / Z at the
    nearest hit, -1 where nothing is hit.
    """
    cam = rig.camera
    pose = spec.grid_pose
    # work in grid frame: the camera origin pulled back through the pose
    origin_g = pose.rotation.T @ (-pose.translation)

    zbuf = np.full((cam.height, cam.width), np.inf)
    r2 = spec.rod_radius**2
    for origin, axis, length, _layer in _rods(spec):
        box = _rod_pixel_box(spec, cam, origin, axis, length)
        if box is None:
            continue
        vv, uu = np.mgrid[box]
        # unnormalized ray directions with dir_z = 1, so depth Z = ray
        # parameter t, turned into the grid frame (row @ R == R.T @ row)
        rod_dirs = backproject(cam, uu, vv, 1.0) @ pose.rotation
        oc = origin_g - origin
        d_axial = rod_dirs @ axis
        o_axial = float(oc @ axis)
        d_perp = rod_dirs - d_axial[..., None] * axis
        o_perp = oc - o_axial * axis
        a = np.einsum("...i,...i->...", d_perp, d_perp)
        b = 2.0 * (d_perp @ o_perp)
        c = float(o_perp @ o_perp) - r2
        disc = b * b - 4.0 * a * c
        hit = (disc >= 0) & (a > 0)
        sq = np.sqrt(np.where(hit, disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-b - sq) / (2.0 * a)
            t2 = (-b + sq) / (2.0 * a)
        z = zbuf[box]
        for t in (t1, t2):
            s_axial = o_axial + t * d_axial
            ok = hit & (t > 1e-9) & (s_axial >= 0.0) & (s_axial <= length)
            z = np.where(ok & (t < z), t, z)
        zbuf[box] = z

    # the disparity is written over the z-buffer: no second frame
    hit = np.isfinite(zbuf)
    np.divide(cam.fx * rig.baseline, zbuf, out=zbuf, where=hit)
    zbuf[~hit] = -1.0
    return zbuf


def synth_stereo_pair(spec, disparity):
    """Textured stereo pair consistent with a rendered disparity map.

    ``disparity`` is render_disparity(spec, rig) for the rig the pair is
    for; spec supplies the texture seed. The left view overlays seeded
    high-frequency texture on the rendered scene; the right view is the left
    warped by the disparity, over a static background plane at a fixed
    integer disparity, with true occlusions showing that background texture.
    """
    h, w = disparity.shape
    valid = disparity >= 0

    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x57E2E0]))
    # both draws stay int64, the dtype that fixes the seeded stream
    bg = rng.integers(40, 200, (h, w + _BG_DISPARITY), dtype=np.int64).astype(np.uint8)
    rod_tex = rng.integers(0, 256, (h, w), dtype=np.int64)[valid]

    # positive disparity: content sits further left in the right view, so
    # left reads the low columns of the wide background strip and right the
    # high ones
    left = bg[:, :w].copy()
    ds = disparity[valid]
    if ds.size:
        # mild depth shading under the texture keeps the render recognizable
        dmin, dmax = ds.min(), ds.max()
        span = max(dmax - dmin, 1e-9)
        shade = (ds - dmin) / span
        left[valid] = np.clip(0.75 * rod_tex + 40.0 * shade, 0, 255).astype(np.uint8)

    right = bg[:, _BG_DISPARITY:].copy()
    # ...and scene pixels splat to u - d with the nearest surface winning
    vs, us = np.nonzero(valid)
    # tested as floats: a column beyond int64's range has no integer
    ut = np.floor(us - ds + 0.5)
    keep = (ut >= 0) & (ut < w)
    vs, us, ut, ds = vs[keep], us[keep], ut[keep].astype(int), ds[keep]
    nearest_first = np.argsort(-ds, kind="stable")
    flat = vs[nearest_first] * w + ut[nearest_first]
    _, first = np.unique(flat, return_index=True)
    src = nearest_first[first]
    right.flat[vs[src] * w + ut[src]] = left[vs[src], us[src]]
    return left, right


def emit_ground_truth_boxes(truth, cam):
    """DetectionBoxes centered on each node's projected pixel."""
    pix = project(cam, truth.nodes)
    boxes = []
    for u, v in pix:
        if not (0 <= u < cam.width and 0 <= v < cam.height):
            raise BadParameter(
                f"node projects outside the image at ({u:.1f}, {v:.1f})"
            )
        boxes.append(
            DetectionBox(0, u / cam.width, v / cam.height, _BOX_SIZE, _BOX_SIZE)
        )
    return boxes


# The scene file's keys besides grid_pose, in write_grid_spec's order.
_SPEC_TYPES = dict(rows=int, cols=int, spacing_x=float, spacing_z=float, rod_radius=float,
                   layer_gap=float, noise_sigma=float, outlier_fraction=float, seed=int)


def write_grid_spec(path, spec):
    """Flat key=value scene file; the pose is 12 row-major [R|t] numbers."""
    with open(path, "w") as f:
        for name in _SPEC_TYPES:
            f.write(f"{name} = {getattr(spec, name)}\n")
        pose = spec.grid_pose
        m = np.hstack([pose.rotation, pose.translation[:, None]])
        # repr is the shortest text that reads back as the same float, so the
        # pose passes read_grid_spec's orthonormality check as it did here
        f.write("grid_pose = " + " ".join(repr(float(v)) for v in m.ravel()) + "\n")


def read_grid_spec(path):
    values = parse_keyvalues(read_text(path))
    pose = values.pop("grid_pose", None)
    kwargs = convert_keyvalues(values, _SPEC_TYPES)
    if pose is not None:
        lineno, parts = pose[0], pose[1].split()
        if len(parts) != 12:
            raise ParseError(lineno, "grid_pose needs 12 numbers")
        try:
            m = np.array([float(v) for v in parts]).reshape(3, 4)
        except ValueError:
            raise ParseError(lineno, "non-numeric grid_pose") from None
        if not np.isfinite(m).all():
            raise ParseError(lineno, "non-finite grid_pose")
        try:
            kwargs["grid_pose"] = RigidTransform(m[:, :3], m[:, 3], "grid", "camera")
        except ValueError as e:
            raise ParseError(lineno, f"bad grid_pose: {e}") from None
    try:
        return GridSpec(**kwargs)
    except ValueError as e:
        raise ParseError(0, f"bad scene: {e}") from None
