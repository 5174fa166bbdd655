"""Detection of the two parallel rebar-layer planes.

RANSAC finds the dominant plane and hence the shared normal; projecting
every point onto that normal gives scalar offsets which a two-cluster
least-squares split separates into the near and far layers.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadParameter, DegenerateInput, LayersTooClose, NoConsensus, ParseError
from .geometry import Plane, check_coordinates, fit_plane_least_squares, plane_signed_distance
from .textio import finite_floats, read_text

# Points per block when a RANSAC candidate is scored; a power of two, so each
# row sits at the same place within the BLAS kernel's unrolled loop in its
# block as in the whole cloud.
_SCORE_ROWS = 16384

# Triples drawn per batch of candidates; it bounds their memory whatever
# the iteration count.
_CANDIDATE_CHUNK = 1024


@dataclass(frozen=True)
class RansacParams:
    iterations: int = 500
    inlier_threshold: float = 0.005
    min_inlier_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise BadParameter("iterations must be >= 1")
        if self.inlier_threshold <= 0:
            raise BadParameter("inlier_threshold must be positive")
        if not 0 < self.min_inlier_fraction <= 1:
            raise BadParameter("min_inlier_fraction must be in (0, 1]")
        if self.seed < 0:
            raise BadParameter("seed must be >= 0")


@dataclass
class ParallelPlanePair:
    """Two parallel planes sharing one normal exactly.

    offset_near belongs to the layer closer to the camera along +z.
    """

    normal: np.ndarray
    offset_near: float
    offset_far: float
    inlier_counts: tuple

    def near_plane(self):
        return Plane(self.normal, self.offset_near)

    def far_plane(self):
        return Plane(self.normal, self.offset_far)

    def mid_plane(self):
        """Plane halfway between the layers; ties happen between them."""
        return Plane(self.normal, 0.5 * (self.offset_near + self.offset_far))


class _Candidate(NamedTuple):
    """A hypothesis as plane_signed_distance reads it, without Plane's
    checks and sign flip; the flip negates every distance exactly, so the
    inlier count is the same."""

    normal: np.ndarray
    offset: np.float64


def _candidate_planes(pts, triples):
    """Unit normals and offsets of the planes through the rows of triples
    (index triples into pts) that are not collinear, in draw order.

    Whole-array operations with the bits of the one-triple ones: np.cross
    rows, and np.vecdot of 3-vectors as np.linalg.norm and @ sum them.
    """
    base = pts[triples[:, 0]]
    a = pts[triples[:, 1]] - base
    b = pts[triples[:, 2]] - base
    normals = np.cross(a, b)
    norms = np.sqrt(np.vecdot(normals, normals))
    scale = np.sqrt(np.vecdot(a, a)) * np.sqrt(np.vecdot(b, b))
    kept = norms > 1e-12 * (scale + 1e-300)  # collinear samples are skipped
    normals = normals[kept] / norms[kept, None]
    return normals, np.vecdot(normals, base[kept])


def ransac_dominant_plane(cloud, params):
    """RANSAC plane fit: returns (plane, inlier index array).

    Deterministic given params.seed. Iterations that draw collinear triples
    are skipped. Raises NoConsensus when the best inlier fraction stays
    below params.min_inlier_fraction.

    Triples are drawn _CANDIDATE_CHUNK at a time, one rng.choice each, and
    their candidates built together. A candidate is scored in blocks of
    _SCORE_ROWS points and dropped once the points it has not seen could
    not lift its count above the best's. The first candidate with the most
    inliers still wins, with the same count: the matrix-vector product
    gives each row of a block of two or more rows the same bits as the
    product over the whole cloud.
    """
    pts = cloud.points
    n = pts.shape[0]
    if n < 3:
        raise NoConsensus(f"cloud of size {n} cannot support a plane")
    check_coordinates(pts, NoConsensus)
    # scoring blocks end here; a one-row last block joins the one before it,
    # since numpy's product of a single row may round differently
    stops = [*range(_SCORE_ROWS, n - 1, _SCORE_ROWS), n]
    rng = np.random.default_rng(params.seed)
    best_count = 0
    best = None
    for first in range(0, params.iterations, _CANDIDATE_CHUNK):
        draws = min(_CANDIDATE_CHUNK, params.iterations - first)
        triples = np.array([rng.choice(n, size=3, replace=False) for _ in range(draws)])
        for candidate in map(_Candidate, *_candidate_planes(pts, triples)):
            count = 0
            start = 0
            for stop in stops:
                if count + (n - start) <= best_count:
                    break  # even all the rows left could not make it the first best
                dist = plane_signed_distance(candidate, pts[start:stop])
                count += int(np.count_nonzero(np.abs(dist) <= params.inlier_threshold))
                start = stop
            if count > best_count:
                best_count = count
                best = candidate
    if best is None or best_count / n < params.min_inlier_fraction:
        raise NoConsensus(
            f"best inlier fraction {best_count / n:.3f} "
            f"< {params.min_inlier_fraction}"
        )
    best_plane = Plane(best.normal, float(best.offset))
    inliers = np.flatnonzero(
        np.abs(plane_signed_distance(best_plane, pts)) <= params.inlier_threshold
    )
    refit = fit_plane_least_squares(pts[inliers])
    inliers = np.flatnonzero(
        np.abs(plane_signed_distance(refit, pts)) <= params.inlier_threshold
    )
    return refit, inliers


def kmeans_split_offsets(offsets):
    """Optimal two-cluster split of scalar values, plus the cluster means.

    Returns ((low_indices, high_indices), (low_mean, high_mean)). The split
    minimizes the within-cluster sum of squares over all sorted-threshold
    partitions, which is the exact two-means optimum in one dimension, so it
    needs no random restarts. Raises DegenerateInput when all values are
    equal.
    """
    v = np.asarray(offsets, dtype=float).ravel()
    if v.size < 2:
        raise DegenerateInput("need at least 2 values")
    if np.all(v == v[0]):
        raise DegenerateInput("all offsets are equal")
    order = np.argsort(v, kind="stable")
    s = v[order]
    n = s.size
    # within-cluster sums of squares from prefix sums:
    # sum((x - mu)^2) = sum(x^2) - (sum x)^2 / count
    csum = np.cumsum(s)
    csq = np.cumsum(s * s)
    counts = np.arange(1, n, dtype=float)
    left = csq[:-1] - csum[:-1] ** 2 / counts
    rsum = csum[-1] - csum[:-1]
    rsq = csq[-1] - csq[:-1]
    right = rsq - rsum**2 / (n - counts)
    split = int(np.argmin(left + right)) + 1
    low = np.sort(order[:split])
    high = np.sort(order[split:])
    return (low, high), (float(v[low].mean()), float(v[high].mean()))


def detect_parallel_planes(cloud, params):
    """Find the two parallel rebar-layer planes in a conditioned cloud.

    The dominant RANSAC plane fixes the shared normal; every point's offset
    along it is split into two layers whose offsets are refit as the mean
    offset (least squares under the fixed normal). Raises LayersTooClose
    when the layer offsets are within twice the inlier threshold, as they
    are, at a zero gap, when every point lies on one plane.
    """
    plane, _ = ransac_dominant_plane(cloud, params)
    normal = plane.normal
    offsets = cloud.points @ normal
    if np.all(offsets == offsets[0]):
        # one plane holds every point: both layers are it, a zero gap
        low = high = np.arange(offsets.size)
        mean_low = mean_high = float(offsets[0])
    else:
        (low, high), (mean_low, mean_high) = kmeans_split_offsets(offsets)
    z_low = cloud.points[low, 2].mean()
    z_high = cloud.points[high, 2].mean()
    if z_low <= z_high:
        near_idx, far_idx = low, high
        offset_near, offset_far = mean_low, mean_high
    else:
        near_idx, far_idx = high, low
        offset_near, offset_far = mean_high, mean_low
    if abs(offset_near - offset_far) < 2 * params.inlier_threshold:
        raise LayersTooClose(
            f"layer offsets {offset_near:.4f} and {offset_far:.4f} are within "
            f"2x inlier threshold"
        )
    counts = tuple(
        int(np.count_nonzero(np.abs(offsets[idx] - off) <= params.inlier_threshold))
        for idx, off in ((near_idx, offset_near), (far_idx, offset_far))
    )
    return ParallelPlanePair(
        normal=normal,
        offset_near=offset_near,
        offset_far=offset_far,
        inlier_counts=counts,
    )


def write_plane_pair(path, pair):
    """Plane parameters file: normal, both offsets, frame; 9 digits."""
    n = pair.normal
    with open(path, "w") as f:
        f.write(f"normal {n[0]:.9g} {n[1]:.9g} {n[2]:.9g}\n")
        f.write(f"offset_near {pair.offset_near:.9g}\n")
        f.write(f"offset_far {pair.offset_far:.9g}\n")
        f.write("frame camera\n")


# The plane file's keys, in write_plane_pair's order, and the values each takes.
_PLANE_FIELDS = {"normal": 3, "offset_near": 1, "offset_far": 1, "frame": 1}


def read_plane_pair(path):
    """Read a plane parameters file: finite values, frame camera.

    Each key's line holds exactly its values, and any other non-blank line
    is a ParseError. Inlier counts are not serialized and come back zeroed.
    """
    lines = read_text(path).splitlines()
    fields = {}
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        key, values = parts[0], parts[1:]
        if key not in _PLANE_FIELDS or key in fields:
            raise ParseError(lineno, f"unexpected '{key}' line")
        n = _PLANE_FIELDS[key]
        if len(values) != n:
            raise ParseError(lineno, f"{key} needs {n} value{'s' * (n > 1)}, got {len(values)}")
        fields[key] = (lineno, values)
    for key in _PLANE_FIELDS:
        if key not in fields:
            raise ParseError(len(lines), f"missing '{key}' line")
    if fields["frame"][1] != ["camera"]:
        raise ParseError(fields["frame"][0], "frame must be camera")
    numbers = {}
    for key in ("normal", "offset_near", "offset_far"):
        lineno, values = fields[key]
        numbers[key] = finite_floats(values, lineno, key)
    normal = np.array(numbers.pop("normal"))
    # divide by the largest component first, so that squaring a huge or tiny
    # normal inside the norm can neither overflow nor underflow
    scale = float(np.abs(normal).max())
    if scale == 0:
        raise ParseError(fields["normal"][0], "zero normal")
    normal = normal / scale
    norm = float(np.linalg.norm(normal))
    offsets = {key: value / scale / norm for key, (value,) in numbers.items()}
    for key, value in offsets.items():
        if not math.isfinite(value):
            raise ParseError(fields[key][0], f"non-finite {key}")
    return ParallelPlanePair(normal=normal / norm, inlier_counts=(0, 0), **offsets)
