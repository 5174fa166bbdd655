"""Point clouds and conditioning: statistical outlier removal, voxel downsampling."""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, ParseError, TooFewPoints

# Rows formatted per write call: about 100 kB of text at a time, so a
# large cloud is never held as one string.
_WRITE_BLOCK_ROWS = 4096

# Points per SOR kNN query: with k = 16 the query returns about 18 MB of
# distances and indices per block, where the whole 727k-point stereo cloud
# at once would take about 200 MB.
_SOR_QUERY_ROWS = 65536


@dataclass
class PointCloud:
    """Metric 3-D points in the camera frame.

    provenance, when present, gives each point's source pixel (u, v) in the
    disparity map it was reconstructed from; filters keep it in lockstep.
    """

    points: np.ndarray
    provenance: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        self.points = pts
        if self.provenance is not None:
            prov = np.asarray(self.provenance).reshape(-1, 2)
            if prov.shape[0] != pts.shape[0]:
                raise ValueError("provenance length must match point count")
            self.provenance = prov

    def __len__(self):
        return self.points.shape[0]

    def take(self, indices):
        """Sub-cloud at the given indices, provenance filtered in lockstep."""
        prov = None if self.provenance is None else self.provenance[indices]
        return PointCloud(self.points[indices], prov)


def statistical_outlier_removal(cloud, k=16, sigma_mult=1.0):
    """Drop points whose mean k-nearest-neighbor distance is anomalous.

    A point is removed when its mean distance to its k nearest neighbors
    exceeds mu + sigma_mult * sigma, where mu and sigma are taken over the
    whole cloud. Exact kNN; survivor order preserved.
    """
    if k < 1:
        raise BadParameter("k must be >= 1")
    n = len(cloud)
    if n <= k:
        raise TooFewPoints(f"cloud of size {n} needs more than k={k} points")
    # imported here: scipy.spatial adds about 0.2 s to every subcommand's
    # start-up, and no other stage needs it
    from scipy.spatial import cKDTree

    # The kNN distances are exact, so the tree's shape, the threads the
    # query runs on and the blocks it is split into cannot change them; the
    # unbalanced, non-compact tree is the quicker one to build. k+1 because
    # the query returns each point itself at distance zero.
    tree = cKDTree(cloud.points, balanced_tree=False, compact_nodes=False)
    mean_dists = np.empty(n)
    for start in range(0, n, _SOR_QUERY_ROWS):
        block = cloud.points[start : start + _SOR_QUERY_ROWS]
        dists, _ = tree.query(block, k=k + 1, workers=-1)
        mean_dists[start : start + len(block)] = dists[:, 1:].mean(axis=1)
    mu = mean_dists.mean()
    sigma = mean_dists.std()
    keep = np.flatnonzero(mean_dists <= mu + sigma_mult * sigma)
    return cloud.take(keep)


def voxel_downsample(cloud, voxel_size=0.005):
    """Replace the points of each occupied voxel with their centroid.

    Voxel index is floor(coord / voxel_size) per axis; output is ordered by
    ascending (ix, iy, iz). Provenance is dropped (centroids have no single
    source pixel).
    """
    if voxel_size <= 0:
        raise BadParameter("voxel_size must be positive")
    if len(cloud) == 0:
        return PointCloud(np.empty((0, 3)))
    keys = np.floor(cloud.points / voxel_size).astype(np.int64)
    # stable sort by (ix, iy, iz): each voxel's points form one run, still
    # in input order, so bincount sums them in the order they came in
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
    voxel = np.cumsum(starts) - 1
    counts = np.bincount(voxel)
    pts = cloud.points[order]
    sums = np.stack([np.bincount(voxel, weights=pts[:, a]) for a in range(3)], axis=1)
    return PointCloud(sums / counts[:, None])


def write_ply(path, cloud):
    """Write an ASCII PLY with float x/y/z at 6 significant digits."""
    pts = cloud.points
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {pts.shape[0]}\n")
        f.write("property float x\nproperty float y\nproperty float z\n")
        f.write("end_header\n")
        for start in range(0, pts.shape[0], _WRITE_BLOCK_ROWS):
            block = pts[start : start + _WRITE_BLOCK_ROWS]
            f.write(("%.6g %.6g %.6g\n" * len(block)) % tuple(block.ravel().tolist()))


def parse_float_rows(lines, shape, parse_loop):
    """Parse whitespace-separated float rows, one row per line.

    numpy's C parser reads ``lines`` (exactly the rows expected) and its
    result is kept only when it has ``shape`` and every value is finite.
    Otherwise, or when it fails, ``parse_loop()`` decides: the line-by-line
    parser that returns the array or raises ParseError naming the offending
    line, which is also how a nan or inf is rejected. The C parser rejects
    every token ``float()`` rejects, but also some it accepts (``1_0``), and
    it skips blank lines; the loop settles both.
    """
    try:
        with warnings.catch_warnings():
            # loadtxt warns when no line holds data; the shape check catches it
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        pass
    else:
        if rows.shape == shape and np.isfinite(rows).all():
            return rows
    return parse_loop()


def read_ply(path):
    """Read the ASCII PLY subset written by write_ply."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError(1, "missing 'ply' magic")
    count = None
    body_start = None
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            try:
                count = int(parts[2])
            except (IndexError, ValueError):
                raise ParseError(i, "bad element vertex line") from None
            if count < 0:
                raise ParseError(i, f"negative vertex count {count}")
        elif parts == ["end_header"]:
            body_start = i
            break
    if count is None or body_start is None:
        raise ParseError(len(lines), "header missing vertex count or end_header")

    def parse_loop():
        pts = np.empty((count, 3))
        for j in range(count):
            lineno = body_start + 1 + j
            if lineno > len(lines):
                raise ParseError(lineno, "fewer vertex lines than declared")
            parts = lines[lineno - 1].split()
            if len(parts) != 3:
                raise ParseError(lineno, f"expected 3 fields, got {len(parts)}")
            try:
                pts[j] = [float(v) for v in parts]
            except ValueError:
                raise ParseError(lineno, "non-numeric coordinate") from None
            if not np.isfinite(pts[j]).all():
                raise ParseError(lineno, "non-finite coordinate")
        return pts

    body = lines[body_start : body_start + count]
    return PointCloud(parse_float_rows(body, (count, 3), parse_loop))
