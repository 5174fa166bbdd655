"""Point clouds and conditioning: statistical outlier removal, voxel downsampling."""

import itertools
import os
from dataclasses import dataclass

import numpy as np

from .blocks import run_striped
from .errors import BadParameter, ParseError, TooFewPoints
from .geometry import project
from .textio import parse_float_rows, text_lines

# The header write_ply writes, and the only binary header read_ply takes.
_PLY_BINARY_HEADER = (
    "ply\nformat binary_little_endian 1.0\nelement vertex {n}\n"
    "property double x\nproperty double y\nproperty double z\nend_header\n"
)

# Rows per block when write_ply rounds a cloud.
_WRITE_ROWS = 16384

# 10**k for k = 0..22: every one is a double, so scaling by one rounds once.
_POW10 = np.array([float(10**k) for k in range(23)])

# Points per SOR block. Each thread's window-pass scratch holds 48 int64,
# int32, bool and two float64 values per point at k = 16: 2.9 MB. A larger
# k, whose window is larger, takes fewer points per block, so the scratch
# stays that size. Longer numpy calls let the threads overlap more: on the
# default stereo cloud a second CPU cut SOR's time by 20% with 2048-row
# blocks, 13% with 1024.
_SOR_BLOCK_ROWS = 2048
_SOR_WINDOW_VALUES = 48 * _SOR_BLOCK_ROWS

# How far x/z and y/z may put a point from its pixel's centre, in pixels,
# for the window pass to take the point as lying on that pixel's ray.
_PIXEL_TOL = 1e-6

# The window pass's proof asks for the k-th window distance to lie below the
# bound by this relative margin, which covers the rounding of both.
_BOUND_MARGIN = 1e-9

# floor(coord / voxel_size) must lie in [-2**63, 2**63) to be an int64 key.
_KEY_LIMIT = 2.0**63


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


def statistical_outlier_removal(cloud, k=16, sigma_mult=1.0, camera=None):
    """Drop points whose mean k-nearest-neighbor distance is anomalous.

    A point is removed when its mean distance to its k nearest neighbors
    exceeds mu + sigma_mult * sigma, where mu and sigma are taken over the
    whole cloud; TooFewPoints when no point is left. Exact kNN; survivor
    order preserved.

    Given the camera the cloud was back-projected with, a point takes its
    neighbours from its pixel window when _PixelWindows proves them the k
    nearest; the kd-tree answers every other point, and every point of a
    cloud that does not lie one point to a pixel ray. Both give the same
    distances, so the camera changes no result.
    """
    if k < 1:
        raise BadParameter("k must be >= 1")
    n = len(cloud)
    if n <= k:
        raise TooFewPoints(f"cloud of size {n} needs more than k={k} points")
    # imported here: scipy.spatial adds about 0.2 s to every subcommand's
    # start-up, and no other stage needs it
    from scipy.spatial import cKDTree

    points = cloud.points
    # The kNN distances are exact, so the tree's shape, the threads the
    # query runs on and the blocks it is split into cannot change them; the
    # unbalanced, non-compact tree is the quicker one to build. It is built
    # before the pixel windows, so its build transient and their index
    # image are not held at once.
    tree = cKDTree(points, balanced_tree=False, compact_nodes=False)
    windows = None if camera is None else _PixelWindows.build(points, camera, k)
    mean_dists = np.empty(n)
    block = _SOR_BLOCK_ROWS if windows is None else windows.block_rows

    def work(scratch, starts):
        for start in starts:
            stop = min(start + block, n)
            if windows is None:
                rest = np.arange(start, stop)
            else:
                rest = start + windows.fill(points[start:stop], mean_dists[start:stop], scratch)
            if len(rest):
                # k+1 because the query returns each point itself at distance zero
                dists, _ = tree.query(points[rest], k=k + 1)
                mean_dists[rest] = dists[:, 1:].mean(axis=1)

    # numpy and the tree query release the GIL, so the blocks run in parallel
    run_striped(range(0, n, block), (lambda: None) if windows is None else windows.scratch, work)
    del tree, windows
    threshold = mean_dists.mean() + sigma_mult * mean_dists.std()
    keep = np.flatnonzero(mean_dists <= threshold)
    del mean_dists  # its memory, the tree's and the windows' can hold the survivors
    if len(keep) == 0:
        raise TooFewPoints(
            "no point survives: every mean kNN distance exceeds "
            f"mu + sigma_mult * sigma = {threshold:.6g}"
        )
    return cloud.take(keep)


class _PixelWindows:
    """Exact kNN distances from each point's (2R+1)^2 pixel window.

    Each point lies on its own pixel's ray: X = z (a, b, 1), a = (u - cx)/fx,
    b = (v - cy)/fy. A point X' whose pixel lies R+1 or more columns from
    X's has |a' - a| >= s = (R+1)/fx, so with t the depth difference
    |X - X'|^2 >= (z d - t |a'|)^2 + t^2 for some d >= s and |a'| <= |a| + d.
    Its minimum over t, z d / sqrt(1 + (|a| + d)^2), grows with d, so
    |X - X'| >= z s / sqrt(1 + (|a| + s)^2); rows give the same bound with
    fy and b. A point whose k-th smallest window distance lies below both
    bounds has its k nearest neighbours in its window, and their distances,
    computed as cKDTree computes them, are the tree's bit for bit.
    """

    def __init__(self, points, camera, k, radius, index):
        self.flat = np.ascontiguousarray(points).reshape(-1)  # x0 y0 z0 x1 ...
        self.camera = camera
        self.k = k
        self.radius = radius
        self.index = index  # the point on each pixel, -1 on none; padded by radius
        # each window pixel but the centre, as flat offsets in the padded image
        dv, du = np.divmod(np.arange((2 * radius + 1) ** 2), 2 * radius + 1)
        offsets = (dv - radius) * index.shape[1] + (du - radius)
        self.offsets = offsets[offsets != 0]
        self.block_rows = min(_SOR_BLOCK_ROWS, max(1, _SOR_WINDOW_VALUES // len(self.offsets)))
        # the bound's s for a pixel R+1 away, less the _PIXEL_TOL by which
        # each of the two points may sit off its pixel's centre
        self.su = (radius + 1 - 2 * _PIXEL_TOL) / camera.fx
        self.sv = (radius + 1 - 2 * _PIXEL_TOL) / camera.fy

    @classmethod
    def build(cls, points, camera, k):
        """The windows of a cloud, or None unless each point lies on its own
        pixel's ray: z finite and positive, fx x/z + cx and fy y/z + cy
        within _PIXEL_TOL of a pixel of the frame, no two points on one
        pixel. disparity_to_cloud's clouds always do.
        """
        w, h = camera.width, camera.height
        n = len(points)
        # the smallest window with 3k neighbours or more: R = 3 for k = 16
        radius = 1
        while (2 * radius + 1) ** 2 - 1 < 3 * k:
            radius += 1
        index = np.full((h + 2 * radius, w + 2 * radius), -1, dtype=np.int32)
        frame = index[radius : radius + h, radius : radius + w]
        windows = cls(points, camera, k, radius, index)
        for start in range(0, n, _SOR_BLOCK_ROWS):
            block = points[start : start + _SOR_BLOCK_ROWS]
            z = block[:, 2]
            if not (np.isfinite(z) & (z > 0)).all():
                return None
            with np.errstate(over="ignore"):  # an overflow is inf, off every pixel
                uf, vf = project(camera, block).T
            u, v = np.rint(uf), np.rint(vf)
            on_ray = (np.abs(uf - u) <= _PIXEL_TOL) & (np.abs(vf - v) <= _PIXEL_TOL)
            if not (on_ray & (u >= 0) & (u < w) & (v >= 0) & (v < h)).all():
                return None
            frame[v.astype(np.intp), u.astype(np.intp)] = np.arange(start, start + len(block))
        if np.count_nonzero(frame >= 0) != n:  # two points on one pixel
            return None
        return windows

    def bound(self, block):
        """Each point's distance bound to the points outside its window."""
        x, y, z = block.T
        return np.minimum(
            z * self.su / np.sqrt(1 + (np.abs(x / z) + self.su) ** 2),
            z * self.sv / np.sqrt(1 + (np.abs(y / z) + self.sv) ** 2),
        )

    def scratch(self):
        """One thread's buffers for fill."""
        shape = (self.block_rows, len(self.offsets))
        return [np.empty(shape, dtype) for dtype in (np.intp, np.int32, bool, float, float)]

    def fill(self, block, out, scratch):
        """Write the mean kNN distance of each point of block whose window
        proves its k nearest into out; return the others' rows in block."""
        k, r = self.k, self.radius
        at, nbr, empty, d2, coord = (a[: len(block)] for a in scratch)
        # build put every point on a pixel of the frame, so nothing overflows
        u, v = (np.rint(c).astype(np.intp) + r for c in project(self.camera, block).T)
        centre = v * self.index.shape[1] + u
        np.add(centre[:, None], self.offsets, out=at)
        np.take(self.index.ravel(), at, out=nbr, mode="clip")
        # (dx*dx + dy*dy) + dz*dz, as cKDTree sums them, one coordinate at a
        # time from the flat points; an empty pixel (index -1) reads a
        # clipped index, and its distance is then set to inf. mode="clip"
        # also spares take a buffered copy of out.
        np.less(nbr, 0, out=empty)
        np.multiply(nbr, 3, out=at, dtype=np.intp)
        d2.fill(0.0)
        for axis in range(3):
            np.take(self.flat, at, out=coord, mode="clip")
            at += 1
            np.subtract(block[:, axis, None], coord, out=coord)
            coord *= coord
            d2 += coord
        np.copyto(d2, np.inf, where=empty)
        d2.partition(k - 1, axis=1)
        bound = self.bound(block) * (1 - _BOUND_MARGIN)
        proven = d2[:, k - 1] <= bound * bound
        nearest = d2[proven, :k]
        nearest.sort(axis=1)
        out[proven] = np.sqrt(nearest, out=nearest).mean(axis=1)
        return np.flatnonzero(~proven)


def _voxel_key(coords, voxel_size):
    """floor(coords / voxel_size) as int64; BadParameter where it does not fit."""
    with np.errstate(over="ignore"):
        key = coords / voxel_size
    np.floor(key, out=key)
    if not (key.min() >= -_KEY_LIMIT and key.max() < _KEY_LIMIT):  # nan fails too
        raise BadParameter("voxel_size too small: coordinate / voxel_size must fit in int64")
    return key.astype(np.int64)


def voxel_downsample(cloud, voxel_size=0.005):
    """Replace the points of each occupied voxel with their centroid.

    Voxel index is floor(coord / voxel_size) per axis, which must fit in
    int64; output is ordered by ascending (ix, iy, iz). Provenance is dropped
    (centroids have no single source pixel). The working arrays are one
    column per axis, never an (n, 3) copy of the points or keys.
    """
    if voxel_size <= 0:
        raise BadParameter("voxel_size must be positive")
    if len(cloud) == 0:
        return PointCloud(np.empty((0, 3)))
    keys = [_voxel_key(cloud.points[:, a], voxel_size) for a in range(3)]
    # stable sort by (ix, iy, iz): each voxel's points form one run, still
    # in input order; a run start is where any axis's key changes
    order = np.lexsort(keys[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[0] = True
    while keys:
        key = keys.pop()[order]
        starts[1:] |= key[1:] != key[:-1]
    del key
    # each point's voxel number, in input order: bincount then sums every
    # voxel's points in the order they came in, as the sorted runs hold them
    voxel = np.empty(len(order), dtype=np.int64)
    voxel[order] = np.cumsum(starts) - 1
    del order
    counts = np.bincount(voxel)
    centroids = np.empty((len(counts), 3))
    for a in range(3):
        np.divide(np.bincount(voxel, weights=cloud.points[:, a]), counts, out=centroids[:, a])
    return PointCloud(centroids)


def write_ply(path, cloud):
    """Write a binary little-endian PLY of double x/y/z.

    Each coordinate is stored as float("%.6g" % v), the value the ASCII
    cloud.ply held: mask's pixel rounding moves with the 7th digit, so a
    full-precision cloud would change its masks.
    """
    pts = cloud.points
    with open(path, "wb") as f:
        f.write(_PLY_BINARY_HEADER.format(n=pts.shape[0]).encode("ascii"))
        for start in range(0, pts.shape[0], _WRITE_ROWS):
            block = round_to_6_digits(pts[start : start + _WRITE_ROWS].ravel())
            block.astype("<f8", copy=False).tofile(f)


def six_digits(values):
    """The 6 significant digits "%.6g" prints for each of a 1-D float64 array.

    Returns (digits, k, fast): where fast, v rounds to digits / 10**k (or
    digits * 10**-k), digits a float holding an integer of magnitude 1e5 to
    1e6. v times (or over) the exact power of ten puts its 6 significant
    digits before the point with one rounding, so rint gives the digits
    unless the scaled value lies within 1e-6 of a half. Those near-halves,
    |k| > 22, zeros and non-finite values are not fast, and callers format
    them one by one.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = 5 - np.floor(np.log10(np.abs(values)))
        fast = np.abs(k) <= 21  # room for the correction below
        k = np.where(fast, k, 0).astype(np.int64)
        scaled = np.where(k >= 0, values * _POW10[np.abs(k)], values / _POW10[np.abs(k)])
        # log10 may be one off near a power of ten
        k += np.abs(scaled) < 1e5
        k -= np.abs(scaled) >= 1e6
        scale = _POW10[np.abs(k)]
        scaled = np.where(k >= 0, values * scale, values / scale)
        digits = np.rint(scaled)
        fast &= (np.abs(scaled - digits) < 0.5 - 1e-6) & (np.abs(digits) >= 1e5) & (np.abs(digits) <= 1e6)
    return digits, k, fast


def round_to_6_digits(values):
    """float("%.6g" % v) for each of a 1-D float64 array, bit for bit.

    The digits over (or times) six_digits' power of ten round once, as
    parsing the decimal does; the values six_digits cannot settle are
    formatted one by one.
    """
    digits, k, fast = six_digits(values)
    scale = _POW10[np.abs(k)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.where(k >= 0, digits / scale, digits * scale)
    slow = np.flatnonzero(~fast)
    out[slow] = [float("%.6g" % v) for v in values[slow].tolist()]
    return out


def read_ply(path):
    """Read a PLY cloud: the binary layout write_ply writes, or ASCII rows.

    The format line, which follows the magic, picks the branch. A binary
    body has no lines, so a binary file whose header lines are not
    write_ply's (vertex count aside), whose body is not 24 bytes per vertex
    or which holds a non-finite value is a ParseError naming end_header.
    """
    with open(path, "rb") as f:
        header = _binary_ply_header(f)
        if header is not None:
            count, end_line = header
            size = os.fstat(f.fileno()).st_size - f.tell()
            if size != 24 * count:
                raise ParseError(end_line, f"binary body of {size} bytes, expected {24 * count}")
            pts = np.fromfile(f, dtype="<f8", count=3 * count).reshape(count, 3)
            if not np.isfinite(pts).all():
                raise ParseError(end_line, "non-finite coordinate")
            return PointCloud(pts)
    return _read_ascii_ply(path)


def _binary_ply_header(f):
    """Read a binary PLY's header from f: (vertex count, end_header line).

    None unless the file starts with a 'ply' line and a format line that is
    not ascii: the ASCII reader then reads the file from its start.
    """
    lines = [f.readline(), f.readline()]
    fmt = lines[1].split()
    if lines[0].strip() != b"ply" or fmt[:1] != [b"format"] or fmt[1:2] == [b"ascii"]:
        return None
    for line in f:
        lines.append(line)
        if line.strip() == b"end_header":
            break
    else:
        raise ParseError(len(lines), "header missing vertex count or end_header")
    try:
        count = int(lines[2].removeprefix(b"element vertex "))
    except ValueError:
        raise ParseError(3, "bad element vertex line") from None
    if count < 0:
        raise ParseError(3, f"negative vertex count {count}")
    if b"".join(lines) != _PLY_BINARY_HEADER.format(n=count).encode():
        raise ParseError(
            len(lines), "binary PLY must be binary_little_endian 1.0 with vertex double x, y, z only"
        )
    return count, len(lines)


def _read_ascii_ply(path):
    """Read an ASCII PLY's x y z rows, each ParseError naming its line."""
    lines = text_lines(path)
    if next(lines, "").strip() != "ply":
        raise ParseError(1, "missing 'ply' magic")
    count = None
    body_start = None
    lineno = 1
    for lineno, line in enumerate(lines, start=2):
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            try:
                count = int(parts[2])
            except (IndexError, ValueError):
                raise ParseError(lineno, "bad element vertex line") from None
            if count < 0:
                raise ParseError(lineno, f"negative vertex count {count}")
        elif parts == ["end_header"]:
            body_start = lineno
            break
    if count is None or body_start is None:
        last = lineno + sum(1 for _ in lines)  # the error names the file's last line
        raise ParseError(last, "header missing vertex count or end_header")

    body = itertools.islice(lines, count)
    return PointCloud(parse_float_rows(body, path, body_start + 1, (count, 3), "coordinate"))
