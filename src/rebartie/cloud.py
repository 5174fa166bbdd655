"""Point clouds and conditioning: statistical outlier removal, voxel downsampling."""

import functools
import os
from dataclasses import dataclass

import numpy as np

from .blocks import run_striped
from .errors import BadParameter, CoordinateOutOfRange, ParseError, TooFewPoints
from .geometry import check_coordinates, project
from .textio import iter_lines, parse_float_rows, read_text

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

# The widest pixel window SOR tries before the kd-tree: k = 16's, 17x17.
_WIDE_RADIUS = 8

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

    def take(self, keep):
        """The sub-cloud of the rows where the boolean mask keep is true,
        provenance in lockstep, copied a block of rows at a time: no
        whole-cloud index array is held next to the result."""
        columns = [a for a in (self.points, self.provenance) if a is not None]
        out = [np.empty((int(np.count_nonzero(keep)), a.shape[1]), a.dtype) for a in columns]
        at = 0
        for start in range(0, len(keep), _SOR_BLOCK_ROWS):
            rows = keep[start : start + _SOR_BLOCK_ROWS]
            stop = at + int(np.count_nonzero(rows))
            for a, b in zip(columns, out):
                b[at:stop] = a[start : start + _SOR_BLOCK_ROWS][rows]
            at = stop
        return PointCloud(*out)


def statistical_outlier_removal(cloud, k=16, sigma_mult=1.0, camera=None):
    """Drop points whose mean k-nearest-neighbor distance is anomalous.

    A point is removed when its mean distance to its k nearest neighbors
    exceeds mu + sigma_mult * sigma, where mu and sigma are taken over the
    whole cloud; TooFewPoints when no point is left, CoordinateOutOfRange
    before any kNN work when a coordinate lies beyond MAX_COORDINATE m.
    Exact kNN; survivor order preserved.

    The mean distances come from a cascade of neighbour sources, each given
    the rows the one before it leaves: given the camera the cloud was
    back-projected with, _PixelWindows' narrow window, then its wide one,
    then the kd-tree, which settles every row it is given. A cloud that does
    not lie one point to a pixel ray goes to the tree whole. Every source
    gives the tree's distances, so the camera changes no result.
    """
    if k < 1:
        raise BadParameter("k must be >= 1")
    n = len(cloud)
    if n <= k:
        raise TooFewPoints(f"cloud of size {n} needs more than k={k} points")
    points = cloud.points
    check_coordinates(points, CoordinateOutOfRange)
    mean_dists = np.empty(n)
    rows = None  # every row
    windows = None if camera is None else _PixelWindows.build(points, camera, k)
    for window in windows.windows if windows else ():
        rows = _settle(points, rows, window.rows, windows.scratch,
                       functools.partial(windows._prove, window), mean_dists)
    # the windows' index image is freed before the tree is built, so the
    # two are never held at once
    del windows
    if rows is None or len(rows):
        _tree_settle(points, k, rows, mean_dists)
    threshold = mean_dists.mean() + sigma_mult * mean_dists.std()
    keep = mean_dists <= threshold
    del mean_dists  # its memory can hold the survivors
    if not keep.any():
        raise TooFewPoints(
            "no point survives: every mean kNN distance exceeds "
            f"mu + sigma_mult * sigma = {threshold:.6g}"
        )
    return cloud.take(keep)


def _settle(points, rows, batch_rows, make_scratch, prove, mean_dists):
    """One source's step of SOR's cascade over points[rows], or over every
    point, in contiguous slices, when rows is None: prove(batch, scratch)
    returns which points of the batch it settles and their mean kNN
    distances, which go into mean_dists. Return the rows it leaves.

    Blocks of _SOR_BLOCK_ROWS rows run on run_striped's threads, so no more
    threads, each with its own scratch, run than the cloud has blocks; each
    block goes to prove batch_rows rows at a time. The threads mark the rows
    left in one mask made here, so they hold no array past their batch.
    """
    count = len(points) if rows is None else len(rows)
    left = np.empty(count, bool)

    def work(scratch, mine):
        for start in mine:
            end = min(start + _SOR_BLOCK_ROWS, count)
            for at in range(start, end, batch_rows):
                stop = min(at + batch_rows, end)
                batch = np.arange(at, stop) if rows is None else rows[at:stop]
                proven, means = prove(points[at:stop] if rows is None else points[batch], scratch)
                mean_dists[batch[proven]] = means
                np.logical_not(proven, out=left[at:stop])

    if count:
        # numpy and the tree query release the GIL, so the blocks run in parallel
        run_striped(range(0, count, _SOR_BLOCK_ROWS), make_scratch, work)
    return np.flatnonzero(left) if rows is None else rows[left]


def _tree_settle(points, k, rows, mean_dists):
    """_settle points[rows], every point when rows is None, from a kd-tree
    over the whole cloud."""
    # imported here: scipy.spatial adds about 0.3 s and 38 MB to a process,
    # and only the points no pixel window settles need it
    from scipy.spatial import cKDTree

    # The kNN distances are exact, so the tree's shape, the threads the
    # query runs on and the batches it is split into cannot change them; the
    # unbalanced, non-compact tree is the quicker one to build.
    tree = cKDTree(points, balanced_tree=False, compact_nodes=False)

    def prove(block, _):
        # k+1 because the query returns each point itself at distance zero
        dists, _ = tree.query(block, k=k + 1)
        return np.ones(len(block), bool), dists[:, 1:].mean(axis=1)

    _settle(points, rows, _SOR_BLOCK_ROWS, lambda: None, prove, mean_dists)


@dataclass
class _Window:
    """One pixel window of _PixelWindows: the flat offsets of its pixels
    but the centre in the padded index image, the bound's s along u and v,
    and the points it takes per batch."""

    offsets: np.ndarray
    su: float
    sv: float
    rows: int

    def bound(self, block):
        """Each point's distance bound to the points outside the window. A
        square that overflows (a tiny fx) gives 0 or nan, which proves no
        point; with z <= MAX_COORDINATE, z s overflows only where the
        square already has, so the bound is never inf."""
        x, y, z = block.T
        with np.errstate(over="ignore", invalid="ignore"):
            return np.minimum(
                z * self.su / np.sqrt(1 + (np.abs(x / z) + self.su) ** 2),
                z * self.sv / np.sqrt(1 + (np.abs(y / z) + self.sv) ** 2),
            )


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

    windows holds the narrow window, the smallest with 3k neighbours or
    more (R = 3 for k = 16), then, when it is wider, the wide one, R =
    ceil(k/2), which holds the k nearest of a point on a line of pixels one
    pixel wide, k/2 on each side (R = 8 for k = 16). The wide radius is at
    most _WIDE_RADIUS, k = 16's: a window's cost per point grows with its
    area, k^2, the tree query's with k.
    """

    def __init__(self, points, camera, k, radii, index):
        self.flat = np.ascontiguousarray(points).reshape(-1)  # x0 y0 z0 x1 ...
        self.camera = camera
        self.k = k
        self.pad = radii[-1]
        self.index = index  # the point on each pixel, -1 on none; padded by the widest radius
        offsets = [self._offsets(r) for r in radii]
        narrow_rows = min(_SOR_BLOCK_ROWS, max(1, _SOR_WINDOW_VALUES // len(offsets[0])))
        # a wider window takes as many points at a time as fill the narrow
        # one's block of scratch, and at least one
        self.scratch_values = max(narrow_rows * len(offsets[0]), len(offsets[-1]))
        # the bound's s for a pixel R+1 away, less the _PIXEL_TOL by which
        # each of the two points may sit off its pixel's centre
        self.windows = [
            _Window(
                offsets=o,
                su=(r + 1 - 2 * _PIXEL_TOL) / camera.fx,
                sv=(r + 1 - 2 * _PIXEL_TOL) / camera.fy,
                rows=self.scratch_values // len(o),
            )
            for r, o in zip(radii, offsets)
        ]

    def _offsets(self, radius):
        """Each window pixel but the centre, as flat offsets in the padded image."""
        dv, du = np.divmod(np.arange((2 * radius + 1) ** 2), 2 * radius + 1)
        offsets = (dv - radius) * self.index.shape[1] + (du - radius)
        return offsets[offsets != 0]

    @classmethod
    def build(cls, points, camera, k):
        """The windows of a cloud, or None unless each point lies on its own
        pixel's ray: z finite and positive, fx x/z + cx and fy y/z + cy
        within _PIXEL_TOL of a pixel of the frame, no two points on one
        pixel. disparity_to_cloud's clouds always do.
        """
        w, h = camera.width, camera.height
        n = len(points)
        narrow = 1
        while (2 * narrow + 1) ** 2 - 1 < 3 * k:
            narrow += 1
        wide = min(-(-k // 2), _WIDE_RADIUS)
        radii = [narrow] + ([wide] if wide > narrow else [])
        pad = radii[-1]
        index = np.full((h + 2 * pad, w + 2 * pad), -1, dtype=np.int32)
        frame = index[pad : pad + h, pad : pad + w]
        windows = cls(points, camera, k, radii, index)
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

    def scratch(self):
        """One thread's buffers for _prove."""
        return [np.empty(self.scratch_values, t) for t in (np.intp, np.int32, bool, float, float)]

    def _prove(self, window, block, scratch):
        """Which points of block the window proves, and their mean kNN
        distances."""
        k, r = self.k, self.pad
        at, nbr, empty, d2, coord = (
            a[: len(block) * len(window.offsets)].reshape(len(block), -1) for a in scratch
        )
        # build put every point on a pixel of the frame, so nothing overflows
        u, v = (np.rint(c).astype(np.intp) + r for c in project(self.camera, block).T)
        centre = v * self.index.shape[1] + u
        np.add(centre[:, None], window.offsets, out=at)
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
        bound = window.bound(block) * (1 - _BOUND_MARGIN)
        proven = d2[:, k - 1] <= bound * bound
        nearest = d2[proven, :k]
        nearest.sort(axis=1)
        return proven, np.sqrt(nearest, out=nearest).mean(axis=1)


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
        scaled = _times_pow10(values, k)
        # log10 may be one off near a power of ten
        k += np.abs(scaled) < 1e5
        k -= np.abs(scaled) >= 1e6
        scaled = _times_pow10(values, k)
        digits = np.rint(scaled)
        fast &= (np.abs(scaled - digits) < 0.5 - 1e-6) & (np.abs(digits) >= 1e5) & (np.abs(digits) <= 1e6)
    return digits, k, fast


def _times_pow10(values, k):
    """values * 10**k for integer k, |k| <= 22: one multiply by the exact
    power of ten where k >= 0, one divide by it where k < 0."""
    scale = _POW10[np.abs(k)]
    up = k >= 0
    out = np.empty(values.shape)
    np.multiply(values, scale, out=out, where=up)
    np.divide(values, scale, out=out, where=~up)
    return out


def round_to_6_digits(values):
    """float("%.6g" % v) for each of a 1-D float64 array, bit for bit.

    The digits over (or times) six_digits' power of ten round once, as
    parsing the decimal does; the values six_digits cannot settle are
    formatted one by one.
    """
    digits, k, fast = six_digits(values)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _times_pow10(digits, -k)
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
    lines = iter_lines(read_text(path))
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
    return PointCloud(parse_float_rows(lines, body_start + 1, (count, 3), "coordinate"))
