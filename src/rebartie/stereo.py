"""Rectified-stereo disparity: SAD block matching, depth conversion,
cloud reconstruction, and the sliding-window foreground filter.

Disparity maps are float64 arrays with negative values marking invalid
pixels (-1 in files).
"""

import numpy as np
from scipy import ndimage

from .cloud import PointCloud, parse_float_rows
from .errors import NonPositiveDisparity, ParseError, SizeMismatch

INVALID = -1.0

# A pixel fails the uniqueness test when its best SAD is not clearly below
# the second-best over the searched disparities.
UNIQUENESS_RATIO = 0.95


def _block_sums(values, radius):
    """Exact (2r+1)^2 block sums for fully supported pixels.

    Returns an array of shape (h - 2r, w - 2r): the sum of the block
    centered at each interior pixel.
    """
    h, w = values.shape
    s = np.zeros((h + 1, w + 1), dtype=np.float64)
    np.cumsum(values, axis=0, out=s[1:, 1:])
    np.cumsum(s[1:, 1:], axis=1, out=s[1:, 1:])
    size = 2 * radius + 1
    return (
        s[size:, size:]
        - s[:-size, size:]
        - s[size:, :-size]
        + s[:-size, :-size]
    )


def block_match_disparity(left, right, block_radius=2, max_disparity=64):
    """Dense disparity by SAD block matching with sub-pixel refinement.

    For each pixel with full block support the disparity is the argmin over
    d in [0, max_disparity] of the SAD between the left block and the right
    block shifted by d, refined by a parabola fit over the neighboring
    costs. Pixels without at least two supported candidates, or whose best
    SAD is >= 0.95x the second best, are marked invalid.
    """
    left = np.asarray(left)
    right = np.asarray(right)
    if left.shape != right.shape:
        raise SizeMismatch(f"left {left.shape} vs right {right.shape}")
    if block_radius < 1:
        raise ValueError("block_radius must be >= 1")
    if max_disparity < 1:
        raise ValueError("max_disparity must be >= 1")
    h, w = left.shape
    r = block_radius
    lf = left.astype(np.float64)
    rf = right.astype(np.float64)

    inf = np.inf
    best = np.full((h, w), inf)
    second = np.full((h, w), inf)
    best_d = np.full((h, w), -1, dtype=np.int32)
    c_minus = np.full((h, w), inf)
    c_plus = np.full((h, w), inf)
    prev = np.full((h, w), inf)
    n_support = np.zeros((h, w), dtype=np.int32)

    for d in range(max_disparity + 1):
        if w - d < 2 * r + 1:
            break
        cost = np.full((h, w), inf)
        diff = np.abs(lf[:, d:] - rf[:, : w - d])
        cost[r : h - r, d + r : w - r] = _block_sums(diff, r)
        supported = np.isfinite(cost)
        n_support += supported

        better = cost < best
        fill_plus = ~better & (best_d == d - 1) & supported
        c_plus[fill_plus] = cost[fill_plus]
        c_plus[better] = inf
        second = np.where(better, best, np.minimum(second, cost))
        c_minus = np.where(better, prev, c_minus)
        best_d = np.where(better, d, best_d)
        best = np.where(better, cost, best)
        prev = cost

    valid = (n_support >= 2) & np.isfinite(best) & (best < UNIQUENESS_RATIO * second)
    disp = np.where(valid, best_d.astype(np.float64), INVALID)

    # parabola fit over (d-1, d, d+1) where both neighbors were evaluated
    refine = valid & np.isfinite(c_minus) & np.isfinite(c_plus)
    with np.errstate(invalid="ignore"):
        denom = c_minus - 2.0 * best + c_plus
        refine &= denom > 0
        shift = np.zeros((h, w))
        np.divide(0.5 * (c_minus - c_plus), denom, out=shift, where=refine)
    disp[refine] += np.clip(shift[refine], -0.5, 0.5)
    return disp


def disparity_to_depth(rig, d):
    """Depth Z = fx * baseline / d for a positive disparity in pixels."""
    if d <= 0:
        raise NonPositiveDisparity(f"disparity {d} is not positive")
    return rig.camera.fx * rig.baseline / d


def disparity_to_cloud(rig, disp):
    """Back-project every valid pixel of a disparity map to the camera frame.

    Each point keeps its source pixel as provenance. Pixels with zero
    disparity have no finite depth and are skipped along with invalid ones.
    """
    disp = np.asarray(disp, dtype=float)
    cam = rig.camera
    if disp.shape != (cam.height, cam.width):
        raise SizeMismatch(
            f"disparity {disp.shape} vs camera {(cam.height, cam.width)}"
        )
    vs, us = np.nonzero(disp > 0)
    z = cam.fx * rig.baseline / disp[vs, us]
    x = (us - cam.cx) / cam.fx * z
    y = (vs - cam.cy) / cam.fy * z
    points = np.stack([x, y, z], axis=1)
    provenance = np.stack([us, vs], axis=1)
    return PointCloud(points, "camera", provenance)


def window_disparity_filter(disp, window=31, delta=3.0):
    """Keep pixels within delta of the local disparity maximum.

    The maximum is taken over a centered window x window neighborhood of
    valid pixels, clipped at the borders. Everything else is invalidated;
    invalid pixels are never revalidated.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError("window must be odd and >= 3")
    if delta <= 0:
        raise ValueError("delta must be positive")
    disp = np.asarray(disp, dtype=float)
    valid = disp >= 0
    padded = np.where(valid, disp, -np.inf)
    local_max = ndimage.maximum_filter(
        padded, size=window, mode="constant", cval=-np.inf
    )
    keep = valid & (disp >= local_max - delta)
    return np.where(keep, disp, INVALID)


def _row_format(valid):
    """%-format of one disparity row: "%.6g" per valid pixel, "-1" per invalid."""
    cuts = [0, *(np.flatnonzero(valid[1:] != valid[:-1]) + 1).tolist(), valid.size]
    runs = (
        " ".join(["%.6g" if valid[a] else "-1"] * (b - a))
        for a, b in zip(cuts, cuts[1:])
        if b > a
    )
    return " ".join(runs) + "\n"


def write_disparity(path, disp):
    """Text format: 'width height' line, then one row per line, -1 = invalid."""
    disp = np.asarray(disp, dtype=float)
    h, w = disp.shape
    valid = ~(disp < 0)  # NaN is written as a value
    with open(path, "w") as f:
        f.write(f"{w} {h}\n")
        for row, ok in zip(disp, valid):
            f.write(_row_format(ok) % tuple(row[ok].tolist()))


def read_disparity(path):
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise ParseError(1, "empty disparity file")
    parts = lines[0].split()
    if len(parts) != 2:
        raise ParseError(1, "expected 'width height'")
    try:
        w, h = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(1, "non-integer dimensions") from None
    if len(lines) < h + 1:
        raise ParseError(len(lines), f"expected {h} data rows")

    def parse_loop():
        disp = np.empty((h, w))
        for i in range(h):
            row = lines[i + 1].split()
            if len(row) != w:
                raise ParseError(i + 2, f"expected {w} values, got {len(row)}")
            try:
                disp[i] = [float(v) for v in row]
            except ValueError:
                raise ParseError(i + 2, "non-numeric disparity") from None
        return disp

    disp = parse_float_rows(lines[1 : h + 1], (h, w), parse_loop)
    disp[disp < 0] = INVALID
    return disp
