"""Rectified-stereo disparity: SAD block matching, depth conversion,
cloud reconstruction, and the sliding-window foreground filter.

Disparity maps are float64 arrays with negative values marking invalid
pixels (-1 in files).
"""

import itertools

import numpy as np

from .cloud import PointCloud
from .errors import BadParameter, NonPositiveDisparity, ParseError, SizeMismatch
from .textio import parse_float_rows, text_lines

INVALID = -1.0

# A pixel fails the uniqueness test when its best SAD is not clearly below
# the second-best over the searched disparities.
UNIQUENESS_RATIO = 0.95


# Rows of output per band: a band's matcher state (five int32 arrays of
# band x width) stays in cache across the disparity loop.
_BAND_ROWS = 16


def _box_sums(values, radius, rows):
    """Sums over every full (2r+1)^2 block of ``values`` ((rows + 2r) x m).

    Returns a (rows, m - 2r) array, element [i, j] being the sum of the
    block whose top-left corner is [i, j].
    """
    size = 2 * radius + 1
    cols = values.shape[1] - 2 * radius
    vertical = values[0:rows].copy()
    for k in range(1, size):
        vertical += values[k : k + rows]
    sums = vertical[:, 0:cols].copy()
    for k in range(1, size):
        sums += vertical[:, k : k + cols]
    return sums


def _as_float(costs, unset):
    """Integer costs as float64, the ``unset`` sentinel as inf."""
    out = costs.astype(np.float64)
    out[costs == unset] = np.inf
    return out


def block_match_disparity(left, right, block_radius=2, max_disparity=64):
    """Dense disparity by SAD block matching with sub-pixel refinement.

    For each pixel with full block support the disparity is the argmin over
    d in [0, max_disparity] of the SAD between the left block and the right
    block shifted by d, refined by a parabola fit over the neighboring
    costs. Pixels without at least two supported candidates, or whose best
    SAD is >= 0.95x the second best, are marked invalid.

    The images are uint8, so every SAD is an exact integer. Rows are matched
    in bands of _BAND_ROWS. Candidate d is supported at columns
    [d + r, w - r), so each pixel's supported candidates are d = 0 up to a
    limit set by its column, and the loop over d touches only those.
    """
    left = np.asarray(left)
    right = np.asarray(right)
    if left.shape != right.shape:
        raise SizeMismatch(f"left {left.shape} vs right {right.shape}")
    if left.dtype != np.uint8 or right.dtype != np.uint8:
        raise BadParameter("stereo images must be uint8")
    if block_radius < 1:
        raise BadParameter("block_radius must be >= 1")
    if max_disparity < 1:
        raise BadParameter("max_disparity must be >= 1")
    h, w = left.shape
    r = block_radius
    size = 2 * r + 1
    disp = np.full((h, w), INVALID)
    top = min(max_disparity, w - size)  # the last d any column supports
    if top < 1 or h < size:
        return disp  # no pixel has two supported candidates

    cost_type = np.int32 if 255 * size * size < np.iinfo(np.int32).max else np.int64
    unset = np.iinfo(cost_type).max  # above every SAD: the "inf" cost
    lf = left.astype(cost_type)
    rf = right.astype(cost_type)
    cols = w - 2 * r  # state column j is image column j + r
    n_support = np.minimum(np.arange(cols), top) + 1

    for y0 in range(r, h - r, _BAND_ROWS):
        y1 = min(y0 + _BAND_ROWS, h - r)
        rows = y1 - y0
        band_l = lf[y0 - r : y1 + r]
        band_r = rf[y0 - r : y1 + r]
        best = np.full((rows, cols), unset, cost_type)
        second = np.full((rows, cols), unset, cost_type)
        best_d = np.full((rows, cols), -1, dtype=np.int32)
        c_minus = np.full((rows, cols), unset, cost_type)
        c_plus = np.full((rows, cols), unset, cost_type)
        prev = None
        for d in range(top + 1):
            # cost[:, j] is candidate d at state column d + j, and
            # prev[:, j + 1] is candidate d - 1 at the same column
            cost = _box_sums(np.abs(band_l[:, d:] - band_r[:, : w - d]), r, rows)
            b = best[:, d:]
            better = cost < b  # strict: a tie keeps the lower d
            cp = c_plus[:, d:]
            np.copyto(cp, cost, where=best_d[:, d:] == d - 1)
            cp[better] = unset
            # second >= best always, so this is where(better, best, min(second, cost))
            s = second[:, d:]
            np.minimum(s, np.maximum(b, cost), out=s)
            if prev is not None:
                np.copyto(c_minus[:, d:], prev[:, 1:], where=better)
            np.copyto(best_d[:, d:], d, where=better)
            np.minimum(b, cost, out=b)
            prev = cost

        best_f = _as_float(best, unset)
        c_minus_f = _as_float(c_minus, unset)
        c_plus_f = _as_float(c_plus, unset)
        valid = (n_support >= 2) & (best_f < UNIQUENESS_RATIO * _as_float(second, unset))
        out = np.where(valid, best_d.astype(np.float64), INVALID)

        # parabola fit over (d-1, d, d+1) where both neighbors were evaluated
        refine = valid & np.isfinite(c_minus_f) & np.isfinite(c_plus_f)
        with np.errstate(invalid="ignore"):
            denom = c_minus_f - 2.0 * best_f + c_plus_f
            refine &= denom > 0
            shift = np.zeros((rows, cols))
            np.divide(0.5 * (c_minus_f - c_plus_f), denom, out=shift, where=refine)
        out[refine] += np.clip(shift[refine], -0.5, 0.5)
        disp[y0:y1, r : w - r] = out
    return disp


def disparity_to_depth(rig, d):
    """Depth Z = fx * baseline / d for a positive disparity in pixels.

    inf where d is so small that the depth overflows: like d <= 0, such a
    disparity is not valid, and callers skip it.
    """
    if d <= 0:
        raise NonPositiveDisparity(f"disparity {d} is not positive")
    with np.errstate(over="ignore"):
        return rig.camera.fx * rig.baseline / d


def disparity_to_cloud(rig, disp):
    """Back-project every valid pixel of a disparity map to the camera frame.

    Each point keeps its source pixel as provenance. A disparity is valid
    when d > 0 and its depth is finite: pixels with d <= 0 (invalid ones
    included) and those so small that the depth overflows are skipped.
    z = fx * baseline / d, then x = (u - cx) / fx * z and y = (v - cy) / fy * z
    are written straight into the columns of the (n, 3) points array.
    """
    disp = np.asarray(disp, dtype=float)
    cam = rig.camera
    if disp.shape != (cam.height, cam.width):
        raise SizeMismatch(
            f"disparity {disp.shape} vs camera {(cam.height, cam.width)}"
        )
    vs, us = np.nonzero(disp > 0)
    points = np.empty((len(vs), 3))
    with np.errstate(over="ignore"):
        z = np.divide(cam.fx * rig.baseline, disp[vs, us], out=points[:, 2])
    finite = np.isfinite(z)
    if not finite.all():
        vs, us, points = vs[finite], us[finite], points[finite]
        z = points[:, 2]
    np.multiply((us - cam.cx) / cam.fx, z, out=points[:, 0])
    np.multiply((vs - cam.cy) / cam.fy, z, out=points[:, 1])
    provenance = np.stack([us, vs], axis=1)
    return PointCloud(points, provenance)


def window_disparity_filter(disp, window=31, delta=3.0):
    """Keep pixels within delta of the local disparity maximum.

    The maximum is taken over a centered window x window neighborhood of
    valid pixels, clipped at the borders. Everything else is invalidated;
    invalid pixels are never revalidated.
    """
    if window < 3 or window % 2 == 0:
        raise BadParameter("window must be odd and >= 3")
    if delta <= 0:
        raise BadParameter("delta must be positive")
    disp = np.asarray(disp, dtype=float)
    valid = disp >= 0
    # imported here: scipy.ndimage is most of a subcommand's start-up, and
    # only this filter and the plane mask's dilation use it
    from scipy import ndimage

    local_max = ndimage.maximum_filter(
        np.where(valid, disp, -np.inf), size=window, mode="constant", cval=-np.inf
    )
    local_max -= delta
    keep = valid & (disp >= local_max)
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
    lines = text_lines(path)
    first = next(lines, None)
    if first is None:
        raise ParseError(1, "empty disparity file")
    parts = first.split()
    if len(parts) != 2:
        raise ParseError(1, "expected 'width height'")
    try:
        w, h = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(1, "non-integer dimensions") from None
    if w < 0 or h < 0:
        raise ParseError(1, f"negative dimensions {w} x {h}")
    disp = parse_float_rows(itertools.islice(lines, h), path, 2, (h, w), "disparity")
    disp[disp < 0] = INVALID
    return disp
