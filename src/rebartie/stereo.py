"""Rectified-stereo disparity: SAD block matching, depth conversion,
cloud reconstruction, and the sliding-window foreground filter.

Disparity maps are float64 arrays with negative values marking invalid
pixels (-1 in files).
"""

import itertools

import numpy as np

from .blocks import run_striped
from .cloud import PointCloud
from .errors import BadParameter, NonPositiveDisparity, ParseError, SizeMismatch
from .textio import parse_float_rows, text_lines

INVALID = -1.0

# A pixel fails the uniqueness test when its best SAD is not clearly below
# the second-best over the searched disparities.
UNIQUENESS_RATIO = 0.95


# Rows of output per band. Each thread matches every threads-th band in its
# own workspace: the band's matcher state (five arrays of band x width) and
# every per-d temporary, 3.3 MB at 1280 columns.
_BAND_ROWS = 48


def _shaped(flat, rows, cols):
    """The first rows * cols elements of a flat buffer, as a contiguous array."""
    return flat[: rows * cols].reshape(rows, cols)


class _BandWorkspace:
    """One thread's buffers for _match_band, for bands of up to ``rows``
    rows of a w-column image."""

    def __init__(self, rows, w, r, cost_type):
        n = rows * (w - 2 * r)
        self.diff = np.empty((rows + 2 * r) * w, cost_type)
        self.vertical = np.empty(rows * w, cost_type)
        self.costs = [np.empty(n, cost_type) for _ in range(2)]
        self.state = [np.empty(n, cost_type) for _ in range(4)]
        self.best_d = np.empty(n, np.int32)
        self.masks = [np.empty(n, bool) for _ in range(2)]
        self.floats = [np.empty(n) for _ in range(4)]


def _as_float(costs, unset, out, mask):
    """Integer costs as float64 into out, the ``unset`` sentinel as inf."""
    np.copyto(out, costs)
    np.equal(costs, unset, out=mask)
    np.copyto(out, np.inf, where=mask)
    return out


def _match_band(lf, rf, y0, y1, r, top, unset, two_candidates, ws, disp):
    """Match image rows [y0, y1) into disp[y0:y1], in workspace ws.

    Every temporary is a contiguous view of one of ws's flat buffers, so the
    band allocates nothing.
    """
    w = lf.shape[1]
    rows = y1 - y0
    cols = w - 2 * r  # state column j is image column j + r
    size = 2 * r + 1
    band_l = lf[y0 - r : y1 + r]
    band_r = rf[y0 - r : y1 + r]
    best, second, c_minus, c_plus = (_shaped(a, rows, cols) for a in ws.state)
    best_d = _shaped(ws.best_d, rows, cols)
    for a in (best, second, c_minus, c_plus):
        a.fill(unset)
    best_d.fill(-1)
    prev = None
    for d in range(top + 1):
        m = w - d  # columns where the shifted pair overlaps
        n = cols - d  # state columns that support candidate d
        # cost[:, j] is candidate d at state column d + j, and
        # prev[:, j + 1] is candidate d - 1 at the same column
        diff = _shaped(ws.diff, rows + 2 * r, m)
        np.subtract(band_l[:, d:], band_r[:, :m], out=diff)
        np.abs(diff, out=diff)
        vertical = _shaped(ws.vertical, rows, m)
        np.add(diff[0:rows], diff[1 : rows + 1], out=vertical)
        for k in range(2, size):
            vertical += diff[k : k + rows]
        cost = _shaped(ws.costs[d % 2], rows, n)
        np.add(vertical[:, 0:n], vertical[:, 1 : n + 1], out=cost)
        for k in range(2, size):
            cost += vertical[:, k : k + n]

        b = best[:, d:]
        better = _shaped(ws.masks[0], rows, n)
        np.less(cost, b, out=better)  # strict: a tie keeps the lower d
        cp = c_plus[:, d:]
        follows = _shaped(ws.masks[1], rows, n)
        np.equal(best_d[:, d:], d - 1, out=follows)
        np.copyto(cp, cost, where=follows)
        np.copyto(cp, unset, where=better)
        # second >= best always, so this is where(better, best, min(second, cost))
        s = second[:, d:]
        larger = _shaped(ws.vertical, rows, n)
        np.maximum(b, cost, out=larger)
        np.minimum(s, larger, out=s)
        if prev is not None:
            np.copyto(c_minus[:, d:], prev[:, 1:], where=better)
        np.copyto(best_d[:, d:], d, where=better)
        np.minimum(b, cost, out=b)
        prev = cost

    best_f, second_f, c_minus_f, c_plus_f = (_shaped(a, rows, cols) for a in ws.floats)
    valid, mask = (_shaped(a, rows, cols) for a in ws.masks)
    _as_float(best, unset, best_f, mask)
    _as_float(second, unset, second_f, mask)
    second_f *= UNIQUENESS_RATIO
    np.less(best_f, second_f, out=valid)
    valid &= two_candidates
    out = disp[y0:y1, r : w - r]
    np.copyto(out, best_d, where=valid)

    # parabola fit over (d-1, d, d+1) where both neighbors were evaluated
    refine = valid
    refine &= np.isfinite(_as_float(c_minus, unset, c_minus_f, mask), out=mask)
    refine &= np.isfinite(_as_float(c_plus, unset, c_plus_f, mask), out=mask)
    denom, shift = second_f, best_f
    with np.errstate(invalid="ignore"):
        np.multiply(2.0, best_f, out=denom)
        np.subtract(c_minus_f, denom, out=denom)
        denom += c_plus_f
        refine &= np.greater(denom, 0, out=mask)
        np.subtract(c_minus_f, c_plus_f, out=shift)
        shift *= 0.5
    np.divide(shift, denom, out=shift, where=refine)
    np.clip(shift, -0.5, 0.5, out=shift, where=refine)
    np.add(out, shift, out=out, where=refine)


def block_match_disparity(left, right, block_radius=2, max_disparity=64):
    """Dense disparity by SAD block matching with sub-pixel refinement.

    For each pixel with full block support the disparity is the argmin over
    d in [0, max_disparity] of the SAD between the left block and the right
    block shifted by d, refined by a parabola fit over the neighboring
    costs. Pixels without at least two supported candidates, or whose best
    SAD is >= 0.95x the second best, are marked invalid.

    The images are uint8, so every SAD is an exact integer. Rows are matched
    in bands of _BAND_ROWS, on blocks.run_striped's threads.
    Candidate d is supported at columns [d + r, w - r), so each pixel's
    supported candidates are d = 0 up to a limit set by its column, and the
    loop over d touches only those.
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
    # the narrowest integer type whose max lies above every SAD: int16 up
    # to r = 5, which moves half the bytes of int32 per pass
    largest = 255 * size * size
    cost_type = next(t for t in (np.int16, np.int32, np.int64) if largest < np.iinfo(t).max)
    unset = np.iinfo(cost_type).max  # above every SAD: the "inf" cost
    lf = left.astype(cost_type)
    rf = right.astype(cost_type)
    # state column j has candidates d = 0 to min(j, top): two from j = 1 on
    two_candidates = np.arange(w - 2 * r) >= 1

    rows = min(_BAND_ROWS, h - 2 * r)

    def work(ws, band_starts):
        for y0 in band_starts:
            y1 = min(y0 + _BAND_ROWS, h - r)
            _match_band(lf, rf, y0, y1, r, top, unset, two_candidates, ws, disp)

    # numpy releases the GIL, so the bands run in parallel
    run_striped(range(r, h - r, _BAND_ROWS), lambda: _BandWorkspace(rows, w, r, cost_type), work)
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
    rows = np.flatnonzero(valid.any(axis=1))
    if rows.size == 0:
        return np.full(disp.shape, INVALID)
    cols = np.flatnonzero(valid.any(axis=0))
    # every pixel outside the valid pixels' bounding box is invalid, -inf
    # like the border, so the maximum over the box alone is the same
    box = np.s_[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    # imported here: scipy.ndimage is most of a subcommand's start-up, and
    # only this filter and the plane mask's dilation use it
    from scipy import ndimage

    local_max = ndimage.maximum_filter(
        np.where(valid[box], disp[box], -np.inf), size=window, mode="constant", cval=-np.inf
    )
    local_max -= delta
    keep = valid[box] & (disp[box] >= local_max)
    out = np.full(disp.shape, INVALID)
    np.copyto(out[box], disp[box], where=keep)
    return out


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
