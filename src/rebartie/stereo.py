"""Rectified-stereo disparity: SAD block matching, depth conversion,
cloud reconstruction, and the sliding-window foreground filter.

Disparity maps are float64 arrays with negative values marking invalid
pixels (-1 in files).
"""

import os
import re

import numpy as np

from .blocks import run_striped
from .cloud import PointCloud, six_digits
from .errors import BadParameter, NonPositiveDisparity, ParseError, SizeMismatch
from .maxfilter import square_max
from .textio import iter_lines, parse_float_rows, read_text

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
    local_max = square_max(np.where(valid[box], disp[box], -np.inf), window, -np.inf)
    local_max -= delta
    keep = valid[box] & (disp[box] >= local_max)
    out = np.full(disp.shape, INVALID)
    np.copyto(out[box], disp[box], where=keep)
    return out


# write_disparity formats a block of rows at a time: as many as hold up to
# _WRITE_VALUES valid pixels and _WRITE_PIXELS pixels, and at least one. Its
# scratch is a few arrays of that many values, and a few bytes a pixel.
_WRITE_VALUES = 1 << 14
_WRITE_PIXELS = 1 << 16

# uint64 constants of one byte repeated, and bytes 0 and 4 of 0xFF.
_BYTES = np.uint64(0x0101010101010101)
_ABOVE_SPACE = np.uint64(ord("!")) * _BYTES
_HIGH_BITS = np.uint64(0x80) * _BYTES
_ZEROS = np.uint64(ord("0")) * _BYTES
_BIT4 = np.uint64(0x10) * _BYTES
_PAIRS = np.uint64(0x000000FF000000FF)

# Bytes 0 to j - 1 of a uint64, for j = 0..8.
_LOW_BYTES = np.array([(1 << 8 * j) - 1 for j in range(9)], dtype=np.uint64)

# The three ASCII digits of 0..999 in bytes 0-2 of a uint64, the most
# significant first, and how many of them are trailing zeros.
_ASCII3 = np.array(
    [int.from_bytes(f"{i:03d}".encode(), "little") for i in range(1000)], dtype=np.uint64
)
_ZEROS3 = np.array([3 - len(f"{i:03d}".rstrip("0")) for i in range(1000)])

# _read_written reads this many bytes at a time and parses the whole lines
# among them, so its passes over them run in cache.
_READ_BYTES = 1 << 17

# Every byte write_disparity writes after its header line.
_WRITTEN_BYTES = b"0123456789.+-e \n"

_HEADER = re.compile(rb"([0-9]+) ([0-9]+)\n")

# 10**f for f = 0..8, each a double.
_POW10 = np.array([float(10**f) for f in range(9)])


def _format_values(values):
    """The text "%.6g " % v of each of a 1-D float array, as (chars,
    lengths): value i's text is the first lengths[i] bytes of row i of the
    uint8 array chars, and NULs follow it.

    A value from 1 up to 1e6 whose digits six_digits settles, which is a
    disparity map's every value but a few, is built in a uint64: the ASCII
    of its 6 digits, a point after the 6 - k integer ones, then the cut
    that drops trailing zeros (and a point with none after it) and the
    space. Every other value is formatted one by one.
    """
    digits, k, fast = six_digits(values)
    carry = digits == 1e6  # rounded up to 10**(6-k): one integer digit more
    k -= carry
    fast &= (k >= 0) & (k <= 5)
    k[~fast] = 0  # any k will do for a value formatted one by one
    hi, lo = np.divmod(np.where(fast & ~carry, digits, 1e5).astype(np.int64), 1000)
    word = _ASCII3[hi] | (_ASCII3[lo] << np.uint64(24))
    low = _LOW_BYTES[6 - k]  # the integer digits' bytes
    word = (word & low) | (low + np.uint64(1)) * np.uint64(ord(".")) | ((word & ~low) << np.uint64(8))
    zeros = _ZEROS3[lo]
    whole = np.flatnonzero(lo == 0)
    zeros[whole] = 3 + _ZEROS3[hi[whole]]
    frac = k - np.minimum(zeros, k)
    lengths = 6 - k + np.where(frac > 0, frac + 1, 0)
    low = _LOW_BYTES[lengths]
    word = (word & low) | (low + np.uint64(1)) * np.uint64(ord(" "))
    lengths += 1

    slow = np.flatnonzero(~fast)
    texts = [("%.6g " % v).encode() for v in values[slow].tolist()]
    width = max(8, *(-(-len(t) // 8) * 8 for t in texts)) if texts else 8
    chars = np.zeros((len(values), width // 8), "<u8")
    chars[:, 0] = word
    if texts:
        padded = b"".join(t.ljust(width, b"\0") for t in texts)
        chars[slow] = np.frombuffer(padded, "<u8").reshape(len(texts), -1)
        lengths[slow] = [len(t) for t in texts]
    return chars.view(np.uint8), lengths


def _format_rows(rows, runs):
    """The text of the rows of a disparity block: "%.6g" per valid pixel,
    "-1" per invalid one, a space between, "\\n" after each row.

    Each run of -1s is one slice of runs, the 3w-byte "-1 -1 ... -1 " twice
    over, the second copy ending "-1\\n" for a run that ends its row; each
    run of values is one slice of the values' text, whose last separator in
    a row is a "\\n".
    """
    h, w = rows.shape
    valid = ~(rows < 0)  # NaN is written as a value
    chars, lengths = _format_values(rows[valid])
    row_last = np.cumsum(valid.sum(axis=1))[valid[:, -1]] - 1  # the values that end a row
    chars[row_last, lengths[row_last] - 1] = ord("\n")
    text = chars.tobytes().translate(None, b"\0")

    flat = valid.ravel()
    change = np.empty(h * w, bool)
    np.not_equal(flat[1:], flat[:-1], out=change[1:])
    change[::w] = True
    starts = np.flatnonzero(change)  # of each run, which a row's end also ends
    count = np.diff(starts, append=h * w)
    of_values = flat[starts]
    run_values = np.where(of_values, count, 0)
    before = np.cumsum(run_values) - run_values
    offsets = np.concatenate([[0], np.cumsum(lengths)]) + len(runs)
    ends_row = (starts + count) % w == 0
    first = np.where(of_values, offsets[before], np.where(ends_row, 6 * w - 3 * count, 0))
    last = np.where(of_values, offsets[before + run_values], np.where(ends_row, 6 * w, 3 * count))
    source = runs + text
    return b"".join([source[a:b] for a, b in zip(first.tolist(), last.tolist())])


def write_disparity(path, disp):
    """Text format: a 'width height' line, then one line per row: "%.6g" of
    each valid pixel and "-1" for each invalid one, one space between
    tokens and "\\n" after each row.

    The bytes are those of formatting every pixel in turn. _format_rows
    formats the rows in blocks, in which only valid values cost a value's
    work; before[i] counts the valid pixels of the rows before row i.
    """
    disp = np.asarray(disp, dtype=float)
    h, w = disp.shape
    with open(path, "wb") as f:
        f.write(f"{w} {h}\n".encode())
        if w == 0:
            f.write(b"\n" * h)
            return
        runs = b"-1 " * (2 * w - 1) + b"-1\n"
        before = np.concatenate([[0], np.cumsum(w - np.count_nonzero(disp < 0, axis=1))])
        start = 0
        while start < h:
            stop = np.searchsorted(before, before[start] + _WRITE_VALUES, "right") - 1
            stop = min(max(stop, start + 1), start + max(1, _WRITE_PIXELS // w))
            f.write(_format_rows(disp[start:stop], runs))
            start = stop


def _separated(words):
    """The bytes before the first space or "\\n" in each uint64 of a written
    file's bytes, as (count, mask of those bytes): 8 and all ones without one.

    They are the only bytes below "!" such a file holds. (x - 0x21...) & ~x
    sets bit 7 of each byte of x below "!", and of no byte below the lowest
    of them (a borrow may set it in higher ones).
    """
    below = (words - _ABOVE_SPACE) & ~words & _HIGH_BITS
    keep = ((below & -below) >> np.uint64(7)) - np.uint64(1)
    return np.bitwise_count(keep) >> 3, keep


def _parse_decimals(body, words, keep, starts, lengths):
    """float(t) for each token t of body at starts, of lengths, whose first
    bytes are words masked to keep; None when one is not a finite number.

    A token of up to 8 bytes, digits with at most one point, is parsed in
    its uint64 for all tokens at once: the point is cut out, and three
    multiply-and-add steps sum the digits, padded with zeros to 8, into r;
    r / 10**e, with e the digits after the point plus the padding, is
    float(t) exactly (Clinger 1990: r < 10**8 and 10**e are doubles, and
    one division rounds once). numpy's cast from bytes, which parses as
    float() does, takes any other token: an empty one, from a doubled
    separator, is no number.
    """
    digits = (words ^ _ZEROS) & keep
    # of the bytes a written file holds, the digits alone xor "0" to bit 4 clear
    marked = digits & _BIT4
    ones = marked >> np.uint64(4)
    low = ones - np.uint64(1)  # the bytes before the marked one
    at = np.bitwise_count(low) >> 3  # the marked byte; 8 without one
    marks = np.bitwise_count(marked)
    exact = (lengths <= 8) & (marks <= 1) & (lengths > marks)
    exact &= digits & (ones * np.uint64(0xFF)) == ones * np.uint64(ord(".") ^ ord("0"))
    digits = (digits & low) | ((digits >> np.uint64(8)) & ~low)
    digits = digits * np.uint64(10) + (digits >> np.uint64(8))
    digits = (
        (digits & _PAIRS) * np.uint64(100 + (1000000 << 32))
        + ((digits >> np.uint64(16)) & _PAIRS) * np.uint64(1 + (10000 << 32))
    ) >> np.uint64(32)
    values = digits.astype(np.float64) / _POW10[8 - np.minimum(at, lengths)]
    other = np.flatnonzero(~exact)
    if len(other):
        tokens = [body[a : a + n].tobytes() for a, n in zip(starts[other].tolist(), lengths[other].tolist())]
        try:
            parsed = np.array(tokens).astype(np.float64)
        except ValueError:
            return None
        if not np.isfinite(parsed).all():
            return None
        parsed[parsed < 0] = INVALID
        values[other] = parsed
    return values


def _read_rows(body, words, line_ends, w, out):
    """Parse body, whole lines that end at line_ends, into out, w values a
    line; False unless each line holds w tokens with one space between and
    body is laid out as write_disparity lays it out. words[i] is the uint64
    of the 8 bytes from body[i]; 16 bytes follow body in words' buffer.

    A "-1" token takes 3 bytes with its separator, so each other token's
    pixel follows from its byte offset and the bytes of the other tokens
    before it, without a look at the -1s one by one.
    """
    sep = body <= ord(" ")  # a space or a "\\n"
    first = np.empty_like(sep)  # the first byte of each token
    first[0] = True
    first[1:] = sep[:-1]
    sentinel = np.zeros_like(sep)  # the first byte of each "-1" token
    np.logical_and(first[:-2], body[:-2] == ord("-"), out=sentinel[:-2])
    sentinel[:-2] &= body[1:-1] == ord("1")
    sentinel[:-2] &= sep[2:]
    first &= ~sentinel
    starts = np.flatnonzero(first)
    token = words[starts]
    size, keep = _separated(token)
    lengths = size.astype(np.int64)
    longer = np.flatnonzero(size == 8)
    if len(longer):
        more, _ = _separated(words[starts[longer] + 8])
        if (more == 8).any():
            return False  # 16 bytes or more: no "%.6g"
        lengths[longer] += more
    # Each byte before value t belongs to an earlier token or its separator:
    # length + 1 bytes for a value, 3 for a -1. Less length - 2 for each
    # earlier value, they are 3 for each earlier token: t's pixel, counted
    # from body's first. The same sum up to a line's end counts its tokens
    # and those of the lines before it.
    extra = lengths - 2
    passed = np.cumsum(extra)
    pixels = (starts + extra - passed) // 3
    before = np.searchsorted(starts, line_ends)
    counted = (line_ends + 1 - np.concatenate([[0], passed])[before]) // 3
    if not np.array_equal(counted, np.arange(1, len(line_ends) + 1) * w):
        return False
    values = _parse_decimals(body, token, keep, starts, lengths)
    if values is None:
        return False
    out.fill(INVALID)
    out[pixels] = values
    return True


def _read_written(f, h, w):
    """The (h, w) map on the lines left in the binary file f, or None unless
    they are laid out as write_disparity lays them out: h lines, each w
    tokens with one space between and "\\n" after, of _WRITTEN_BYTES alone.

    The whole lines in each _READ_BYTES read go to _read_rows, from a copy
    padded with the 16 bytes its tokens' reads may run past them; the file
    is never held whole.
    """
    if h == 0 or w == 0 or 2 * h * w > os.fstat(f.fileno()).st_size - f.tell():
        return None  # a token takes a byte and a separator
    disp = np.empty(h * w)
    row = 0
    rest = b""
    while block := f.read(_READ_BYTES):
        data = rest + block
        cut = data.rfind(b"\n") + 1
        data, rest = data[:cut], data[cut:]
        if not data:
            continue  # no line ends in it yet
        if data.translate(None, _WRITTEN_BYTES):
            return None
        body = np.frombuffer(data + bytes(16), np.uint8)
        words = np.ndarray((len(data),), "<u8", body, 0, (1,))
        body = body[: len(data)]
        line_ends = np.flatnonzero(body == ord("\n"))
        rows = len(line_ends)
        if row + rows > h or not _read_rows(body, words, line_ends, w, disp[row * w : (row + rows) * w]):
            return None
        row += rows
    return disp.reshape(h, w) if row == h and not rest else None


def read_disparity(path):
    """Read a disparity map: (height, width) float64, each negative value
    read as INVALID.

    A file as write_disparity writes it is read by _read_written. Any other
    that the format allows, with values in any spelling float() takes, any
    whitespace between them, "\\r\\n" line ends or lines past the last row,
    goes through textio.parse_float_rows, which names the line of the first
    fault in a ParseError.
    """
    with open(path, "rb") as f:
        header = _HEADER.fullmatch(f.readline())
        disp = header and _read_written(f, int(header[2]), int(header[1]))
    if disp is not None:
        return disp
    lines = iter_lines(read_text(path))
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
    disp = parse_float_rows(lines, 2, (h, w), "disparity")
    disp[disp < 0] = INVALID
    return disp
