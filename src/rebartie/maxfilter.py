"""The maximum over a square window, the one filter the window disparity
filter and the plane mask's dilation share."""

import numpy as np

# Values per band buffer: square_max filters a band of rows at a time, in
# buffers that stay in cache, so its scratch does not grow with the image.
_BAND_VALUES = 1 << 16


def square_max(a, size, fill):
    """The maximum over each pixel's centred size x size window of a 2-D
    array, pixels outside the array reading as fill: the same values as
    scipy.ndimage.maximum_filter(a, size, mode="constant", cval=fill).

    size must be odd. The window's maximum is a row maximum of column
    maxima, and each 1-D running maximum takes one pass per doubling of the
    span (the span-2**j maxima pair up into span-2**(j+1) ones), then one
    pass that covers size with two overlapping spans.
    """
    if size < 1 or size % 2 == 0:
        raise ValueError("size must be odd and >= 1")
    a = np.asarray(a)
    h, w = a.shape
    r = size // 2
    out = np.empty_like(a)
    # at least size rows a band, so the halo rows re-read stay a fraction
    band = max(1, min(h, max(size, _BAND_VALUES // (w + 2 * r))))
    # column pass: a band of rows with r rows of halo on each side
    cols = np.empty((band + 2 * r, w), a.dtype)
    cols_tmp = np.empty_like(cols)
    # row pass: the column maxima with r columns of fill on each side
    rows = np.empty((band, w + 2 * r), a.dtype)
    rows_tmp = np.empty_like(rows)
    for y0 in range(0, h, band):
        y1 = min(y0 + band, h)
        lo, hi = max(y0 - r, 0), min(y1 + r, h)
        span = cols[: y1 - y0 + 2 * r]
        span[: lo - (y0 - r)] = fill
        span[lo - (y0 - r) : hi - (y0 - r)] = a[lo:hi]
        span[hi - (y0 - r) :] = fill
        b = rows[: y1 - y0]
        b[:, :r] = fill  # set on every band: the row pass overwrites them
        b[:, r + w :] = fill
        _running_max(span, cols_tmp, size, b[:, r : r + w])
        _running_max(b.T, rows_tmp[: y1 - y0].T, size, out[y0:y1].T)
    return out


def _running_max(x, tmp, size, out):
    """out[i] = max(x[i : i + size]) along axis 0, for the len(x) - size + 1
    values of i. x and tmp (as large as x) are overwritten."""
    n = len(x) - size + 1
    src, dst = x, tmp
    width = 1  # src[i] holds the maximum of x[i : i + width]
    while 2 * width <= size:
        m = len(x) - 2 * width + 1
        np.maximum(src[:m], src[width : width + m], out=dst[:m])
        src, dst = dst, src
        width *= 2
    np.maximum(src[:n], src[size - width : size - width + n], out=out)
