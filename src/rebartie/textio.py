"""Text input: every text file the pipeline reads is decoded and split here.

Text is strict UTF-8, and a byte that is not is a ParseError naming its line.
"""

import io
import warnings

import numpy as np

from .errors import ParseError


def read_text(path):
    """The file's text as open(path).read() gives it in a UTF-8 locale:
    strict UTF-8, with "\\r\\n" and "\\r" read as "\\n"."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ParseError(line, f"byte 0x{data[e.start]:02x} is not UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def text_lines(path):
    """Iterate over a file's lines as ``read_text(path).splitlines()`` lists them.

    ASCII text whose only line break is "\\n", which is every file the
    pipeline writes, is split lazily from its bytes, each line keeping its
    "\\n": the list of a 394k-point cloud's lines alone takes about 30 MB.
    Any other file is decoded and split whole.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data.isascii() and not any(c in data for c in b"\r\v\f\x1c\x1d\x1e"):
        return map(bytes.decode, io.BytesIO(data))
    return iter(read_text(path).splitlines())


def parse_float_rows(lines, path, first, shape, noun):
    """The (rows, cols) ``shape`` of floats on ``path``'s lines from line
    ``first`` on, which ``lines`` iterates over, one row per line.

    numpy's C parser's rows are kept when they have ``shape`` and are all
    finite. Otherwise a loop parses the file's lines as float() does (the C
    parser skips blank lines and rejects ``1_0``), and the first fault is a
    ParseError naming its line; a short file names its last line.
    """
    rows, cols = shape
    try:
        with warnings.catch_warnings():
            # loadtxt warns when no line holds data; the shape check catches it
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        pass
    else:
        if values.shape == shape and np.isfinite(values).all():
            return values
    lines = list(text_lines(path))
    if len(lines) < first - 1 + rows:
        raise ParseError(len(lines), f"expected {rows} data rows")
    values = []  # not np.empty(shape): a header may declare more columns than the file has
    for lineno in range(first, first + rows):
        row = lines[lineno - 1].split()
        if len(row) != cols:
            raise ParseError(lineno, f"expected {cols} values, got {len(row)}")
        try:
            values.append([float(v) for v in row])
        except ValueError:
            raise ParseError(lineno, f"non-numeric {noun}") from None
        if not np.isfinite(values[-1]).all():
            raise ParseError(lineno, f"non-finite {noun}")
    return np.array(values).reshape(shape)
