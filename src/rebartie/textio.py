"""Text input: every text file the pipeline reads is decoded, split into
lines and its numbers read here.

Text is strict UTF-8, and a byte that is not is a ParseError naming its line.
A number is what float() reads from a token, and it must be finite.
"""

import math
import re
from array import array

import numpy as np

from .errors import ParseError

# str.splitlines()'s line breaks, less "\r", which read_text has already
# turned into "\n"; _LINE is a line and the break that ends it.
_BREAKS = "\n\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE = re.compile(f"([^{_BREAKS}]*)[{_BREAKS}]?")


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


def iter_lines(text):
    """Yield the lines text.splitlines() lists, for text as read_text returns
    it, one at a time: a list of a 100k-point cloud's lines takes 3x its file."""
    pos = 0
    while pos < len(text):
        line = _LINE.match(text, pos)
        yield line[1]
        pos = line.end()


def finite_floats(tokens, line, noun):
    """float() of each token, or a ParseError on ``line``: "non-numeric
    <noun>" for a token float() rejects, else "non-finite <noun>"."""
    try:
        values = [float(t) for t in tokens]
    except ValueError:
        raise ParseError(line, f"non-numeric {noun}") from None
    if not all(map(math.isfinite, values)):
        raise ParseError(line, f"non-finite {noun}")
    return values


def parse_float_rows(lines, first, shape, noun):
    """The (rows, cols) ``shape`` of floats on a file's lines from line
    ``first`` on, one row per line; ``lines`` is an iterator over those
    lines and the rest of the file.

    A file with too few lines is a ParseError naming its last line; else the
    first fault in the rows is a ParseError naming its line.
    """
    rows, cols = shape
    values = array("d")  # grows with the rows read: a header may declare more values than the file has
    lineno = first - 1
    try:
        for lineno, line in zip(range(first, first + rows), lines):
            row = line.split()
            if len(row) != cols:
                raise ParseError(lineno, f"expected {cols} values, got {len(row)}")
            values.extend(finite_floats(row, lineno, noun))
    except ParseError:
        # a file short of rows is that error, whatever fault its rows hold
        lineno += sum(1 for _ in lines)
        if lineno >= first - 1 + rows:
            raise
    if lineno < first - 1 + rows:
        raise ParseError(lineno, f"expected {rows} data rows")
    return np.frombuffer(values).reshape(shape)
