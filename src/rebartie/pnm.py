"""Binary PGM (P5) and PPM (P6) readers/writers, maxval 255."""

from pathlib import Path

import numpy as np

from .errors import ParseError


def _read_header(data, magic):
    if not data.startswith(magic):
        raise ParseError(1, f"not a {magic.decode()} file")
    # header = magic, width, height, maxval as whitespace-separated tokens,
    # with optional '#' comments
    tokens = []
    pos = len(magic)
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError(1, "truncated header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise ParseError(1, "non-numeric header field") from None
    if maxval != 255:
        raise ParseError(1, f"unsupported maxval {maxval}")
    return width, height, pos


def read_pgm(path):
    """Read a binary PGM into a uint8 (height, width) array."""
    data = Path(path).read_bytes()
    width, height, pos = _read_header(data, b"P5")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    if pixels.size != width * height:
        raise ParseError(1, "truncated pixel data")
    return pixels.reshape(height, width).copy()


def write_pgm(path, image):
    img = np.asarray(image, dtype=np.uint8)
    if img.ndim != 2:
        raise ValueError("grayscale image must be 2-D")
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(img.tobytes())


def read_ppm(path):
    """Read a binary PPM into a uint8 (height, width, 3) array."""
    data = Path(path).read_bytes()
    width, height, pos = _read_header(data, b"P6")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height * 3, offset=pos)
    if pixels.size != width * height * 3:
        raise ParseError(1, "truncated pixel data")
    return pixels.reshape(height, width, 3).copy()


def write_ppm(path, image):
    img = np.asarray(image, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("color image must be (h, w, 3)")
    with open(path, "wb") as f:
        f.write(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(img.tobytes())
