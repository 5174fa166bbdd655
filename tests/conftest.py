import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def plane_angle(n1, n2):
    """Unsigned angle between plane normals (sign of a normal is not
    geometrically meaningful)."""
    return float(np.arccos(np.clip(abs(np.dot(n1, n2)), -1.0, 1.0)))


def planes_close(p1, p2, tol=1e-9):
    """Geometric plane equality, tolerant of an overall sign flip."""
    sign = 1.0 if float(p1.normal @ p2.normal) >= 0 else -1.0
    return (
        np.allclose(p1.normal, sign * p2.normal, atol=tol)
        and abs(p1.offset - sign * p2.offset) <= tol
    )


def peak_bytes(fn, *args):
    """Peak bytes traced while fn(*args) runs, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
