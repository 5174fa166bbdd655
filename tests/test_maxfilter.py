"""Property tests of maxfilter.square_max against scipy.ndimage's
maximum_filter, the filter it replaces in the window disparity filter and
the plane mask's dilation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from rebartie import maxfilter
from rebartie.maxfilter import square_max

SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True)

SIZES = st.integers(0, 20).map(lambda r: 2 * r + 1)


@st.composite
def float_maps(draw):
    """Maps of up to 50 x 50, 1 x n and n x 1 among them, whose values hold
    ties, -inf (the filter's fill) and inf."""
    shape = draw(st.one_of(
        st.tuples(st.integers(1, 50), st.integers(1, 50)),
        st.tuples(st.just(1), st.integers(1, 50)),
        st.tuples(st.integers(1, 50), st.just(1)),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(-3, 4, shape).astype(float) if draw(st.booleans()) else rng.normal(size=shape)
    a[rng.random(shape) < draw(st.floats(0, 1))] = -np.inf
    a[rng.random(shape) < 0.02] = np.inf
    return a


@st.composite
def bool_maps(draw):
    shape = draw(st.tuples(st.integers(1, 50), st.integers(1, 50)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random(shape) < draw(st.floats(0, 0.3))


def assert_matches(a, size, fill):
    got = square_max(a, size, fill)
    want = ndimage.maximum_filter(a, size=size, mode="constant", cval=fill)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestSquareMaxMatchesNdimage:
    @SETTINGS
    @given(a=float_maps(), size=SIZES)
    def test_float_with_minus_inf_fill(self, a, size):
        assert_matches(a, size, -np.inf)

    @SETTINGS
    @given(a=bool_maps(), size=SIZES)
    def test_bool(self, a, size):
        assert_matches(a, size, False)

    @SETTINGS
    @given(a=float_maps(), fill=st.floats(-5, 5))
    def test_window_larger_than_both_sides(self, a, fill):
        # every pixel's window holds the whole array and fill
        assert_matches(a, 2 * max(a.shape) + 1, fill)

    @pytest.mark.parametrize("band_values", [1, 40, 1 << 16])
    def test_band_height_does_not_change_the_result(self, rng, monkeypatch, band_values):
        # one row a band (the window's height still), a few, and one band
        monkeypatch.setattr(maxfilter, "_BAND_VALUES", band_values)
        a = rng.normal(size=(97, 61))
        assert_matches(a, 31, -np.inf)
        assert_matches(a < -1.5, 5, False)

    def test_empty_arrays(self):
        for shape in [(0, 5), (5, 0), (0, 0)]:
            assert square_max(np.zeros(shape), 3, 0.0).shape == shape

    @pytest.mark.parametrize("size", [0, 2, -1])
    def test_size_must_be_odd_and_positive(self, size):
        with pytest.raises(ValueError, match="odd"):
            square_max(np.zeros((3, 3)), size, 0.0)
