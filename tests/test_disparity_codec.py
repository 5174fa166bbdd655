"""Property tests of the disparity text codec against the per-value oracles
in test_stereo: the bytes written, the bits read back, and the ParseError
of every file that is not laid out as write_disparity lays it out."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rebartie import stereo as stereomod
from rebartie.stereo import INVALID, read_disparity, write_disparity

from test_stereo import read_outcome, reference_read_disparity, reference_write_disparity

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def nudged(v):
    """v and the doubles one ulp either side of it."""
    return st.sampled_from([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])


@st.composite
def near_halves(draw):
    """(m + 0.5) / 10**k for a 6-digit m, give or take an ulp: "%.6g" rounds
    each half one way, and the value an ulp either side the other."""
    m = draw(st.integers(100000, 999999))
    k = draw(st.integers(-3, 12))
    return draw(nudged((m + 0.5) / 10.0**k))


SPECIAL = st.one_of(
    near_halves(),
    # either side of fixed notation's ends, and of a power of ten
    st.sampled_from([1e-4, 9.999995e-5, 999999.5, 99999.95, 1.0, 10.0, 1e5, 1e6]).flatmap(nudged),
    st.floats(0, 2.3e-308),  # subnormals
    st.sampled_from([-0.0, 0.0, np.nan, np.inf, -np.inf, INVALID, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(1e-5, 1e7),
)


@st.composite
def maps(draw):
    """A map of up to 40 x 60: disparities of [0, 64) with special values
    among them, and invalid pixels at a drawn fraction."""
    h = draw(st.integers(0, 40))
    w = draw(st.integers(0, 60))
    valid_frac = draw(st.floats(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    disp = rng.uniform(0, 64, (h, w))
    if h * w:
        special = draw(st.lists(SPECIAL, max_size=30))
        disp.flat[rng.integers(0, h * w, len(special))] = special
    invalid = rng.random((h, w)) >= valid_frac
    disp[invalid] = np.where(rng.random((h, w)) < 0.5, INVALID, -rng.uniform(0, 5, (h, w)))[invalid]
    return disp


def assert_codec_matches(tmp_path, disp):
    fast, ref = tmp_path / "fast.txt", tmp_path / "ref.txt"
    write_disparity(fast, disp)
    reference_write_disparity(ref, disp)
    assert fast.read_bytes() == ref.read_bytes()
    assert read_outcome(read_disparity, fast) == read_outcome(reference_read_disparity, ref)


class TestCodecProperties:
    @SETTINGS
    @given(disp=maps())
    def test_random_maps(self, tmp_path, disp):
        assert_codec_matches(tmp_path, disp)

    @SETTINGS
    @given(values=st.lists(SPECIAL, min_size=1, max_size=24), w=st.integers(1, 6))
    def test_special_values_only(self, tmp_path, values, w):
        values += [INVALID] * (-len(values) % w)
        assert_codec_matches(tmp_path, np.array(values).reshape(-1, w))

    @pytest.mark.parametrize(
        "read_bytes, write_values, write_pixels", [(1, 1, 1), (16, 5, 40), (64, 50, 60), (64, 1000, 17)]
    )
    def test_small_blocks(self, tmp_path, monkeypatch, rng, read_bytes, write_values, write_pixels):
        """Blocks of a row or a few, and a last block whose 16-byte reads of
        each token run past the file's end."""
        monkeypatch.setattr(stereomod, "_READ_BYTES", read_bytes)
        monkeypatch.setattr(stereomod, "_WRITE_VALUES", write_values)
        monkeypatch.setattr(stereomod, "_WRITE_PIXELS", write_pixels)
        disp = rng.uniform(0, 64, (23, 17))
        disp[rng.random(disp.shape) < 0.4] = INVALID
        disp[3] = INVALID
        disp[4, ::2] = [1e-5, 0.000123456, 123456.7, 1e300, 0.5, 0.05, 3e-7, 7, 0.0]
        disp[-1] = [0.0001] * 16 + [1e-7]  # every token of the last line 6+ bytes
        assert_codec_matches(tmp_path, disp)
        assert_codec_matches(tmp_path, disp[:1, :1])
        assert_codec_matches(tmp_path, np.full((2, 3), INVALID))


# The tokens a hand-edited file might hold: sentinel look-alikes, the
# sentinel, canonical values, tokens of 8, 9 and 16+ bytes, and non-numbers.
TOKENS = [
    "-1", "-1.0", "-10", "-1e0", "+1", "11", "-1-1", "1-", "-", "", ".", "1.",
    ".5", "0", "-0", "007", "12.5", "1e5", "1e-05", "1.5e+06", "12345678",
    "0.123456", "0.0001234", "1234567890123456789", "1..2", "e", "nan", "1_0",
]
SEPARATORS = [" ", " ", " ", "  ", "\t", "\n", "\r\n", "\x0b", "\xa0"]


@st.composite
def hand_edited(draw):
    """A 'w h' header and a body of drawn tokens and separators, most often
    laid out as write_disparity lays files out."""
    h = draw(st.integers(1, 4))
    w = draw(st.integers(1, 5))
    canonical = draw(st.booleans())
    lines = []
    for _ in range(h + draw(st.integers(-1, 1))):
        count = w + draw(st.sampled_from([0, 0, 0, -1, 1]))
        tokens = draw(st.lists(st.sampled_from(TOKENS), min_size=count, max_size=count))
        if canonical:
            lines.append(" ".join(tokens) + "\n")
        else:
            seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=count + 1, max_size=count + 1))
            lead = draw(st.sampled_from(["", "", " ", "\t"]))
            lines.append(lead + "".join(t + s for t, s in zip(tokens, seps)))
    text = f"{w} {h}\n" + "".join(lines)
    if draw(st.booleans()) and text.endswith("\n"):
        text = text[:-1]
    return text


class TestNonCanonicalInputs:
    @pytest.mark.parametrize(
        "body",
        [
            "-1 -1.0 -10\n-1e0 +1 11\n-1 -1 -1\n",  # sentinel look-alikes
            "-1 -1-1 5\n1 2 3\n4 5 6\n",
            "-1-1 -1 5\n1 2 3\n4 5 6\n",
            "1 2 3\n-1  -1 5\n7 8 9\n",  # a doubled space
            " -1 -1 5\n1 2 3\n7 8 9\n",  # a leading space
            "-1 -1 5 \n1 2 3\n7 8 9\n",  # a trailing space
            "-1\t-1 5\n1 2 3\n7 8 9\n",  # a tab
            "-1 -1 5\n1 2 3\n7 8 -1",  # no final newline
            "-1 -1 5\n1 2 3\n7 8 -1\n-1 -1 -1\n",  # a line past the declared count
            "-1 -1 5\n1 2 3\n7 8 -1\n\n",
            "-1 -1 5\n1 2 3\n",  # a line short
            "-1 -1\n1 2 3 4\n7 8 -1\n",  # a token moved between lines
            "-1 -1 -1 -1\n1 2\n7 8 -1\n",
            "-1 -1 5\n\n1 2 3\n",  # an empty line
            "0.123456 1234567.8 1e-05\n12345678 -1 123456789012345678\n1 2 3\n",
            "-1 -1 5\n1 2 3\n7 8 1e999\n",
            "-1 -1 5\n1 2 3\n7 8 -0\n",
        ],
    )
    def test_outcome(self, tmp_path, body):
        path = tmp_path / "d.txt"
        path.write_bytes(("3 3\n" + body).encode())
        assert read_outcome(read_disparity, path) == read_outcome(reference_read_disparity, path)

    @SETTINGS
    @given(text=hand_edited())
    def test_hand_edited_files(self, tmp_path, text):
        path = tmp_path / "d.txt"
        path.write_bytes(text.encode())
        assert read_outcome(read_disparity, path) == read_outcome(reference_read_disparity, path)
