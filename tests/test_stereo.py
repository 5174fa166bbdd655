import numpy as np
import pytest

from rebartie.errors import NonPositiveDisparity, ParseError, SizeMismatch
from rebartie.geometry import CameraModel, StereoRig, project
from rebartie.scene import GridSpec, render_disparity
from rebartie.stereo import (
    INVALID,
    block_match_disparity,
    disparity_to_cloud,
    disparity_to_depth,
    read_disparity,
    window_disparity_filter,
    write_disparity,
)

RIG = StereoRig(
    CameraModel(fx=500.0, fy=500.0, cx=80.0, cy=60.0, width=160, height=120),
    baseline=0.1,
)


def shifted_pair(rng, shape=(200, 400), shift=7):
    """Textured pair where the scene sits at a constant disparity."""
    h, w = shape
    wide = rng.integers(0, 256, (h, w + shift), dtype=np.uint8)
    left = wide[:, :w]
    right = wide[:, shift:]
    return left, right


class TestBlockMatch:
    def test_constant_shift_recovered(self, rng):
        left, right = shifted_pair(rng, shift=7)
        disp = block_match_disparity(left, right, block_radius=2, max_disparity=20)
        valid = disp >= 0
        assert valid.any()
        close = np.abs(disp[valid] - 7.0) <= 0.5
        assert close.mean() >= 0.99

    def test_textureless_images_all_invalid(self):
        flat = np.full((40, 60), 128, dtype=np.uint8)
        disp = block_match_disparity(flat, flat, block_radius=2, max_disparity=10)
        assert (disp < 0).all()

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            block_match_disparity(
                np.zeros((10, 10), np.uint8), np.zeros((10, 12), np.uint8), 1, 5
            )

    def test_values_in_range_or_invalid(self, rng):
        left, right = shifted_pair(rng, shift=3)
        disp = block_match_disparity(left, right, block_radius=1, max_disparity=9)
        valid = disp >= 0
        assert (disp[valid] <= 9.0).all()
        assert (disp[~valid] == INVALID).all()


class TestDisparityToDepth:
    def test_arithmetic(self):
        assert disparity_to_depth(RIG, 50.0) == pytest.approx(1.0)

    def test_inverse_proportionality(self):
        assert disparity_to_depth(RIG, 25.0) == pytest.approx(
            2.0 * disparity_to_depth(RIG, 50.0)
        )

    def test_zero_disparity_rejected(self):
        with pytest.raises(NonPositiveDisparity):
            disparity_to_depth(RIG, 0.0)


class TestDisparityToCloud:
    def test_single_center_pixel(self):
        disp = np.full((120, 160), INVALID)
        cam = RIG.camera
        d = cam.fx * RIG.baseline / 2.0  # depth 2 m
        disp[int(cam.cy), int(cam.cx)] = d
        cloud = disparity_to_cloud(RIG, disp)
        assert len(cloud) == 1
        assert np.allclose(cloud.points[0], [0, 0, 2.0])
        assert tuple(cloud.provenance[0]) == (cam.cx, cam.cy)

    def test_all_invalid_gives_empty_cloud(self):
        cloud = disparity_to_cloud(RIG, np.full((120, 160), INVALID))
        assert len(cloud) == 0

    def test_point_count_equals_valid_pixels(self, rng):
        disp = np.full((120, 160), INVALID)
        mask = rng.random((120, 160)) < 0.1
        disp[mask] = rng.uniform(5, 40, mask.sum())
        cloud = disparity_to_cloud(RIG, disp)
        assert len(cloud) == mask.sum()

    def test_projection_returns_provenance_pixel(self, rng):
        disp = np.full((120, 160), INVALID)
        mask = rng.random((120, 160)) < 0.05
        disp[mask] = rng.uniform(10, 50, mask.sum())
        cloud = disparity_to_cloud(RIG, disp)
        uv = project(RIG.camera, cloud.points)
        assert np.abs(uv - cloud.provenance).max() <= 0.51

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            disparity_to_cloud(RIG, np.zeros((10, 10)))


class TestWindowFilter:
    def test_threshold_rule(self):
        disp = np.full((9, 9), 30.0)
        disp[4, 4] = 40.0
        disp[0, 0] = 37.0
        disp[8, 8] = 36.9
        out = window_disparity_filter(disp, window=31, delta=3.0)
        assert out[4, 4] == 40.0
        assert out[0, 0] == 37.0
        assert out[8, 8] == INVALID
        assert (out[disp == 30.0] == INVALID).all()

    def test_constant_map_unchanged(self):
        disp = np.full((20, 20), 12.5)
        out = window_disparity_filter(disp, window=5, delta=1.0)
        assert np.array_equal(out, disp)

    def test_two_layer_scene(self):
        # front layer at 50 on the left half, rear at 40 on the right;
        # where a window sees both, only the front survives
        disp = np.full((11, 40), 40.0)
        disp[:, :20] = 50.0
        out = window_disparity_filter(disp, window=11, delta=3.0)
        assert (out[:, :20] == 50.0).all()
        assert (out[:, 20:25] == INVALID).all()  # rear pixels near the seam
        assert (out[:, 30:] == 40.0).all()  # rear-only windows keep the rear

    def test_idempotent(self, rng):
        disp = rng.uniform(10, 60, (30, 30))
        disp[rng.random((30, 30)) < 0.2] = INVALID
        once = window_disparity_filter(disp, window=7, delta=2.0)
        twice = window_disparity_filter(once, window=7, delta=2.0)
        assert np.array_equal(once, twice)

    def test_never_revalidates(self, rng):
        disp = rng.uniform(10, 60, (30, 30))
        disp[rng.random((30, 30)) < 0.3] = INVALID
        out = window_disparity_filter(disp, window=5, delta=5.0)
        assert ((disp < 0) <= (out < 0)).all()

    def test_isolated_pixel_survives(self):
        disp = np.full((9, 9), INVALID)
        disp[4, 4] = 25.0
        out = window_disparity_filter(disp, window=9, delta=1.0)
        assert out[4, 4] == 25.0


class TestDisparityIO:
    def test_round_trip(self, tmp_path, rng):
        disp = rng.uniform(0, 60, (12, 17))
        disp[rng.random((12, 17)) < 0.3] = INVALID
        path = tmp_path / "d.txt"
        write_disparity(path, disp)
        back = read_disparity(path)
        assert back.shape == disp.shape
        valid = disp >= 0
        assert np.array_equal(back < 0, ~valid)
        assert np.allclose(back[valid], disp[valid], rtol=1e-5)
        # second generation write is byte-identical
        path2 = tmp_path / "d2.txt"
        write_disparity(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2 3\n")
        with pytest.raises(ParseError) as exc:
            read_disparity(path)
        assert exc.value.line == 1

    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("3 2\n1 2 3\n1 2\n")
        with pytest.raises(ParseError) as exc:
            read_disparity(path)
        assert exc.value.line == 3


def reference_write_disparity(path, disp):
    """The per-value loop the text writer replaced; the byte oracle."""
    disp = np.asarray(disp, dtype=float)
    h, w = disp.shape
    with open(path, "w") as f:
        f.write(f"{w} {h}\n")
        for row in disp:
            f.write(" ".join("-1" if v < 0 else f"{v:.6g}" for v in row))
            f.write("\n")


def reference_read_disparity(path):
    """The per-line loop the text reader replaced; the value and error oracle."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise ParseError(1, "empty disparity file")
    parts = lines[0].split()
    if len(parts) != 2:
        raise ParseError(1, "expected 'width height'")
    try:
        w, h = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(1, "non-integer dimensions") from None
    if len(lines) < h + 1:
        raise ParseError(len(lines), f"expected {h} data rows")
    disp = np.empty((h, w))
    for i in range(h):
        row = lines[i + 1].split()
        if len(row) != w:
            raise ParseError(i + 2, f"expected {w} values, got {len(row)}")
        try:
            disp[i] = [float(v) for v in row]
        except ValueError:
            raise ParseError(i + 2, "non-numeric disparity") from None
    disp[disp < 0] = INVALID
    return disp


def wide_range_map(rng, shape):
    """Magnitudes from 1e-8 to 1e8, invalid pixels and -0.0; row 1 is all
    invalid and row 2 all valid when the map has them."""
    disp = 10.0 ** rng.uniform(-8, 8, shape)
    disp[rng.random(shape) < 0.3] = -rng.uniform(0, 5)
    disp[rng.random(shape) < 0.05] = -0.0
    disp[1:2] = INVALID
    disp[2:3] = np.abs(disp[2:3])
    return disp


def read_outcome(reader, path):
    """A reader's result as raw bits, or its ParseError's line and message."""
    try:
        return reader(path).tobytes()
    except ParseError as e:
        return ("ParseError", e.line, str(e))


class TestDisparityCodecMatchesReference:
    @pytest.mark.parametrize("shape", [(40, 57), (30, 1), (1, 200), (0, 5), (3, 0)])
    def test_bytes_and_values(self, tmp_path, rng, shape):
        disp = wide_range_map(rng, shape)
        fast, ref = tmp_path / "fast.txt", tmp_path / "ref.txt"
        write_disparity(fast, disp)
        reference_write_disparity(ref, disp)
        assert fast.read_bytes() == ref.read_bytes()
        assert read_disparity(fast).tobytes() == reference_read_disparity(ref).tobytes()

    def test_all_valid_and_all_invalid_maps(self, tmp_path, rng):
        for disp in (rng.uniform(0, 64, (9, 13)), np.full((9, 13), INVALID)):
            fast, ref = tmp_path / "fast.txt", tmp_path / "ref.txt"
            write_disparity(fast, disp)
            reference_write_disparity(ref, disp)
            assert fast.read_bytes() == ref.read_bytes()
            assert read_disparity(fast).tobytes() == reference_read_disparity(ref).tobytes()

    def test_negative_zero_nan_and_inf(self, tmp_path):
        disp = np.array([[-0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300]])
        fast, ref = tmp_path / "fast.txt", tmp_path / "ref.txt"
        write_disparity(fast, disp)
        reference_write_disparity(ref, disp)
        assert fast.read_bytes() == ref.read_bytes() == b"6 1\n-0 nan inf -1 1e-300 -1\n"
        back = read_disparity(fast)
        assert back.tobytes() == reference_read_disparity(ref).tobytes()
        assert np.signbit(back[0, 0])

    @pytest.mark.parametrize(
        "body",
        [
            "1 2 3\n\n4 5 6\n",  # blank line inside the body (loadtxt skips it)
            "1 2 3\n   \n4 5 6\n",  # whitespace-only line
            "1 2 3\n# 5 6\n4 5 6\n",  # '#' token (loadtxt's default comment)
            "1 2 3\n4 5 # 6\n4 5 6\n",
            "1 2 3\n4 5 6 # note\n7 8 9\n",  # a full row, then a '#' token
            "1 2 3\n4 5 6 7\n4 5 6\n",  # one row with an extra value
            "1 2 3\n4 5\n4 5 6\n",  # short row
            "1 2 3\n4 5 6\n",  # short body
            "1 2 3\n4 x 6\n4 5 6\n",  # non-numeric token
            "1 2 3\n4 0x5 6\n4 5 6\n",
            "1 2 3\n1_0 -1 1e5\n4 5 6\n",  # float() accepts '1_0', loadtxt does not
            "1 2 3\n4 5 6\n7 8 9\nnot read\n",  # lines past the declared count
            "1 2 3\n4 5 6\n7 8 9",  # no final newline
            "1\t2 3\n4\xa05 6\n7 8\x1f9\n",  # other whitespace separators
            "1 2 3\n4 5\f6\n7 8 9\n",  # a form feed ends a line
            "1 2 3\n4 5 6\r\n7 8 9\r\n",
            "nan inf -inf\n-nan +1 -0\n1e999 .5 5.\n",
            "1 2 3\n4 ٥ 6\n7 8 9\n",  # a non-ASCII digit float() accepts
        ],
    )
    def test_parse_outcome(self, tmp_path, body):
        path = tmp_path / "d.txt"
        path.write_bytes(("3 3\n" + body).encode())
        assert read_outcome(read_disparity, path) == read_outcome(
            reference_read_disparity, path
        )

    def test_blank_line_reported_where_it_is(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("3 3\n1 2 3\n\n4 5 6\n")
        with pytest.raises(ParseError) as exc:
            read_disparity(path)
        assert (exc.value.line, str(exc.value)) == (3, "line 3: expected 3 values, got 0")

    def test_rendered_scene_map(self, tmp_path):
        rig = StereoRig(CameraModel(700.0, 700.0, 640.0, 360.0, 1280, 720), 0.06)
        disp = render_disparity(GridSpec(), rig)
        fast, ref = tmp_path / "fast.txt", tmp_path / "ref.txt"
        write_disparity(fast, disp)
        reference_write_disparity(ref, disp)
        assert fast.read_bytes() == ref.read_bytes()
        assert read_disparity(fast).tobytes() == reference_read_disparity(ref).tobytes()
