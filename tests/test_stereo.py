import os
import sys

import numpy as np
import pytest

from rebartie import stereo as stereomod
from rebartie.errors import BadParameter, NonPositiveDisparity, ParseError, SizeMismatch
from rebartie.geometry import CameraModel, StereoRig, project
from rebartie.scene import GridSpec, render_disparity, synth_stereo_pair
from rebartie.stereo import (
    INVALID,
    UNIQUENESS_RATIO,
    block_match_disparity,
    disparity_to_cloud,
    disparity_to_depth,
    read_disparity,
    window_disparity_filter,
    write_disparity,
)

from conftest import peak_bytes
from test_scene import tilted_spec

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


    def test_non_uint8_images_rejected(self):
        img = np.zeros((10, 10), dtype=np.int64)
        with pytest.raises(BadParameter, match="stereo images must be uint8"):
            block_match_disparity(img, img, 1, 5)


def reference_block_sums(values, radius):
    """Exact (2r+1)^2 block sums over a float64 summed-area table."""
    h, w = values.shape
    s = np.zeros((h + 1, w + 1), dtype=np.float64)
    np.cumsum(values, axis=0, out=s[1:, 1:])
    np.cumsum(s[1:, 1:], axis=1, out=s[1:, 1:])
    size = 2 * radius + 1
    return s[size:, size:] - s[:-size, size:] - s[size:, :-size] + s[:-size, :-size]


def reference_block_match(left, right, block_radius, max_disparity):
    """The full-frame float64 matcher the banded integer one replaced; the
    bit oracle."""
    h, w = left.shape
    r = block_radius
    lf = left.astype(np.float64)
    rf = right.astype(np.float64)
    inf = np.inf
    best = np.full((h, w), inf)
    second = np.full((h, w), inf)
    best_d = np.full((h, w), -1, dtype=np.int32)
    c_minus = np.full((h, w), inf)
    c_plus = np.full((h, w), inf)
    prev = np.full((h, w), inf)
    n_support = np.zeros((h, w), dtype=np.int32)
    for d in range(max_disparity + 1):
        if w - d < 2 * r + 1:
            break
        cost = np.full((h, w), inf)
        diff = np.abs(lf[:, d:] - rf[:, : w - d])
        cost[r : h - r, d + r : w - r] = reference_block_sums(diff, r)
        supported = np.isfinite(cost)
        n_support += supported
        better = cost < best
        fill_plus = ~better & (best_d == d - 1) & supported
        c_plus[fill_plus] = cost[fill_plus]
        c_plus[better] = inf
        second = np.where(better, best, np.minimum(second, cost))
        c_minus = np.where(better, prev, c_minus)
        best_d = np.where(better, d, best_d)
        best = np.where(better, cost, best)
        prev = cost
    valid = (n_support >= 2) & np.isfinite(best) & (best < UNIQUENESS_RATIO * second)
    disp = np.where(valid, best_d.astype(np.float64), INVALID)
    refine = valid & np.isfinite(c_minus) & np.isfinite(c_plus)
    with np.errstate(invalid="ignore"):
        denom = c_minus - 2.0 * best + c_plus
        refine &= denom > 0
        shift = np.zeros((h, w))
        np.divide(0.5 * (c_minus - c_plus), denom, out=shift, where=refine)
    disp[refine] += np.clip(shift[refine], -0.5, 0.5)
    return disp


def assert_matcher_matches_reference(left, right, block_radius, max_disparity):
    fast = block_match_disparity(left, right, block_radius, max_disparity)
    ref = reference_block_match(left, right, block_radius, max_disparity)
    assert fast.shape == ref.shape
    assert np.array_equal(fast.view(np.int64), ref.view(np.int64))
    return fast


class TestBlockMatchMatchesReference:
    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    def test_textured_shift(self, rng, radius):
        left, right = shifted_pair(rng, shape=(45, 90), shift=5)
        disp = assert_matcher_matches_reference(left, right, radius, 12)
        assert (disp >= 0).any()

    @pytest.mark.parametrize("radius", [5, 6])  # the last radius with int16 costs, the first with int32
    def test_sads_near_their_largest(self, rng, radius):
        # white against near-black: every SAD lies within 2% of 255 (2r+1)^2
        left = np.full((40, 60), 255, dtype=np.uint8)
        right = rng.integers(0, 5, (40, 60), dtype=np.uint8)
        assert_matcher_matches_reference(left, right, radius, 10)

    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    def test_search_past_the_image_width(self, rng, radius):
        left, right = shifted_pair(rng, shape=(23, 30), shift=3)
        w = left.shape[1]
        for max_disparity in (w - 2 * radius - 1, w - 2 * radius, w + 7):
            assert_matcher_matches_reference(left, right, radius, max_disparity)

    @pytest.mark.parametrize("shape", [(4, 40), (40, 4), (5, 6), (6, 5), (1, 1), (0, 9)])
    def test_images_smaller_than_a_block(self, rng, shape):
        left = rng.integers(0, 256, shape, dtype=np.uint8)
        right = rng.integers(0, 256, shape, dtype=np.uint8)
        disp = assert_matcher_matches_reference(left, right, 2, 8)
        h, w = shape
        if h < 5 or w < 6:  # no block, or no pixel with two candidate blocks
            assert (disp == INVALID).all()

    @pytest.mark.parametrize("levels", [(128, 128), (0, 255), (255, 0)])
    def test_constant_images_tie_everywhere(self, levels):
        left = np.full((30, 50), levels[0], dtype=np.uint8)
        right = np.full((30, 50), levels[1], dtype=np.uint8)
        disp = assert_matcher_matches_reference(left, right, 2, 10)
        assert (disp == INVALID).all()

    @pytest.mark.parametrize(
        "height",
        [2 * 2 + 1, stereomod._BAND_ROWS + 4, stereomod._BAND_ROWS + 5, 3 * stereomod._BAND_ROWS + 4 + 7],
    )
    def test_heights_off_the_band_size(self, rng, height):
        left, right = shifted_pair(rng, shape=(height, 70), shift=4)
        assert_matcher_matches_reference(left, right, 2, 9)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_random_cases(self, seed):
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(1, 60)), int(rng.integers(1, 80))
        radius = int(rng.integers(1, 5))
        levels = int(rng.choice([2, 4, 256]))  # few levels: many tied SADs
        left = rng.integers(0, levels, (h, w), dtype=np.uint8)
        right = np.roll(left, int(rng.integers(0, 8)), axis=1)
        right[rng.random((h, w)) < 0.2] = rng.integers(0, levels)
        assert_matcher_matches_reference(left, right, radius, int(rng.integers(1, w + 5)))

    def test_rendered_grid_pair(self):
        rig = StereoRig(CameraModel(175.0, 175.0, 160.0, 90.0, 320, 180), 0.06)
        spec = GridSpec()
        left, right = synth_stereo_pair(spec, render_disparity(spec, rig))
        disp = assert_matcher_matches_reference(left, right, 2, 16)
        assert (disp >= 0).mean() > 0.5

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])  # 3 splits the bands unevenly; 8 outnumbers most CPU counts
    def test_thread_count_does_not_change_the_map(self, monkeypatch, threads):
        # ten bands, so every thread matches at least one, each in its own
        # workspace; a short switch interval interleaves them as often as it
        # can. Four grey levels make many tied SADs.
        rng = np.random.default_rng(5)
        height = 10 * stereomod._BAND_ROWS + 2 * 2 - 7
        left = rng.integers(0, 4, (height, 60), dtype=np.uint8)
        right = np.roll(left, 3, axis=1)
        right[rng.random(left.shape) < 0.2] = 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(threads)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert_matcher_matches_reference(left, right, 2, 9)
        finally:
            sys.setswitchinterval(interval)


class TestBlockMatchAllocation:
    @pytest.mark.parametrize("height", [60, 600, 3000])
    def test_peak_is_the_workspaces_the_map_and_the_int_images(self, rng, monkeypatch, height):
        # at r = 2 every SAD fits int16; each of the two threads'
        # workspaces holds, per row of a band and the 2r rows around it,
        # eight int16, one int32, two bool and four float64 values per
        # column, and as much again is allowed for the thread pool and
        # numpy's ufunc buffers; the float64 map and the two int16 images
        # are the only arrays that grow with the height, and one more int16
        # array of the image's size would pass the bound at 3000 rows
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        w, r = 100, 2
        left = rng.integers(0, 256, (height, w), dtype=np.uint8)
        right = np.roll(left, 4, axis=1)
        workspace = (stereomod._BAND_ROWS + 2 * r) * w * (8 * 2 + 4 + 2 + 4 * 8)
        bound = height * w * (8 + 2 * 2) + 2 * 2 * workspace
        assert peak_bytes(block_match_disparity, left, right, r, 16) < bound


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

    def test_overflowing_depth_is_inf(self):
        # a positive subnormal disparity has no finite depth; no warning
        assert disparity_to_depth(RIG, np.float64(1e-320)) == np.inf


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

    def test_overflowing_depth_skipped_like_zero(self, rng):
        disp = np.full((120, 160), INVALID)
        mask = rng.random((120, 160)) < 0.1
        disp[mask] = rng.uniform(5, 40, mask.sum())
        expected = disparity_to_cloud(RIG, disp)
        tiny = rng.random((120, 160)) < 0.05
        disp[tiny] = rng.choice([1e-320, 5e-324, 1e-310], tiny.sum())
        cloud = disparity_to_cloud(RIG, disp)
        kept = ~tiny[expected.provenance[:, 1], expected.provenance[:, 0]]
        assert np.isfinite(cloud.points).all()
        assert cloud.points.tobytes() == expected.points[kept].tobytes()
        assert np.array_equal(cloud.provenance, expected.provenance[kept])

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            disparity_to_cloud(RIG, np.zeros((10, 10)))


def reference_disparity_to_cloud(rig, disp):
    """Back-projection through separate x, y, z arrays and np.stack, as it
    was; the bit oracle."""
    disp = np.asarray(disp, dtype=float)
    cam = rig.camera
    vs, us = np.nonzero(disp > 0)
    z = cam.fx * rig.baseline / disp[vs, us]
    x = (us - cam.cx) / cam.fx * z
    y = (vs - cam.cy) / cam.fy * z
    return np.stack([x, y, z], axis=1), np.stack([us, vs], axis=1)


def same_cloud(rig, disp):
    cloud = disparity_to_cloud(rig, disp)
    points, provenance = reference_disparity_to_cloud(rig, disp)
    return (
        cloud.points.shape == points.shape
        and np.array_equal(cloud.points.view(np.int64), points.view(np.int64))
        and np.array_equal(cloud.provenance, provenance)
        and cloud.provenance.dtype == provenance.dtype
    )


class TestDisparityToCloudMatchesReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_maps(self, seed):
        rng = np.random.default_rng(seed)
        rig = StereoRig(
            CameraModel(
                fx=rng.uniform(200, 900), fy=rng.uniform(200, 900),
                cx=rng.uniform(10, 150), cy=rng.uniform(10, 110), width=160, height=120,
            ),
            baseline=rng.uniform(0.01, 0.5),
        )
        disp = np.full((120, 160), INVALID)
        mask = rng.random((120, 160)) < rng.uniform(0.05, 1.0)
        disp[mask] = 10.0 ** rng.uniform(-3, 2, mask.sum())
        disp[rng.random((120, 160)) < 0.05] = 0.0  # no finite depth: skipped
        assert same_cloud(rig, disp)

    def test_empty_map(self):
        assert same_cloud(RIG, np.full((120, 160), INVALID))

    def test_one_valid_pixel(self):
        disp = np.full((120, 160), INVALID)
        disp[7, 151] = 12.25
        assert same_cloud(RIG, disp)

    def test_negative_coordinates(self, rng):
        # only pixels left of and above the principal point: x, y < 0
        disp = np.full((120, 160), INVALID)
        disp[:60, :80] = rng.uniform(1, 60, (60, 80))
        assert same_cloud(RIG, disp)
        assert (disparity_to_cloud(RIG, disp).points[:, :2] <= 0).all()

    def test_rendered_scene_map(self):
        rig = StereoRig(CameraModel(700.0, 700.0, 640.0, 360.0, 1280, 720), 0.06)
        assert same_cloud(rig, render_disparity(GridSpec(), rig))


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


def full_frame_window_filter(disp, window, delta):
    """The filter over the whole frame; the oracle for the bounding-box one."""
    from scipy import ndimage

    disp = np.asarray(disp, dtype=float)
    valid = disp >= 0
    local_max = ndimage.maximum_filter(
        np.where(valid, disp, -np.inf), size=window, mode="constant", cval=-np.inf
    )
    local_max -= delta
    return np.where(valid & (disp >= local_max), disp, INVALID)


# Where a block of valid pixels sits in a 24 x 30 frame: touching each
# border, each corner, inside it, and filling it.
PLACES = {
    "top": np.s_[:8, 10:20],
    "bottom": np.s_[16:, 10:20],
    "left": np.s_[8:16, :8],
    "right": np.s_[8:16, 22:],
    "top-left": np.s_[:8, :8],
    "top-right": np.s_[:8, 22:],
    "bottom-left": np.s_[16:, :8],
    "bottom-right": np.s_[16:, 22:],
    "inside": np.s_[8:16, 10:20],
    "whole": np.s_[:, :],
}


class TestWindowFilterMatchesFullFrame:
    """The maximum is taken over the valid pixels' bounding box only."""

    @pytest.mark.parametrize("window", [3, 7, 41])  # 41 spans the frame
    @pytest.mark.parametrize("place", PLACES)
    def test_block_placements(self, place, window):
        rng = np.random.default_rng([window, len(place)])
        disp = np.full((24, 30), INVALID)
        block = disp[PLACES[place]]
        block[:] = rng.uniform(10, 60, block.shape)
        block[rng.random(block.shape) < 0.3] = INVALID
        out = window_disparity_filter(disp, window, 2.0)
        assert out.tobytes() == full_frame_window_filter(disp, window, 2.0).tobytes()

    @pytest.mark.parametrize("pixel", [(0, 0), (23, 29), (0, 29), (11, 0), (12, 17)])
    def test_single_valid_pixel(self, pixel):
        disp = np.full((24, 30), INVALID)
        disp[pixel] = 0.0
        out = window_disparity_filter(disp, 5, 1.0)
        assert out.tobytes() == full_frame_window_filter(disp, 5, 1.0).tobytes()
        assert out[pixel] == 0.0

    @pytest.mark.parametrize("shape", [(24, 30), (1, 1), (0, 5)])
    def test_all_invalid(self, shape):
        disp = np.full(shape, np.nan)
        disp[..., ::2] = -3.0
        out = window_disparity_filter(disp, 5, 1.0)
        assert out.shape == shape
        assert out.tobytes() == full_frame_window_filter(disp, 5, 1.0).tobytes()

    def test_rendered_scene_map(self):
        disp = render_disparity(GridSpec(), RIG)
        out = window_disparity_filter(disp, 31, 3.0)
        assert out.tobytes() == full_frame_window_filter(disp, 31, 3.0).tobytes()


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
        if not np.isfinite(disp[i]).all():
            raise ParseError(i + 2, "non-finite disparity")
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
        # nan and inf are written as they are, but no reader takes them back
        assert read_outcome(read_disparity, fast) == read_outcome(reference_read_disparity, ref) == (
            "ParseError", 2, "line 2: non-finite disparity"
        )
        finite = tmp_path / "finite.txt"
        write_disparity(finite, disp[:, [0, 4, 5]])
        back = read_disparity(finite)
        assert back.tobytes() == reference_read_disparity(finite).tobytes()
        assert np.signbit(back[0, 0])

    @pytest.mark.parametrize("token", ["nan", "-nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_its_line(self, tmp_path, token):
        path = tmp_path / "d.txt"
        path.write_text(f"3 3\n1 2 3\n4 {token} 6\n7 8 9\n")
        with pytest.raises(ParseError) as exc:
            read_disparity(path)
        assert str(exc.value) == "line 3: non-finite disparity"

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

    @pytest.mark.parametrize("seed", [3, 11])
    def test_tilted_scene_maps(self, tmp_path, seed):
        """Sparse maps: a few percent of pixels valid, on rods at a tilt."""
        rig = StereoRig(CameraModel(700.0, 700.0, 640.0, 360.0, 1280, 720), 0.06)
        disp = render_disparity(tilted_spec(seed), rig)
        assert 0 < np.mean(disp >= 0) < 0.1
        fast, ref = tmp_path / "fast.txt", tmp_path / "ref.txt"
        write_disparity(fast, disp)
        reference_write_disparity(ref, disp)
        assert fast.read_bytes() == ref.read_bytes()
        assert read_disparity(fast).tobytes() == reference_read_disparity(ref).tobytes()

    def test_block_matched_map(self, tmp_path):
        """A dense map: the matcher's sub-pixel values on most pixels."""
        spec = GridSpec(seed=5)
        left, right = synth_stereo_pair(spec, render_disparity(spec, RIG))
        disp = block_match_disparity(left, right, block_radius=2, max_disparity=64)
        assert np.mean(disp >= 0) > 0.5
        fast, ref = tmp_path / "fast.txt", tmp_path / "ref.txt"
        write_disparity(fast, disp)
        reference_write_disparity(ref, disp)
        assert fast.read_bytes() == ref.read_bytes()
        assert read_disparity(fast).tobytes() == reference_read_disparity(ref).tobytes()


class TestDisparityLineBreaks:
    """Files that are not plain "\\n"-separated ASCII are split whole, and
    every file parses or fails as the per-line oracle says."""

    @pytest.mark.parametrize(
        "text",
        [
            "3 2\r\n1 2 3\r\n4 5 6\r\n",
            "3 2\r1 2 3\r4 5 6\r",
            "3 2\n1 2 3\r\n4 5 6\n",
            "3 2\n1 2 3\n4 5 6\nnoté\n",  # non-ASCII past the declared rows
            "3 2\r\n1 2 3\r\n\r\n4 5 6\r\n",  # blank line, found by the loop
            "3 2\n1 2\u20283\n4 5 6\n",  # U+2028 ends a line
            "3 2\n1 2 3\f4 5 6\n",  # so does a form feed
            "3 2\n1 2 3\n",  # too few rows, named by the last line
        ],
    )
    def test_parse_outcome(self, tmp_path, text):
        path = tmp_path / "d.txt"
        path.write_bytes(text.encode())
        assert read_outcome(read_disparity, path) == read_outcome(reference_read_disparity, path)

    def test_crlf_file_parses(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_bytes(b"3 2\r\n1 2 -3\r\n4 5 6\r\n")
        assert read_disparity(path).tolist() == [[1, 2, INVALID], [4, 5, 6]]
