import numpy as np
import pytest

from rebartie.cloud import PointCloud
from rebartie.errors import BadParameter, MissingProvenance, SizeMismatch
from rebartie.geometry import (
    CameraModel,
    Plane,
    rotation_aligning,
    transform_point,
)
from rebartie.masking import (
    apply_mask,
    attach_projected_provenance,
    rasterize_mask,
    read_mask,
    select_near_plane,
    write_mask,
)
from rebartie.pnm import read_ppm, write_ppm


class TestSelectNearPlane:
    plane = Plane(np.array([0.0, 1.0, 0.0]), 0.0)

    def test_distance_threshold(self):
        cloud = PointCloud([[0, 0.005, 0], [0, 0.05, 0.0]])
        out = select_near_plane(cloud, self.plane, tau=0.01)
        assert len(out) == 1
        assert out.points[0, 1] == 0.005

    def test_huge_tau_keeps_everything(self, rng):
        cloud = PointCloud(rng.normal(size=(100, 3)))
        assert len(select_near_plane(cloud, self.plane, tau=1e9)) == 100

    def test_two_layer_selects_exactly_near(self, rng):
        near = rng.uniform(-1, 1, (50, 3))
        near[:, 1] = 0.0
        far = rng.uniform(-1, 1, (60, 3))
        far[:, 1] = 0.1
        cloud = PointCloud(np.vstack([near, far]))
        out = select_near_plane(cloud, self.plane, tau=0.05)
        assert len(out) == 50
        assert (out.points[:, 1] == 0.0).all()

    def test_commutes_with_alignment(self, rng):
        n = np.array([1.0, 1.0, 0.2])
        plane = Plane(n / np.linalg.norm(n), 0.4)
        pts = rng.normal(size=(200, 3))
        cloud = PointCloud(pts, provenance=np.arange(400).reshape(200, 2))
        before = select_near_plane(cloud, plane, tau=0.1)
        t = rotation_aligning(plane.normal, np.array([0.0, 1.0, 0.0]), "camera", "aligned")
        aligned = PointCloud(transform_point(t, pts), cloud.provenance)
        aligned_plane = Plane(np.array([0.0, 1.0, 0.0]), plane.offset)
        after = select_near_plane(aligned, aligned_plane, tau=0.1)
        assert np.array_equal(before.provenance, after.provenance)


class TestRasterizeMask:
    def test_single_point_dilated(self):
        cloud = PointCloud([[0, 0, 1.0]], provenance=[[10, 10]])
        mask = rasterize_mask(cloud, 32, 24, dilation_radius=1)
        assert mask.sum() == 9
        assert mask[9:12, 9:12].all()

    def test_empty_cloud_all_false(self):
        cloud = PointCloud(np.empty((0, 3)), provenance=np.empty((0, 2), int))
        assert not rasterize_mask(cloud, 16, 16, 2).any()

    def test_radius_zero_counts_distinct_pixels(self):
        prov = [[1, 1], [2, 2], [1, 1]]
        cloud = PointCloud(np.zeros((3, 3)), provenance=prov)
        mask = rasterize_mask(cloud, 8, 8, dilation_radius=0)
        assert mask.sum() == 2

    def test_monotone_in_radius(self, rng):
        prov = rng.integers(5, 25, (40, 2))
        cloud = PointCloud(np.zeros((40, 3)), provenance=prov)
        prev = None
        for radius in range(4):
            mask = rasterize_mask(cloud, 32, 32, radius)
            if prev is not None:
                assert (prev <= mask).all()
            prev = mask

    @pytest.mark.parametrize("radius", range(4))
    @pytest.mark.parametrize("density", [0.03, 0.3])
    def test_equals_binary_dilation(self, rng, radius, density):
        # reference: dilation by a square of ones with nothing set outside
        # the image; the random pixels plus every corner and edge midpoint
        from scipy import ndimage

        w, h = 160, 90
        raw = rng.random((h, w)) < density
        for v, u in [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1),
                     (0, w // 2), (h - 1, w // 2), (h // 2, 0), (h // 2, w - 1)]:
            raw[v, u] = True
        vs, us = np.nonzero(raw)
        cloud = PointCloud(np.zeros((vs.size, 3)), provenance=np.stack([us, vs], axis=1))
        expected = raw
        if radius:
            square = np.ones((2 * radius + 1,) * 2, bool)
            expected = ndimage.binary_dilation(raw, structure=square)
        mask = rasterize_mask(cloud, w, h, radius)
        assert mask.dtype == bool
        assert np.array_equal(mask, expected)

    def test_missing_provenance(self):
        with pytest.raises(MissingProvenance):
            rasterize_mask(PointCloud([[0, 0, 1.0]]), 8, 8, 0)

    def test_negative_radius_is_bad_parameter(self):
        cloud = PointCloud([[0, 0, 1.0]], provenance=[[1, 1]])
        with pytest.raises(BadParameter, match="dilation_radius must be >= 0"):
            rasterize_mask(cloud, 8, 8, -1)

    def test_out_of_bounds_provenance(self):
        cloud = PointCloud([[0, 0, 1.0]], provenance=[[99, 0]])
        with pytest.raises(ValueError):
            rasterize_mask(cloud, 8, 8, 0)


def full_frame_mask(pixels, width, height, radius):
    """The dilation over the whole frame; the oracle for the bounding-box one."""
    from scipy import ndimage

    mask = np.zeros((height, width), dtype=bool)
    if len(pixels):
        mask[pixels[:, 1], pixels[:, 0]] = True
    if radius > 0:
        mask = ndimage.maximum_filter(mask, size=2 * radius + 1, mode="constant", cval=0)
    return mask


class TestRasterizeMaskMatchesFullFrame:
    """Only the set pixels' bounding box, grown by the radius, is dilated."""

    # (u, v) ranges of the set pixels in a 30 x 24 frame: touching each
    # border, each corner, and inside it
    PLACES = {
        "top": ((10, 20), (0, 5)),
        "bottom": ((10, 20), (19, 24)),
        "left": ((0, 5), (8, 16)),
        "right": ((25, 30), (8, 16)),
        "top-left": ((0, 5), (0, 5)),
        "top-right": ((25, 30), (0, 5)),
        "bottom-left": ((0, 5), (19, 24)),
        "bottom-right": ((25, 30), (19, 24)),
        "inside": ((10, 20), (8, 16)),
    }

    @staticmethod
    def check(pixels, radius, width=30, height=24):
        pixels = np.asarray(pixels, dtype=int).reshape(-1, 2)
        cloud = PointCloud(np.zeros((len(pixels), 3)), provenance=pixels)
        mask = rasterize_mask(cloud, width, height, radius)
        assert mask.dtype == bool
        assert mask.tobytes() == full_frame_mask(pixels, width, height, radius).tobytes()
        return mask

    @pytest.mark.parametrize("radius", [0, 1, 3, 40])  # 40 spans the frame
    @pytest.mark.parametrize("place", PLACES)
    def test_pixel_placements(self, place, radius):
        (u0, u1), (v0, v1) = self.PLACES[place]
        rng = np.random.default_rng([radius, len(place)])
        us = rng.integers(u0, u1, 12)
        vs = rng.integers(v0, v1, 12)
        us[:2] = u0, u1 - 1  # the range's extremes are set
        vs[:2] = v0, v1 - 1
        self.check(np.stack([us, vs], axis=1), radius)

    @pytest.mark.parametrize("pixel", [(0, 0), (29, 23), (29, 0), (0, 12), (17, 11)])
    @pytest.mark.parametrize("radius", [0, 2, 40])
    def test_single_pixel(self, pixel, radius):
        assert self.check([pixel], radius)[pixel[1], pixel[0]]

    @pytest.mark.parametrize("radius", [0, 2, 40])
    def test_empty_cloud(self, radius):
        assert not self.check(np.empty((0, 2)), radius).any()


class TestApplyMask:
    def test_all_true_unchanged(self, rng):
        img = rng.integers(0, 256, (10, 12, 3), dtype=np.uint8)
        out = apply_mask(img, np.ones((10, 12), bool))
        assert np.array_equal(out, img)

    def test_all_false_black(self, rng):
        img = rng.integers(0, 256, (10, 12, 3), dtype=np.uint8)
        assert (apply_mask(img, np.zeros((10, 12), bool)) == 0).all()

    def test_checkerboard(self):
        img = np.full((8, 8, 3), 77, np.uint8)
        mask = np.indices((8, 8)).sum(axis=0) % 2 == 0
        out = apply_mask(img, mask)
        assert (out[mask] == 77).all()
        assert (out[~mask] == 0).all()

    def test_idempotent(self, rng):
        img = rng.integers(0, 256, (10, 12, 3), dtype=np.uint8)
        mask = rng.random((10, 12)) < 0.5
        once = apply_mask(img, mask)
        assert np.array_equal(apply_mask(once, mask), once)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            apply_mask(np.zeros((4, 4, 3), np.uint8), np.ones((4, 5), bool))


class TestProjectedProvenance:
    def test_recovers_pixels(self):
        cam = CameraModel(100.0, 100.0, 32.0, 24.0, 64, 48)
        pts = np.array([[0, 0, 1.0], [0.1, 0.05, 1.0], [0, 0, -1.0]])
        out = attach_projected_provenance(PointCloud(pts), cam)
        assert len(out) == 2  # behind-camera point dropped
        assert tuple(out.provenance[0]) == (32, 24)
        assert tuple(out.provenance[1]) == (42, 29)

    def test_point_projecting_beyond_int64_dropped(self):
        # z = 1e-300 projects to about 1e301 px, past int64, and x = 1e10
        # past float64; both are dropped before any cast (a RuntimeWarning
        # fails the test)
        cam = CameraModel(100.0, 100.0, 32.0, 24.0, 64, 48)
        pts = np.array([[0.1, 0.05, 1.0], [1.0, 0.0, 1e-300], [1e10, 0.0, 1e-300]])
        out = attach_projected_provenance(PointCloud(pts), cam)
        assert out.points.tolist() == [[0.1, 0.05, 1.0]]
        assert out.provenance.tolist() == [[42, 29]]


class TestMaskAndImageIO:
    def test_mask_round_trip(self, tmp_path, rng):
        mask = rng.random((20, 30)) < 0.4
        path = tmp_path / "m.pgm"
        write_mask(path, mask)
        assert np.array_equal(read_mask(path), mask)

    def test_gray_pgm_round_trip(self, tmp_path, rng):
        from rebartie.pnm import read_pgm, write_pgm

        img = rng.integers(0, 256, (18, 25), dtype=np.uint8)
        path = tmp_path / "g.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_ppm_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, (15, 11, 3), dtype=np.uint8)
        path = tmp_path / "i.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)
