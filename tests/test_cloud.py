import functools
import os
import struct
import sys
import weakref

import numpy as np
import pytest
from scipy.spatial import cKDTree

from rebartie import cloud as cloudmod
from rebartie.cloud import (
    PointCloud,
    read_ply,
    statistical_outlier_removal,
    voxel_downsample,
    write_ply,
)
from rebartie.config import PipelineConfig
from rebartie.errors import BadParameter, CoordinateOutOfRange, ParseError, TooFewPoints
from rebartie.geometry import CameraModel, StereoRig
from rebartie.scene import GridSpec, read_grid_spec, render_disparity, synth_stereo_pair
from rebartie.stereo import block_match_disparity, disparity_to_cloud, window_disparity_filter

from conftest import peak_bytes


def brute_sor_survivors(points, k, sigma_mult):
    """Independent SOR oracle: full pairwise distances, partition for the k
    smallest, same threshold rule."""
    n = len(points)
    dists = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    mean_dists = np.empty(n)
    for i in range(n):
        row = np.delete(dists[i], i)
        mean_dists[i] = np.sort(np.partition(row, k - 1)[:k]).mean()
    mu = mean_dists.mean()
    sigma = mean_dists.std()
    return np.flatnonzero(mean_dists <= mu + sigma_mult * sigma)


def brute_voxel_centroids(points, voxel_size):
    """Independent voxel oracle: dict binning, running sums in point order."""
    bins = {}
    for p in points:
        key = tuple(int(v) for v in np.floor(p / voxel_size))
        if key not in bins:
            bins[key] = [np.zeros(3), 0]
        bins[key][0] = bins[key][0] + p
        bins[key][1] += 1
    out = [bins[key][0] / bins[key][1] for key in sorted(bins)]
    return np.array(out).reshape(-1, 3)


class TestStatisticalOutlierRemoval:
    def test_single_far_outlier_removed(self, rng):
        pts = np.vstack([rng.uniform(0, 1, (100, 3)), [[100.0, 100.0, 100.0]]])
        cloud = PointCloud(pts)
        out = statistical_outlier_removal(cloud, k=8, sigma_mult=1.0)
        assert not (out.points == 100.0).all(axis=1).any()
        assert len(out) >= 95
        expected = brute_sor_survivors(pts, 8, 1.0)
        assert np.array_equal(
            out.points, pts[expected]
        ), "survivors differ from brute-force oracle"

    def test_identical_points_all_kept(self):
        cloud = PointCloud(np.ones((10, 3)))
        out = statistical_outlier_removal(cloud, k=3, sigma_mult=1.0)
        assert len(out) == 10

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            statistical_outlier_removal(PointCloud(np.zeros((5, 3))), k=5)

    def test_no_survivor_is_too_few_points(self, rng):
        # mu - 5 sigma lies below every mean distance
        with pytest.raises(TooFewPoints, match="no point survives"):
            statistical_outlier_removal(PointCloud(rng.normal(size=(50, 3))), k=4, sigma_mult=-5.0)

    @pytest.mark.parametrize("bad", [1.0000001e50, -np.inf, np.nan])
    def test_coordinate_beyond_the_bound_refused_before_any_knn(self, rng, monkeypatch, bad):
        def unreached(*args):
            raise AssertionError("kNN work began")

        monkeypatch.setattr(cloudmod._PixelWindows, "build", unreached)
        monkeypatch.setattr(cloudmod, "_tree_settle", unreached)
        pts = rng.normal(size=(50, 3))
        pts[7, 1] = bad
        camera = CameraModel(100.0, 100.0, 32.0, 24.0, 64, 48)
        with pytest.raises(CoordinateOutOfRange, match="beyond 1e\\+50 m or is NaN"):
            statistical_outlier_removal(PointCloud(pts), k=4, camera=camera)

    def test_k_zero_is_bad_parameter(self, rng):
        with pytest.raises(BadParameter, match="k must be >= 1"):
            statistical_outlier_removal(PointCloud(rng.normal(size=(20, 3))), k=0)

    def test_survivors_are_input_subset_in_order(self, rng):
        pts = rng.normal(size=(60, 3))
        out = statistical_outlier_removal(PointCloud(pts), k=4)
        kept = brute_sor_survivors(pts, 4, 1.0)
        assert np.array_equal(out.points, pts[kept])

    def test_permutation_invariant_surviving_set(self, rng):
        pts = rng.normal(size=(80, 3))
        perm = rng.permutation(80)
        a = statistical_outlier_removal(PointCloud(pts), k=6)
        b = statistical_outlier_removal(PointCloud(pts[perm]), k=6)
        set_a = {tuple(p) for p in a.points}
        set_b = {tuple(p) for p in b.points}
        assert set_a == set_b

    def test_provenance_filtered_in_lockstep(self, rng):
        pts = np.vstack([rng.uniform(0, 1, (50, 3)), [[50.0, 50, 50]]])
        prov = np.arange(102).reshape(51, 2)
        out = statistical_outlier_removal(PointCloud(pts, provenance=prov), k=8)
        kept = brute_sor_survivors(pts, 8, 1.0)
        assert np.array_equal(out.provenance, prov[kept])


class TestVoxelDownsample:
    def test_two_points_one_voxel(self):
        cloud = PointCloud([[0.1, 0.1, 0.1], [0.2, 0.3, 0.4]])
        out = voxel_downsample(cloud, 1.0)
        assert len(out) == 1
        assert np.allclose(out.points[0], [0.15, 0.2, 0.25])

    def test_empty_cloud(self):
        out = voxel_downsample(PointCloud(np.empty((0, 3))), 0.1)
        assert len(out) == 0

    def test_matches_brute_force_exactly(self, rng):
        pts = rng.uniform(-1, 1, (10000, 3))
        out = voxel_downsample(PointCloud(pts), 0.05)
        oracle = brute_voxel_centroids(pts, 0.05)
        assert np.array_equal(out.points, oracle)

    def test_voxel_larger_than_bbox(self, rng):
        pts = rng.uniform(0.1, 0.9, (100, 3))
        out = voxel_downsample(PointCloud(pts), 10.0)
        assert len(out) == 1
        assert np.allclose(out.points[0], pts.mean(axis=0))

    def test_output_sorted_lexicographically(self, rng):
        pts = rng.uniform(-2, 2, (500, 3))
        out = voxel_downsample(PointCloud(pts), 0.5)
        keys = np.floor(out.points / 0.5).astype(int)
        as_tuples = [tuple(k) for k in keys]
        assert as_tuples == sorted(as_tuples)

    def test_provenance_dropped(self):
        cloud = PointCloud([[0.0, 0, 0]], provenance=[[3, 4]])
        assert voxel_downsample(cloud, 1.0).provenance is None

    def test_boundary_goes_to_floor_voxel(self):
        out = voxel_downsample(PointCloud([[1.0, 0.0, 0.0]]), 1.0)
        assert np.allclose(out.points[0], [1.0, 0.0, 0.0])
        keys = np.floor(out.points / 1.0)
        assert keys[0, 0] == 1  # exactly on the boundary: higher index


def reference_sor(cloud, k, sigma_mult):
    """SOR on the balanced, compact, single-threaded tree it used before;
    the bit oracle."""
    dists, _ = cKDTree(cloud.points).query(cloud.points, k=k + 1)
    mean_dists = dists[:, 1:].mean(axis=1)
    keep = np.flatnonzero(mean_dists <= mean_dists.mean() + sigma_mult * mean_dists.std())
    prov = None if cloud.provenance is None else cloud.provenance[keep]
    return PointCloud(cloud.points[keep], prov)


def reference_voxel(cloud, voxel_size):
    """Voxel binning by np.unique and np.add.at, as it was; the bit oracle."""
    if len(cloud) == 0:
        return PointCloud(np.empty((0, 3)))
    keys = np.floor(cloud.points / voxel_size).astype(np.int64)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    sums = np.zeros((uniq.shape[0], 3))
    np.add.at(sums, inverse, cloud.points)
    counts = np.bincount(inverse, minlength=uniq.shape[0])
    return PointCloud(sums / counts[:, None])


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSorMatchesReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_clouds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 3000))
        pts = rng.normal(0, 10 ** rng.uniform(-3, 1), (n, 3))
        prov = rng.integers(0, 1000, (n, 2))
        cloud = PointCloud(pts, provenance=prov)
        k = int(rng.integers(1, 20))
        out = statistical_outlier_removal(cloud, k=k, sigma_mult=1.0)
        ref = reference_sor(cloud, k, 1.0)
        assert same_bits(out.points, ref.points)
        assert np.array_equal(out.provenance, ref.provenance)

    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    def test_query_blocks_do_not_change_survivors(self, rng, monkeypatch, block_rows):
        pts = rng.normal(size=(500, 3))
        pts[::50] *= 8.0
        cloud = PointCloud(pts, provenance=np.arange(1000).reshape(500, 2))
        monkeypatch.setattr(cloudmod, "_SOR_BLOCK_ROWS", block_rows)
        out = statistical_outlier_removal(cloud, k=6, sigma_mult=1.0)
        ref = reference_sor(cloud, 6, 1.0)
        assert same_bits(out.points, ref.points)
        assert np.array_equal(out.provenance, ref.provenance)

    def test_duplicate_points_and_provenance_in_lockstep(self, rng):
        base = np.round(rng.uniform(-1, 1, (300, 3)), 1)  # a coarse lattice
        pts = np.vstack([base, base[:150], [[9.0, 9.0, 9.0]] * 3])
        prov = np.arange(2 * len(pts)).reshape(-1, 2)
        cloud = PointCloud(pts, provenance=prov)
        out = statistical_outlier_removal(cloud, k=8, sigma_mult=0.5)
        ref = reference_sor(cloud, 8, 0.5)
        assert 0 < len(out) < len(pts)
        assert same_bits(out.points, ref.points)
        assert np.array_equal(out.provenance, ref.provenance)
        # each survivor still carries the row its point came from
        rows = out.provenance[:, 0] // 2
        assert np.array_equal(out.points, pts[rows])


class TestVoxelMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_clouds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5000))
        pts = rng.normal(0, 10 ** rng.uniform(-2, 1), (n, 3)) + rng.normal(0, 3, 3)
        if seed % 2:
            pts = np.round(pts, 2)  # points on voxel boundaries
        voxel_size = 10 ** rng.uniform(-3, 0)
        out = voxel_downsample(PointCloud(pts), voxel_size)
        assert same_bits(out.points, reference_voxel(PointCloud(pts), voxel_size).points)

    def test_negative_coordinates(self, rng):
        pts = rng.uniform(-3.0, -0.001, (2000, 3))
        pts[::3, 1] *= -1
        out = voxel_downsample(PointCloud(pts), 0.25)
        assert same_bits(out.points, reference_voxel(PointCloud(pts), 0.25).points)

    def test_one_voxel(self, rng):
        pts = rng.uniform(0.2, 0.3, (500, 3))
        out = voxel_downsample(PointCloud(pts), 1.0)
        assert len(out) == 1
        assert same_bits(out.points, reference_voxel(PointCloud(pts), 1.0).points)

    def test_empty_cloud(self):
        out = voxel_downsample(PointCloud(np.empty((0, 3))), 0.1)
        assert same_bits(out.points, reference_voxel(PointCloud(np.empty((0, 3))), 0.1).points)

    def test_range_of_a_million_voxels(self, rng):
        pts = rng.uniform(-5e5, 5e5, (4000, 3))
        pts[:1000] = np.round(pts[:1000] / 1e5) * 1e5  # shared far-apart voxels
        keys = np.floor(pts)
        assert keys.max() - keys.min() > 9e5
        out = voxel_downsample(PointCloud(pts), 1.0)
        assert same_bits(out.points, reference_voxel(PointCloud(pts), 1.0).points)


def reference_lexsort_voxel(cloud, voxel_size):
    """Voxel binning by lexsort over an (n, 3) key array and a sorted copy of
    the points, as it was; the bit oracle of the column-wise version."""
    if len(cloud) == 0:
        return PointCloud(np.empty((0, 3)))
    keys = np.floor(cloud.points / voxel_size).astype(np.int64)
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
    voxel = np.cumsum(starts) - 1
    counts = np.bincount(voxel)
    pts = cloud.points[order]
    sums = np.stack([np.bincount(voxel, weights=pts[:, a]) for a in range(3)], axis=1)
    return PointCloud(sums / counts[:, None])


def same_voxels(pts, voxel_size):
    out = voxel_downsample(PointCloud(pts), voxel_size).points
    return same_bits(out, reference_lexsort_voxel(PointCloud(pts), voxel_size).points)


class TestVoxelMatchesLexsortReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_clouds(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 20_000))
        pts = rng.normal(0, 10 ** rng.uniform(-2, 1), (n, 3)) + rng.normal(0, 3, 3)
        if seed % 2:
            pts = np.round(pts, 2)  # points on voxel boundaries
        assert same_voxels(pts, 10 ** rng.uniform(-3, 0))

    def test_empty_cloud(self):
        assert same_voxels(np.empty((0, 3)), 0.1)

    def test_one_point(self):
        assert same_voxels(np.array([[0.3, -0.2, 1.1]]), 0.005)

    def test_negative_coordinates(self, rng):
        pts = rng.uniform(-3.0, -0.001, (2000, 3))
        pts[::3, 1] *= -1
        assert same_voxels(pts, 0.25)

    def test_duplicate_points(self, rng):
        base = rng.uniform(-1, 1, (300, 3))
        pts = np.vstack([base, base[::-1], base[:100], np.zeros((50, 3))])
        assert same_voxels(pts, 0.05)

    def test_each_point_its_own_voxel(self, rng):
        pts = rng.uniform(-1, 1, (5000, 3))
        assert len(voxel_downsample(PointCloud(pts), 1e-6)) == 5000
        assert same_voxels(pts, 1e-6)

    def test_range_of_a_million_voxels(self, rng):
        pts = rng.uniform(-5e5, 5e5, (4000, 3))
        pts[:1000] = np.round(pts[:1000] / 1e5) * 1e5  # shared far-apart voxels
        assert same_voxels(pts, 1.0)


class TestVoxelKeyRange:
    RULE = "voxel_size too small: coordinate / voxel_size must fit in int64"

    @pytest.mark.parametrize("voxel_size", [1e-30, 1e-320])
    def test_voxel_too_small_for_the_extent(self, rng, voxel_size):
        pts = rng.uniform(0.5, 2.0, (100, 3))
        with pytest.raises(BadParameter) as exc:
            voxel_downsample(PointCloud(pts), voxel_size)
        assert str(exc.value) == self.RULE

    @pytest.mark.parametrize("bad", [2.0**63, -(2.0**64), np.inf, np.nan])
    def test_coordinate_outside_int64(self, bad):
        pts = np.zeros((3, 3))
        pts[1, 2] = bad
        with pytest.raises(BadParameter, match="must fit in int64"):
            voxel_downsample(PointCloud(pts), 1.0)

    def test_int64_limits_accepted(self):
        lowest = -(2.0**63)
        highest = np.nextafter(2.0**63, 0)  # the largest float below 2**63
        pts = np.array([[lowest, 0.0, 0.0], [highest, 0.0, 0.0]])
        out = voxel_downsample(PointCloud(pts), 1.0)
        assert same_bits(out.points, pts)


class TestSorQueryBlockEdges:
    """Point counts just below, at and just above a multiple of the query
    block, so the last block is short, full or a single row."""

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_matches_reference(self, offset, blocks):
        n = blocks * cloudmod._SOR_BLOCK_ROWS + offset
        rng = np.random.default_rng(n)
        pts = rng.normal(size=(n, 3))
        pts[::97] *= 6.0
        cloud = PointCloud(pts)
        out = statistical_outlier_removal(cloud, k=8, sigma_mult=1.0)
        assert 0 < len(out) < n
        assert same_bits(out.points, reference_sor(cloud, 8, 1.0).points)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_window_pass_matches_reference(self, offset, blocks, cascade):
        n = blocks * cloudmod._SOR_BLOCK_ROWS + offset
        camera, disp = jumps_and_holes_map()
        cloud = grid_cloud(camera, disp)
        cloud = cloud.take(np.arange(len(cloud)) < n)
        out = statistical_outlier_removal(cloud, k=8, sigma_mult=1.0, camera=camera)
        assert 0 < len(out) < n
        assert 0 < n - len(cascade[0]) < n
        assert same_bits(out.points, reference_sor(cloud, 8, 1.0).points)


def grid_cloud(camera, disp):
    """The cloud disparity_to_cloud makes of disp: one point per valid pixel."""
    return disparity_to_cloud(StereoRig(camera, 0.06), disp)


def jumps_and_holes_map(seed=7):
    """A 96x64 map, valid up to every image border: a tilted background,
    two boxes far nearer the camera, 10% holes and a 1-pixel-wide spike."""
    camera = CameraModel(80.0, 80.0, 48.0, 32.0, 96, 64)
    v, u = np.mgrid[0:64, 0:96]
    disp = 3.0 + 0.02 * u + 0.01 * v
    disp[10:30, 20:45] = 25.0
    disp[35:60, 60:90] = 12.0 + 0.1 * v[35:60, 60:90]
    disp[:, 50] = 40.0
    disp[np.random.default_rng(seed).random(disp.shape) < 0.1] = -1.0
    return camera, disp


@pytest.fixture
def cascade(monkeypatch):
    """The rows each step of SOR's cascade writes a mean distance for, one
    array per step in the order they run: the narrow window, the wide one
    when there is one, then the kd-tree when a row is left. With no window
    the tree is the only step. n - len(cascade[0]) rows are left to the
    wide window and the tree."""
    steps = []
    settle = cloudmod._settle

    def recorded(points, rows, batch_rows, make_scratch, prove, mean_dists):
        written = np.full(len(points), np.nan)
        left = settle(points, rows, batch_rows, make_scratch, prove, written)
        settled = np.flatnonzero(~np.isnan(written))
        mean_dists[settled] = written[settled]
        steps.append(settled)
        return left

    monkeypatch.setattr(cloudmod, "_settle", recorded)
    return steps


def window_step(windows, window, points, rows=None):
    """One window's step of the cascade alone, over points[rows] (every
    point when rows is None): the mean distances it writes, nan elsewhere,
    and the rows it leaves."""
    means = np.full(len(points), np.nan)
    prove = functools.partial(windows._prove, window)
    left = cloudmod._settle(points, rows, window.rows, windows.scratch, prove, means)
    return means, left


def stereo_cloud(spec):
    """The cloud `cloud` makes of the spec's stereo pair before SOR."""
    cfg = PipelineConfig()
    rig = cfg.rig()
    left, right = synth_stereo_pair(spec, render_disparity(spec, rig))
    disp = block_match_disparity(left, right, cfg.block_radius, cfg.max_disparity)
    disp = window_disparity_filter(disp, cfg.window, cfg.delta)
    return PointCloud(disparity_to_cloud(rig, disp).points), cfg.camera()


@pytest.fixture(scope="module")
def default_stereo():
    return stereo_cloud(GridSpec())


class TestSorPixelWindows:
    """The window pass gives the kd-tree's survivors bit for bit."""

    def test_rendered_default_scene(self, cascade):
        cfg = PipelineConfig()
        cloud = grid_cloud(cfg.camera(), render_disparity(GridSpec(), cfg.rig()))
        out = statistical_outlier_removal(cloud, camera=cfg.camera())
        ref = reference_sor(cloud, 16, 1.0)
        assert same_bits(out.points, ref.points)
        assert np.array_equal(out.provenance, ref.provenance)
        assert len(cloud) - len(cascade[0]) < 0.05 * len(cloud)

    @pytest.mark.parametrize("scene", ["jumps", "rendered"])
    def test_window_means_are_the_trees_bit_for_bit(self, scene):
        # survivors hide a last-bit change in a mean; compare the means
        cfg = PipelineConfig()
        if scene == "jumps":
            camera, disp = jumps_and_holes_map()
        else:
            camera, disp = cfg.camera(), render_disparity(GridSpec(), cfg.rig())
        points = grid_cloud(camera, disp).points
        windows = cloudmod._PixelWindows.build(points, camera, 16)
        means, _ = window_step(windows, windows.windows[0], points)
        proven = np.flatnonzero(~np.isnan(means))
        assert len(proven) > 0.8 * len(points)
        dists, _ = cKDTree(points).query(points[proven], k=17)
        assert same_bits(means[proven], dists[:, 1:].mean(axis=1))

    def test_tilted_bench_scene_stereo(self, tmp_path):
        from perfbench.inputs import scene_spec

        path = tmp_path / "scene.txt"
        path.write_text(scene_spec(9001, 2))
        cloud, camera = stereo_cloud(read_grid_spec(path))
        out = statistical_outlier_removal(cloud, camera=camera)
        assert same_bits(out.points, reference_sor(cloud, 16, 1.0).points)

    def test_default_stereo_tree_answers_under_5_percent(self, default_stereo, cascade):
        # about 0.9%: a bound too weak to prove most windows would pass the
        # bit tests on the tree's answers alone
        cloud, camera = default_stereo
        statistical_outlier_removal(cloud, camera=camera)
        assert len(cascade) > 1
        assert len(cloud) - len(cascade[0]) < 0.05 * len(cloud)

    @pytest.mark.parametrize("k", [1, 16, 60])  # 60 needs R = 7, not 3
    @pytest.mark.parametrize("sigma_mult", [1.0, -0.5])
    def test_depth_jumps_holes_and_borders(self, k, sigma_mult, cascade):
        camera, disp = jumps_and_holes_map()
        cloud = grid_cloud(camera, disp)
        out = statistical_outlier_removal(cloud, k=k, sigma_mult=sigma_mult, camera=camera)
        ref = reference_sor(cloud, k, sigma_mult)
        assert same_bits(out.points, ref.points)
        assert np.array_equal(out.provenance, ref.provenance)
        assert 0 < len(cloud) - len(cascade[0]) < len(cloud)

    @pytest.mark.parametrize("k, steps", [(1, 2), (16, 3), (60, 3)])
    def test_each_row_settled_exactly_once(self, k, steps, cascade):
        # k = 1 has no wide window: ceil(k/2) is the narrow radius, 1
        camera, disp = jumps_and_holes_map()
        cloud = grid_cloud(camera, disp)
        out = statistical_outlier_removal(cloud, k=k, camera=camera)
        assert same_bits(out.points, reference_sor(cloud, k, 1.0).points)
        assert len(cascade) == steps and all(len(rows) for rows in cascade)
        assert sum(len(rows) for rows in cascade) == len(cloud)
        assert np.array_equal(np.sort(np.concatenate(cascade)), np.arange(len(cloud)))

    @pytest.mark.parametrize("k", [1, 16])
    def test_sparse_random_pixels(self, rng, k, cascade):
        camera = CameraModel(100.0, 90.0, 60.0, 40.0, 120, 80)
        disp = np.where(rng.random((80, 120)) < 0.03, rng.uniform(1.0, 30.0, (80, 120)), -1.0)
        cloud = grid_cloud(camera, disp)
        out = statistical_outlier_removal(cloud, k=k, camera=camera)
        assert same_bits(out.points, reference_sor(cloud, k, 1.0).points)
        assert len(cloud) - len(cascade[0]) > len(cloud) // 2  # most windows are too empty to prove

    def test_cloud_off_its_pixel_rays_takes_the_tree(self, cascade):
        camera, disp = jumps_and_holes_map()
        cloud = grid_cloud(camera, disp)
        cloud.points[5, 0] += 1e-4 * cloud.points[5, 2] / camera.fx  # 1e-4 px off
        assert cloudmod._PixelWindows.build(cloud.points, camera, 16) is None
        out = statistical_outlier_removal(cloud, camera=camera)
        assert same_bits(out.points, reference_sor(cloud, 16, 1.0).points)
        assert len(cascade) == 1 and len(cascade[0]) == len(cloud)

    def test_two_points_on_one_pixel_take_the_tree(self, cascade):
        camera, disp = jumps_and_holes_map()
        cloud = grid_cloud(camera, disp)
        cloud = PointCloud(np.vstack([cloud.points, 1.5 * cloud.points[:1]]))  # pixel 0's ray
        assert cloudmod._PixelWindows.build(cloud.points, camera, 16) is None
        out = statistical_outlier_removal(cloud, camera=camera)
        assert same_bits(out.points, reference_sor(cloud, 16, 1.0).points)
        assert len(cascade) == 1 and len(cascade[0]) == len(cloud)

    def test_point_outside_the_frame_takes_the_tree(self):
        camera, disp = jumps_and_holes_map()
        cloud = grid_cloud(camera, disp)
        small = CameraModel(80.0, 80.0, 48.0, 32.0, 95, 64)  # column 95 is outside
        assert cloudmod._PixelWindows.build(cloud.points, small, 16) is None
        out = statistical_outlier_removal(cloud, camera=small)
        assert same_bits(out.points, reference_sor(cloud, 16, 1.0).points)

    @pytest.mark.parametrize("threads", [1, 8])  # 8: more threads than this machine has CPUs
    def test_thread_count_does_not_change_survivors(self, default_stereo, monkeypatch, threads):
        # the threads write disjoint rows of one mean-distance array; a short
        # switch interval interleaves them as often as it can
        cloud, camera = default_stereo
        cloud = cloud.take(np.arange(len(cloud)) < 100_000)
        default = statistical_outlier_removal(cloud, camera=camera)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(threads)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            out = statistical_outlier_removal(cloud, camera=camera)
        finally:
            sys.setswitchinterval(interval)
        assert same_bits(out.points, default.points)
        assert same_bits(out.points, reference_sor(cloud, 16, 1.0).points)


class TestSorWideWindow:
    """Points whose k nearest lie along a one-pixel-wide line of pixels, as
    on a thin rod's image or a rod's edge: the narrow window (7 x 7 at
    k = 16) holds too few of them, and the wide one (17 x 17) settles them."""

    camera = CameraModel(200.0, 200.0, 48.0, 32.0, 96, 64)

    def strips(self):
        # a near horizontal strip over a far vertical one, each one pixel wide
        disp = np.full((64, 96), -1.0)
        disp[20:60, 40] = 10.0
        disp[30, 8:88] = 12.0
        return grid_cloud(self.camera, disp).points

    def test_narrow_window_proves_none_and_the_wide_one_most(self):
        points = self.strips()
        windows = cloudmod._PixelWindows.build(points, self.camera, 16)
        assert len(windows.windows) == 2
        narrow, wide = windows.windows
        _, left = window_step(windows, narrow, points)
        assert len(left) == len(points)
        means, left = window_step(windows, wide, points, left)
        settled = np.flatnonzero(~np.isnan(means))
        assert len(left) == len(points) - len(settled)
        assert len(settled) > 0.6 * len(points)
        dists, _ = cKDTree(points).query(points[settled], k=17)
        assert same_bits(means[settled], dists[:, 1:].mean(axis=1))

    @pytest.mark.parametrize("sigma_mult", [1.0, -0.5])
    def test_survivors_are_the_trees(self, sigma_mult, cascade):
        # the strips' ends and the far strip's gap under the near one are
        # left to the tree, the third step
        cloud = PointCloud(self.strips())
        out = statistical_outlier_removal(cloud, 16, sigma_mult, self.camera)
        assert same_bits(out.points, reference_sor(cloud, 16, sigma_mult).points)
        assert len(cascade) == 3 and 0 < len(cascade[2]) < 0.4 * len(cloud)

    @pytest.mark.parametrize("block_rows", [7, 64])
    def test_wide_batches_do_not_change_survivors(self, monkeypatch, block_rows):
        # narrow batches of a few points, and wide batches of one: each
        # block of the cloud, or of the rows left, goes to many batches
        monkeypatch.setattr(cloudmod, "_SOR_WINDOW_VALUES", 48 * block_rows)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        camera, disp = jumps_and_holes_map()
        cloud = grid_cloud(camera, disp)
        out = statistical_outlier_removal(cloud, 16, 1.0, camera)
        assert same_bits(out.points, reference_sor(cloud, 16, 1.0).points)

    def test_tree_not_built_when_the_windows_settle_every_point(self, monkeypatch):
        # a closed loop of strips has no ends: every point has 8 strip
        # pixels on each side
        disp = np.full((64, 96), -1.0)
        disp[10, 10:80] = disp[50, 10:80] = 10.0
        disp[10:51, 10] = disp[10:51, 79] = 10.0
        cloud = grid_cloud(self.camera, disp)

        def no_tree(*args):
            raise AssertionError("the kd-tree was built")

        monkeypatch.setattr(cloudmod, "_tree_settle", no_tree)
        out = statistical_outlier_removal(cloud, 16, 1.0, self.camera)
        monkeypatch.undo()
        assert same_bits(out.points, reference_sor(cloud, 16, 1.0).points)

    def test_wide_bound_is_the_nearest_outside_distance(self):
        # TestWindowBound's X and X', with X' 9 columns from X's pixel, just
        # outside the wide window (R = 8), at the depth nearest to X
        camera, x = TestWindowBound.camera, TestWindowBound.x
        a, a2 = 0.08, 0.08 + 9 / camera.fx
        t = a2 * x[2] * (a - a2) / (1 + a2 * a2)
        far = (x[2] + t) * np.array([a2, 0.0, 1.0])
        pts = np.array([x, far])
        windows = cloudmod._PixelWindows.build(pts, camera, 16)
        bound = windows.windows[1].bound(pts[:1])[0]
        assert bound <= np.linalg.norm(far - x) <= bound * (1 + 1e-5)

    @pytest.mark.parametrize("k, radii", [(1, [1]), (4, [2]), (5, [2, 3]), (16, [3, 8]),
                                          (60, [7, 8]), (74, [7, 8]), (75, [8]), (200, [12])])
    def test_window_radii(self, k, radii):
        camera, disp = jumps_and_holes_map()
        windows = cloudmod._PixelWindows.build(grid_cloud(camera, disp).points, camera, k)
        sides = [int(np.sqrt(len(w.offsets) + 1)) for w in windows.windows]
        assert sides == [2 * r + 1 for r in radii]


class TestWindowBound:
    """With k = 1 the window is 3x3 (R = 1): X on pixel (40, 24), its only
    window neighbour N on (41, 24) at distance rho, and X' on (42, 24), just
    outside the window, at the depth that brings it nearest to X: there its
    distance z s / sqrt(1 + (|a| + s)^2) equals the bound's, s = 2 px / fx."""

    camera = CameraModel(100.0, 100.0, 32.0, 24.0, 64, 48)
    x = np.array([0.16, 0.0, 2.0])  # a = 0.08, b = 0

    def nearest_outside(self):
        a2 = 0.10
        t = a2 * self.x[2] * (0.08 - a2) / (1 + a2 * a2)  # argmin over the depth change
        return (self.x[2] + t) * np.array([a2, 0.0, 1.0])

    def at_distance(self, rho):
        # N = zn (0.09, 0, 1) with |N - X| = rho: the far root of the quadratic
        a, z = 0.09, self.x[2]
        qa, qb, qc = 1 + a * a, -2 * (a * self.x[0] + z), self.x[0] ** 2 + z * z - rho * rho
        zn = (-qb + np.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
        return zn * np.array([a, 0.0, 1.0])

    def windows(self, points):
        windows = cloudmod._PixelWindows.build(points, self.camera, 1)
        assert windows is not None and len(windows.windows) == 1 and windows.pad == 1
        return windows

    def test_bound_is_the_nearest_outside_distance(self):
        far = self.nearest_outside()
        pts = np.array([self.x, far])
        bound = self.windows(pts).windows[0].bound(pts[:1])[0]
        dist = np.linalg.norm(far - self.x)
        assert bound <= dist <= bound * (1 + 1e-5)

    def fill_x(self, rho):
        pts = np.array([self.x, self.at_distance(rho), self.nearest_outside()])
        windows = self.windows(pts)
        means, rest = window_step(windows, windows.windows[0], pts, np.array([0]))
        cloud = PointCloud(pts)
        out_sor = statistical_outlier_removal(cloud, k=1, camera=self.camera)
        assert same_bits(out_sor.points, reference_sor(cloud, 1, 1.0).points)
        return rest, means[0], np.linalg.norm(pts[1] - pts[0])

    def test_neighbour_inside_the_bound_is_proven(self):
        bound = self.windows(np.array([self.x])).windows[0].bound(self.x[None])[0]
        rest, mean, rho = self.fill_x(bound * (1 - 1e-6))
        assert len(rest) == 0
        assert mean == pytest.approx(rho, rel=1e-15)

    def test_neighbour_beyond_the_outside_point_is_not(self):
        rho = np.linalg.norm(self.nearest_outside() - self.x) * (1 + 1e-5)
        rest, mean, _ = self.fill_x(rho)
        assert list(rest) == [0]
        assert np.isnan(mean)


class TestPeakAllocation:
    """Bounds from the arrays each step needs, not from measured peaks."""

    def test_voxel_below_two_and_a_half_inputs(self, rng):
        # every point its own voxel, so the centroids are as large as the
        # input: they (1x) plus the voxel labels, the counts, one weights
        # column and one sum column (1/3x each) come to 2.33x; an (n, 3)
        # copy of the points or keys on top of that would pass 2.5x
        pts = rng.uniform(-1.0, 1.0, (200_000, 3))
        cloud = PointCloud(pts)
        assert peak_bytes(voxel_downsample, cloud, 1e-6) < 2.5 * pts.nbytes

    def test_sor_holds_no_whole_cloud_scratch(self, rng, monkeypatch):
        # the tree keeps a view of the points and its indices (1/3x), then
        # the mean distances (1/3x), the pixel-index image, each thread's
        # block scratch and half as much again for its block's own arrays
        # (the tree's answers for the rows it cannot prove, row vectors),
        # and 0.1x for the rest; a whole-cloud pixel array (2/3x) or
        # coordinate (1/3x) would pass the bound. Noisy depths make the
        # tree answer most rows, and sigma_mult = -1 keeps about a sixth of
        # the points, so the survivors stay below the bound.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        camera = CameraModel(500.0, 500.0, 320.0, 240.0, 640, 480)
        cloud = PointCloud(grid_cloud(camera, rng.uniform(20.0, 25.0, (480, 640))).points)
        image = (480 + 6) * (640 + 6) * 4
        scratch = cloudmod._SOR_BLOCK_ROWS * 48 * (8 + 4 + 1 + 8 + 8)
        size = cloud.points.nbytes
        bound = (1 / 3 + 1 / 3 + 0.1) * size + image + 2 * 1.5 * scratch
        assert peak_bytes(statistical_outlier_removal, cloud, 16, -1.0, camera) < bound

    def test_sor_scratch_is_per_block_not_per_cpu(self, rng, monkeypatch):
        # a 2-block cloud runs on 2 threads however many CPUs there are, so
        # it takes two threads' block scratch and half as much again for
        # each block's own arrays; eight CPUs' scratch would pass the bound.
        # The untraced first call loads scipy.spatial outside the trace.
        camera = CameraModel(50.0, 50.0, 32.0, 24.0, 64, 48)
        cloud = PointCloud(grid_cloud(camera, rng.uniform(20.0, 25.0, (48, 64))).points)
        assert -(-len(cloud) // cloudmod._SOR_BLOCK_ROWS) == 2
        want = statistical_outlier_removal(cloud, 16, -1.0, camera)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        assert same_bits(statistical_outlier_removal(cloud, 16, -1.0, camera).points, want.points)
        scratch = cloudmod._SOR_BLOCK_ROWS * 48 * (8 + 4 + 1 + 8 + 8)
        assert peak_bytes(statistical_outlier_removal, cloud, 16, -1.0, camera) < 2 * 1.5 * scratch

    def test_index_image_freed_before_the_tree_is_built(self, monkeypatch):
        # the image and the tree are never held at once
        camera, disp = jumps_and_holes_map()
        cloud = grid_cloud(camera, disp)
        built, alive = [], []
        build, tree_settle = cloudmod._PixelWindows.build, cloudmod._tree_settle

        def tracked_build(*args):
            windows = build(*args)
            built.append(weakref.ref(windows))
            return windows

        def checked_tree_settle(*args):
            alive.extend(ref() is not None for ref in built)
            tree_settle(*args)

        monkeypatch.setattr(cloudmod._PixelWindows, "build", tracked_build)
        monkeypatch.setattr(cloudmod, "_tree_settle", checked_tree_settle)
        statistical_outlier_removal(cloud, camera=camera)
        assert alive == [False]

    @pytest.mark.parametrize("k", [1, 16, 60, 200])
    def test_window_scratch_stays_at_its_k_16_size(self, k):
        # a larger k has a larger window (R = 12 at k = 200), and its blocks
        # take fewer points instead of more scratch
        camera, disp = jumps_and_holes_map()
        windows = cloudmod._PixelWindows.build(grid_cloud(camera, disp).points, camera, k)
        size = sum(a.nbytes for a in windows.scratch())
        assert size <= cloudmod._SOR_BLOCK_ROWS * 48 * (8 + 4 + 1 + 8 + 8)

    def test_read_ply_holds_no_list_of_lines(self, tmp_path, rng):
        # the file's bytes, the points and one parse chunk; a list of the
        # file's lines as str objects alone would be about 3x the file
        pts = rng.uniform(-2.0, 2.0, (100_000, 3))
        path = tmp_path / "c.ply"
        reference_write_ply(path, PointCloud(pts))
        peak = peak_bytes(read_ply, path)
        assert peak < path.stat().st_size + 1.5 * pts.nbytes

    def test_read_binary_ply_holds_the_points_once(self, tmp_path, rng):
        # the points and the finiteness mask (1/8x); a copy of the file's
        # bytes on top of that would pass 2x
        pts = rng.uniform(-2.0, 2.0, (100_000, 3))
        path = tmp_path / "c.ply"
        write_ply(path, PointCloud(pts))
        assert peak_bytes(read_ply, path) < 1.25 * pts.nbytes


class TestPlyIO:
    def test_round_trip(self, tmp_path, rng):
        pts = rng.normal(size=(40, 3))
        cloud = PointCloud(pts)
        path = tmp_path / "cloud.ply"
        write_ply(path, cloud)
        back = read_ply(path)
        assert np.allclose(back.points, pts, rtol=1e-5, atol=1e-8)
        # bit-stable: a second write of the parsed cloud is identical
        path2 = tmp_path / "cloud2.ply"
        write_ply(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_cloud_round_trip(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_ply(path, PointCloud(np.empty((0, 3))))
        assert len(read_ply(path)) == 0

    def test_missing_magic(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("not a ply\n")
        with pytest.raises(ParseError) as exc:
            read_ply(path)
        assert exc.value.line == 1

    def test_short_body_reports_line(self, tmp_path):
        path = tmp_path / "short.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 1 1\n"
        )
        with pytest.raises(ParseError) as exc:
            read_ply(path)
        assert exc.value.line == 9  # the file's last line

    def test_bad_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad2.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0\n"
        )
        with pytest.raises(ParseError) as exc:
            read_ply(path)
        assert exc.value.line == 8


def reference_write_ply(path, cloud):
    """The per-point loop the PLY writer replaced; the byte oracle."""
    pts = cloud.points
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {pts.shape[0]}\n")
        f.write("property float x\nproperty float y\nproperty float z\n")
        f.write("end_header\n")
        for x, y, z in pts:
            f.write(f"{x:.6g} {y:.6g} {z:.6g}\n")


def reference_read_ply(path):
    """The per-line loop the PLY reader replaced; the value and error oracle."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError(1, "missing 'ply' magic")
    count = None
    body_start = None
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            try:
                count = int(parts[2])
            except (IndexError, ValueError):
                raise ParseError(i, "bad element vertex line") from None
            if count < 0:
                raise ParseError(i, f"negative vertex count {count}")
        elif parts == ["end_header"]:
            body_start = i
            break
    if count is None or body_start is None:
        raise ParseError(len(lines), "header missing vertex count or end_header")
    if len(lines) < body_start + count:
        raise ParseError(len(lines), f"expected {count} data rows")
    pts = np.empty((count, 3))
    for j in range(count):
        lineno = body_start + 1 + j
        parts = lines[lineno - 1].split()
        if len(parts) != 3:
            raise ParseError(lineno, f"expected 3 values, got {len(parts)}")
        try:
            pts[j] = [float(v) for v in parts]
        except ValueError:
            raise ParseError(lineno, "non-numeric coordinate") from None
        if not np.isfinite(pts[j]).all():
            raise ParseError(lineno, "non-finite coordinate")
    return PointCloud(pts)


def ply_outcome(reader, path):
    """A reader's points as raw bits, or its ParseError's line and message."""
    try:
        return reader(path).points.tobytes()
    except ParseError as e:
        return ("ParseError", e.line, str(e))


PLY_HEADER = (
    "ply\nformat ascii 1.0\nelement vertex 3\n"
    "property float x\nproperty float y\nproperty float z\nend_header\n"
)


def binary_ply_header(n):
    """The header write_ply writes for an n-point cloud, byte for byte."""
    return (
        b"ply\nformat binary_little_endian 1.0\nelement vertex %d\n"
        b"property double x\nproperty double y\nproperty double z\nend_header\n" % n
    )


# the extremes a cloud's values must survive: signed zero, tiny, huge, subnormal
EXTREMES = [-0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, -2.5e-310, 2.2250738585072e-308]


class TestPlyCodecMatchesReference:
    """write_ply writes the header and, as little-endian float64, the values
    the per-line ASCII oracle's file held; read_ply gives those bits back,
    and reads ASCII files as the oracle does."""

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 10_001])
    def test_bytes_and_values(self, tmp_path, rng, n):
        # magnitudes from 1e-8 to 1e8 of either sign, some -0.0, and the
        # extremes in the first rows; more rows than one write block for
        # the largest size
        pts = 10.0 ** rng.uniform(-8, 8, (n, 3)) * rng.choice([-1.0, 1.0], (n, 3))
        pts[rng.random((n, 3)) < 0.02] = -0.0
        k = min(len(EXTREMES), pts.size)
        pts.flat[:k] = EXTREMES[:k]
        ref = tmp_path / "ref.ply"
        reference_write_ply(ref, PointCloud(pts))
        held = reference_read_ply(ref).points
        path = tmp_path / "c.ply"
        write_ply(path, PointCloud(pts))
        assert path.read_bytes() == binary_ply_header(n) + held.astype("<f8").tobytes()
        back = read_ply(path)
        assert back.points.shape == (n, 3)
        assert back.points.tobytes() == held.tobytes()
        # values the file can hold come back bit for bit
        write_ply(path, back)
        assert read_ply(path).points.tobytes() == held.tobytes()
        # an ASCII file, as other tools write them, reads as the oracle reads it
        assert read_ply(ref).points.tobytes() == held.tobytes()

    def test_special_values(self, tmp_path):
        pts = np.array([[-0.0, np.nan, np.inf], [-np.inf, 1e-300, -1e300]])
        path = tmp_path / "c.ply"
        write_ply(path, PointCloud(pts))
        assert path.read_bytes() == binary_ply_header(2) + pts.astype("<f8").tobytes()
        # nan and inf are written as they are, but no reader takes them back
        assert ply_outcome(read_ply, path) == ("ParseError", 7, "line 7: non-finite coordinate")
        ref = tmp_path / "ref.ply"
        reference_write_ply(ref, PointCloud(pts))
        assert ply_outcome(read_ply, ref) == ply_outcome(reference_read_ply, ref) == (
            "ParseError", 8, "line 8: non-finite coordinate"
        )
        finite = tmp_path / "finite.ply"
        write_ply(finite, PointCloud(EXTREMES[:6]))
        back = read_ply(finite)
        assert back.points.tobytes() == np.array(EXTREMES[:6]).tobytes()
        assert np.signbit(back.points[0, 0])

    @pytest.mark.parametrize("token", ["nan", "-nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_its_line(self, tmp_path, token):
        path = tmp_path / "c.ply"
        path.write_text(PLY_HEADER + f"0 0 0\n1 {token} 1\n2 2 2\n")
        with pytest.raises(ParseError) as exc:
            read_ply(path)
        assert str(exc.value) == "line 9: non-finite coordinate"

    @pytest.mark.parametrize(
        "body",
        [
            "0 0 0\n\n1 1 1\n2 2 2\n",  # blank line inside the body (loadtxt skips it)
            "0 0 0\n \t \n1 1 1\n",  # whitespace-only line
            "0 0 0\n# 1 1\n2 2 2\n",  # '#' token (loadtxt's default comment)
            "0 0 0\n1 1 #\n2 2 2\n",
            "0 0 0\n1 1 1 # note\n2 2 2\n",  # a full row, then a '#' token
            "0 0 0\n1 1 1 1\n2 2 2\n",  # one row with an extra value
            "0 0 0\n1 1\n2 2 2\n",  # short row
            "0 0 0\n1 1 1\n",  # short body
            "",  # no body at all
            "0 0 0\n1 y 1\n2 2 2\n",  # non-numeric token
            "0 0 0\n1_0 1 1\n2 2 2\n",  # float() accepts '1_0', loadtxt does not
            "0 0 0\n1 1 1\n2 2 2\n3 3 3\nnot read\n",  # lines past the declared count
            "0 0 0\n1 1 1\n2 2 2",  # no final newline
            "0\t0 0\n1\xa01 1\n2 2　2\n",  # other whitespace separators
            "0 0 0\n1 1\v1\n2 2 2\n",  # a vertical tab ends a line
            "nan -nan inf\n-0 +1 1e999\n.5 5. -.5e-3\n",
        ],
    )
    def test_parse_outcome(self, tmp_path, body):
        path = tmp_path / "c.ply"
        path.write_bytes((PLY_HEADER + body).encode())
        assert ply_outcome(read_ply, path) == ply_outcome(reference_read_ply, path)

    def test_blank_line_reported_where_it_is(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(PLY_HEADER + "0 0 0\n\n1 1 1\n2 2 2\n")
        with pytest.raises(ParseError) as exc:
            read_ply(path)
        assert (exc.value.line, str(exc.value)) == (9, "line 9: expected 3 values, got 0")


class TestPlyLineBreaks:
    """Files that are not plain "\\n"-separated ASCII are split whole, and
    every file parses or fails as the per-line oracle says."""

    BODY = "0 0 0\n1 1 1\n2 2 2\n"

    @pytest.mark.parametrize(
        "text",
        [
            (PLY_HEADER + BODY).replace("\n", "\r\n"),
            (PLY_HEADER + BODY).replace("\n", "\r"),
            PLY_HEADER + BODY.replace("1 1 1\n", "1 1 1\r\n"),
            PLY_HEADER.replace("end_header", "comment café\nend_header") + BODY,
            PLY_HEADER + BODY + "café\n",  # non-ASCII past the declared rows
            (PLY_HEADER + "0 0 0\r\n\r\n1 1 1\r\n2 2 2\r\n"),  # blank line, found by the loop
            PLY_HEADER + "0 0 0\n1\u20281 1\n2 2 2\n",  # U+2028 ends a line
            PLY_HEADER + "0 0 0\n1 1 1\x1c2 2 2\n",  # so does a file separator
        ],
    )
    def test_parse_outcome(self, tmp_path, text):
        path = tmp_path / "c.ply"
        path.write_bytes(text.encode())
        assert ply_outcome(read_ply, path) == ply_outcome(reference_read_ply, path)

    def test_crlf_file_parses(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_bytes((PLY_HEADER + self.BODY).replace("\n", "\r\n").encode())
        assert read_ply(path).points.tolist() == [[0, 0, 0], [1, 1, 1], [2, 2, 2]]

    def test_header_error_names_the_last_line(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("ply\nformat ascii 1.0\nend_header\n0 0 0\n1 1 1\n")
        with pytest.raises(ParseError) as exc:
            read_ply(path)
        assert exc.value.line == 5
        assert ply_outcome(read_ply, path) == ply_outcome(reference_read_ply, path)


def format_6g(values):
    """The 6-digit rounding oracle: each value through "%.6g" and back."""
    return np.array([float("%.6g" % v) for v in values])


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRoundTo6Digits:
    """round_to_6_digits is float("%.6g" % v) to the bit, above all where
    one rounding too many would show: next to halves of the 6th digit and
    next to powers of ten."""

    def test_random_magnitudes(self, rng):
        v = 10.0 ** rng.uniform(-30, 30, 20_000) * rng.choice([-1.0, 1.0], 20_000)
        assert same_bits(cloudmod.round_to_6_digits(v), format_6g(v))

    def test_next_to_halves(self, rng):
        digits = rng.integers(100_000, 1_000_000, 3_000) * 10 + 5
        exps = rng.integers(-25, 25, 3_000)
        halves = np.array([float(f"{d}e{e}") for d, e in zip(digits.tolist(), exps.tolist())])
        v = np.concatenate(
            [halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf), -halves]
        )
        assert same_bits(cloudmod.round_to_6_digits(v), format_6g(v))

    def test_next_to_powers_of_ten(self):
        p = np.array([float(f"1e{k}") for k in range(-40, 40)])
        v = np.concatenate(
            [p, np.nextafter(p, 0), np.nextafter(p, np.inf), p * 0.9999995, p * 9.999995, -p]
        )
        assert same_bits(cloudmod.round_to_6_digits(v), format_6g(v))

    def test_special_values(self):
        v = np.array(
            [0.0, -0.0, np.inf, -np.inf, 999999.5, 99999.95, 123456.5, 1234565.0]
            + EXTREMES + [1.7976931348623157e308]
        )
        got = cloudmod.round_to_6_digits(v)
        assert same_bits(got, format_6g(v))
        assert np.signbit(got[1])
        assert np.isnan(cloudmod.round_to_6_digits(np.array([np.nan]))).all()


BODY_3 = np.arange(9.0).astype("<f8").tobytes()  # three points


class TestBinaryPlyErrors:
    """A binary body has no lines: each error after the header names the
    end_header line."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h, b: (h, b[:-1]), "binary body of 71 bytes, expected 72"),
            (lambda h, b: (h, b[:-24]), "binary body of 48 bytes, expected 72"),
            (lambda h, b: (h, b + b"\0"), "binary body of 73 bytes, expected 72"),
            (lambda h, b: (h, b + b"\n"), "binary body of 73 bytes, expected 72"),
            (lambda h, b: (h.replace(b"little", b"big"), b), "binary PLY must be"),
            (lambda h, b: (h.replace(b"double x", b"float x"), b), "binary PLY must be"),
            (lambda h, b: (h.replace(b"double z", b"double w"), b), "binary PLY must be"),
            (lambda h, b: (h.replace(b"1.0", b"1.1"), b), "binary PLY must be"),
            (
                lambda h, b: (h.replace(b"end_header", b"element face 0\nend_header"), b),
                "binary PLY must be",
            ),
            (lambda h, b: (h.replace(b"end_header", b"comment x\nend_header"), b), "binary PLY"),
            (lambda h, b: (h, b[:-8] + struct.pack("<d", np.nan)), "non-finite coordinate"),
            (lambda h, b: (h, struct.pack("<d", -np.inf) + b[8:]), "non-finite coordinate"),
        ],
    )
    def test_bad_file_names_end_header(self, tmp_path, edit, message):
        header, body = edit(binary_ply_header(3), BODY_3)
        path = tmp_path / "c.ply"
        path.write_bytes(header + body)
        end_line = header.split(b"\n").index(b"end_header") + 1
        with pytest.raises(ParseError) as exc:
            read_ply(path)
        assert exc.value.line == end_line
        assert str(exc.value).startswith(f"line {end_line}: {message}")

    @pytest.mark.parametrize(
        "count, message", [(b"-1", "negative vertex count -1"), (b"x", "bad element vertex line")]
    )
    def test_bad_vertex_count_names_its_line(self, tmp_path, count, message):
        path = tmp_path / "c.ply"
        path.write_bytes(binary_ply_header(3).replace(b"vertex 3", b"vertex " + count) + BODY_3)
        with pytest.raises(ParseError) as exc:
            read_ply(path)
        assert str(exc.value) == f"line 3: {message}"

    def test_header_without_end_names_its_last_line(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_bytes(binary_ply_header(3).replace(b"end_header\n", b""))
        with pytest.raises(ParseError) as exc:
            read_ply(path)
        assert str(exc.value) == "line 6: header missing vertex count or end_header"
