import numpy as np
import pytest

from rebartie import planes as planesmod
from rebartie.cloud import PointCloud
from rebartie.errors import DegenerateInput, LayersTooClose, NoConsensus, ParseError
from rebartie.geometry import (
    Plane,
    fit_plane_least_squares,
    plane_signed_distance,
    transform_plane,
    transform_point,
)
from rebartie.planes import (
    ParallelPlanePair,
    RansacParams,
    detect_parallel_planes,
    kmeans_split_offsets,
    ransac_dominant_plane,
    read_plane_pair,
    write_plane_pair,
)

from conftest import peak_bytes, planes_close
from test_geometry import random_rigid


def brute_force_split(values):
    """Oracle: try every sorted-split threshold, return the index partition
    with minimum within-cluster sum of squares."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    s = v[order]
    best = None
    best_cost = np.inf
    for i in range(1, len(s)):
        a, b = s[:i], s[i:]
        cost = ((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum()
        if cost < best_cost:
            best_cost = cost
            best = i
    return set(order[:best].tolist()), set(order[best:].tolist())


def two_layer_cloud(rng, n_per=500, gap=0.1, noise=0.0, outliers=0):
    a = rng.uniform(-0.5, 0.5, (n_per, 3))
    a[:, 1] = 0.0
    b = rng.uniform(-0.5, 0.5, (n_per, 3))
    b[:, 1] = gap
    pts = np.vstack([a, b])
    if noise > 0:
        pts[:, 1] += rng.normal(0, noise, 2 * n_per)
    pts[:, 2] += 2.0 + pts[:, 1]  # camera z increases with y so near/far is defined
    if outliers:
        pts = np.vstack([pts, rng.uniform(-0.5, 0.5, (outliers, 3)) + [0, 0.05, 2]])
    return PointCloud(pts)


class TestRansac:
    def test_noiseless_plane(self, rng):
        pts = rng.uniform(-1, 1, (500, 3))
        pts[:, 1] = 0.5
        plane, inliers = ransac_dominant_plane(
            PointCloud(pts), RansacParams(inlier_threshold=1e-3, seed=1)
        )
        assert planes_close(plane, fit_plane_least_squares(pts), tol=1e-6)
        assert abs(abs(plane.offset) - 0.5) < 1e-6
        assert len(inliers) == 500

    def test_with_outliers_matches_ls_on_true_inliers(self, rng):
        pts = rng.uniform(-1, 1, (500, 3))
        pts[:, 1] = 0.5
        outliers = rng.uniform(0, 1, (50, 3))
        cloud = PointCloud(np.vstack([pts, outliers]))
        plane, inliers = ransac_dominant_plane(
            cloud, RansacParams(inlier_threshold=1e-3, seed=2)
        )
        oracle = fit_plane_least_squares(pts)  # least squares on true inliers
        sign = 1.0 if plane.normal @ oracle.normal >= 0 else -1.0
        assert np.allclose(plane.normal, sign * oracle.normal, atol=1e-3)
        assert plane.offset == pytest.approx(sign * oracle.offset, abs=1e-3)
        assert len(inliers) >= 500

    def test_no_consensus_on_random_points(self, rng):
        cloud = PointCloud(np.random.default_rng(99).uniform(0, 1, (10, 3)))
        params = RansacParams(
            iterations=200, inlier_threshold=1e-4, min_inlier_fraction=0.9, seed=7
        )
        with pytest.raises(NoConsensus):
            ransac_dominant_plane(cloud, params)

    def test_no_consensus_on_a_coordinate_too_large(self, rng):
        # the fit's fourth powers of 1e80 would overflow
        cloud = two_layer_cloud(rng, 200, noise=0.002)
        cloud.points[7, 0] = -1e80
        with pytest.raises(NoConsensus, match="beyond 1e[+]50 m"):
            ransac_dominant_plane(cloud, RansacParams(seed=5))

    def test_no_consensus_on_a_nan_coordinate(self, rng):
        cloud = two_layer_cloud(rng, 200, noise=0.002)
        cloud.points[7, 1] = np.nan
        with pytest.raises(NoConsensus, match="or is NaN"):
            ransac_dominant_plane(cloud, RansacParams(seed=5))

    def test_deterministic_given_seed(self, rng):
        cloud = two_layer_cloud(rng, 200, noise=0.002)
        p1, i1 = ransac_dominant_plane(cloud, RansacParams(seed=5))
        p2, i2 = ransac_dominant_plane(cloud, RansacParams(seed=5))
        assert np.array_equal(p1.normal, p2.normal)
        assert p1.offset == p2.offset
        assert np.array_equal(i1, i2)


def reference_ransac(cloud, params):
    """The loop that scored every candidate on every point; the exactness oracle."""
    pts = cloud.points
    n = pts.shape[0]
    if n < 3:
        raise NoConsensus(f"cloud of size {n} cannot support a plane")
    rng = np.random.default_rng(params.seed)
    best_count = 0
    best_plane = None
    for _ in range(params.iterations):
        i, j, k = rng.choice(n, size=3, replace=False)
        a, b = pts[j] - pts[i], pts[k] - pts[i]
        normal = np.cross(a, b)
        norm = np.linalg.norm(normal)
        if norm <= 1e-12 * (np.linalg.norm(a) * np.linalg.norm(b) + 1e-300):
            continue  # collinear sample
        normal = normal / norm
        candidate = Plane(normal, float(normal @ pts[i]))
        dist = plane_signed_distance(candidate, pts)
        count = int(np.count_nonzero(np.abs(dist) <= params.inlier_threshold))
        if count > best_count:
            best_count = count
            best_plane = candidate
    if best_plane is None or best_count / n < params.min_inlier_fraction:
        raise NoConsensus(
            f"best inlier fraction {best_count / n:.3f} "
            f"< {params.min_inlier_fraction}"
        )
    inliers = np.flatnonzero(
        np.abs(plane_signed_distance(best_plane, pts)) <= params.inlier_threshold
    )
    refit = fit_plane_least_squares(pts[inliers])
    inliers = np.flatnonzero(
        np.abs(plane_signed_distance(refit, pts)) <= params.inlier_threshold
    )
    return refit, inliers


def ransac_outcome(fn, cloud, params):
    """The fit as raw bits, or the NoConsensus message."""
    try:
        plane, inliers = fn(cloud, params)
    except NoConsensus as e:
        return ("NoConsensus", str(e))
    return plane.normal.tobytes(), plane.offset, inliers.tobytes()


def plane_with_outliers(rng, n, plane_frac, noise=0.002):
    """n points, plane_frac of them on a tilted plane with Gaussian noise
    along its normal, the rest uniform in the cloud's box, shuffled."""
    m = int(round(n * plane_frac))
    normal = np.array([0.1, 1.0, 0.3]) / np.linalg.norm([0.1, 1.0, 0.3])
    on = rng.uniform(-0.5, 0.5, (m, 3))
    on -= np.outer(on @ normal - 2.0 + rng.normal(0, noise, m), normal)
    off = rng.uniform(-0.5, 0.5, (n - m, 3)) + normal * 2.0
    pts = np.vstack([on, off])
    return PointCloud(pts[rng.permutation(n)])


class TestRansacEarlyExitMatchesReference:
    """Scoring stops once a candidate cannot win; the fit must not change."""

    @pytest.mark.parametrize(
        "plane_frac, seed", [(0.95, 1), (0.95, 2), (0.5, 3), (0.5, 4), (0.33, 5), (0.1, 6)]
    )
    def test_seeded_clouds(self, plane_frac, seed):
        rng = np.random.default_rng(seed)
        cloud = plane_with_outliers(rng, 40_000, plane_frac)
        params = RansacParams(seed=seed)
        got = ransac_outcome(ransac_dominant_plane, cloud, params)
        assert got == ransac_outcome(reference_ransac, cloud, params)
        if plane_frac > 0.9:
            assert len(got[2]) / 8 > 0.93 * len(cloud)  # about 94% inliers

    @pytest.mark.parametrize("n", [3, 4, 16_383, 16_384, 16_385, 16_386, 32_769])
    def test_cloud_sizes_around_the_block(self, n):
        rng = np.random.default_rng(n)
        cloud = plane_with_outliers(rng, n, 0.6)
        params = RansacParams(iterations=100, seed=n)
        got = ransac_outcome(ransac_dominant_plane, cloud, params)
        assert got == ransac_outcome(reference_ransac, cloud, params)
        assert got[0] != "NoConsensus"

    def test_tie_keeps_the_first_maximum(self):
        # two parallel planes of m points each, the first block all of plane
        # a: a candidate on plane b that follows one on plane a stops after
        # block 1 with count + rows left == best, and must not replace it
        rng = np.random.default_rng(11)
        m = 10_000
        pts = rng.uniform(-0.5, 0.5, (2 * m, 3))
        pts[:m, 1] = 0.0
        pts[m:, 1] = 1.0
        cloud = PointCloud(pts)
        params = RansacParams(seed=3)
        replay = np.random.default_rng(params.seed)
        while True:
            triple = replay.choice(2 * m, size=3, replace=False)
            if (triple < m).all() or (triple >= m).all():
                break
        first = 0 if triple[0] < m else m  # the plane of the first pure triple
        plane, inliers = ransac_dominant_plane(cloud, params)
        assert np.array_equal(inliers, np.arange(first, first + m))
        assert ransac_outcome(ransac_dominant_plane, cloud, params) == ransac_outcome(
            reference_ransac, cloud, params
        )

    @staticmethod
    def scored_rows(monkeypatch):
        """The row count of every block plane_signed_distance is given."""
        rows = []

        def counting(plane, p):
            rows.append(len(p))
            return plane_signed_distance(plane, p)

        monkeypatch.setattr(planesmod, "plane_signed_distance", counting)
        return rows

    def test_scores_fewer_rows(self, monkeypatch):
        # a candidate off the plane stops after its first block of 16,384;
        # one on it scores every block
        cloud = plane_with_outliers(np.random.default_rng(1), 100_000, 0.95)
        rows = self.scored_rows(monkeypatch)
        ransac_dominant_plane(cloud, RansacParams(seed=1))
        assert sum(rows) < 0.5 * 500 * len(cloud)

    def test_no_one_row_block(self, monkeypatch):
        # numpy's product of a single row can round unlike the same row in
        # a longer block, so a last block of one row joins the block before
        cloud = plane_with_outliers(np.random.default_rng(2), 16_385, 0.9)
        rows = self.scored_rows(monkeypatch)
        ransac_dominant_plane(cloud, RansacParams(iterations=20, seed=2))
        assert min(rows) > 1 and 16_385 in rows

    def test_block_rows_have_whole_cloud_bits(self):
        # the exactness rests on this: a BLAS whose matrix-vector product
        # rounds a row differently inside a block fails here first
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(100_003, 3)) * 3.0
        rows = planesmod._SCORE_ROWS
        for _ in range(200):
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            whole = pts @ normal
            s = int(rng.integers(0, len(pts) - 1))
            e = int(rng.integers(s + 2, len(pts) + 1))
            assert (pts[s:e] @ normal).tobytes() == whole[s:e].tobytes()
            for start in range(0, len(pts), rows):
                block = pts[start : start + rows]
                assert (block @ normal).tobytes() == whole[start : start + rows].tobytes()


class TestRansacCandidateChunks:
    """Candidates are built _CANDIDATE_CHUNK draws at a time; the fit must
    not change."""

    @pytest.mark.parametrize("offset", [None, -1, 1])
    def test_iterations_around_the_chunk(self, offset):
        chunk = planesmod._CANDIDATE_CHUNK
        iterations = 1 if offset is None else chunk + offset
        cloud = plane_with_outliers(np.random.default_rng(iterations), 2_000, 0.4)
        params = RansacParams(iterations=iterations, min_inlier_fraction=0.01, seed=4)
        got = ransac_outcome(ransac_dominant_plane, cloud, params)
        assert got == ransac_outcome(reference_ransac, cloud, params)
        assert got[0] != "NoConsensus"

    def test_mostly_collinear_triples(self):
        # 300 points on one line, coincident pairs among them, and 30 on a
        # plane through it: about three draws in four are collinear
        rng = np.random.default_rng(5)
        t = rng.uniform(-1, 1, 300)
        t[:50] = t[50:100]
        line = np.outer(t, [0.3, 0.1, 0.9]) + [0.1, 0.2, 2.0]
        side = np.outer(rng.uniform(-1, 1, 30), [0.3, 0.1, 0.9])
        side += np.outer(rng.uniform(-1, 1, 30), [1.0, 0.0, 0.0]) + [0.1, 0.2, 2.0]
        cloud = PointCloud(np.vstack([line, side])[rng.permutation(330)])
        for seed in range(4):
            params = RansacParams(iterations=50, seed=seed)
            got = ransac_outcome(ransac_dominant_plane, cloud, params)
            assert got == ransac_outcome(reference_ransac, cloud, params)

    @pytest.mark.parametrize("collinear", [False, True])
    def test_no_consensus_message(self, collinear):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 1, (400, 3))
        if collinear:
            pts = np.outer(pts[:, 0], [1.0, 2.0, 3.0])  # no candidate at all
        params = RansacParams(iterations=300, inlier_threshold=1e-4, seed=2)
        got = ransac_outcome(ransac_dominant_plane, PointCloud(pts), params)
        assert got[0] == "NoConsensus"
        assert got == ransac_outcome(reference_ransac, PointCloud(pts), params)

    def test_peak_memory_does_not_grow_with_iterations(self):
        cloud = plane_with_outliers(np.random.default_rng(3), 1_000, 0.5)
        peaks = [
            peak_bytes(ransac_dominant_plane, cloud, RansacParams(iterations=it, seed=1))
            for it in (2_000, 20_000)
        ]
        assert peaks[1] <= 2 * peaks[0]

    def test_vecdot_has_norm_and_matmul_bits(self):
        # the candidates rest on this: np.vecdot of 3-vectors sums in the
        # order np.linalg.norm and @ do for one vector; a BLAS or numpy that
        # sums them otherwise fails here first
        rng = np.random.default_rng(17)
        v = rng.normal(size=(50_000, 3)) * 10.0 ** rng.integers(-8, 9, (50_000, 1))
        w = rng.normal(size=(50_000, 3))
        norms = np.sqrt(np.vecdot(v, v))
        dots = np.vecdot(v, w)
        assert norms.tobytes() == np.array([np.linalg.norm(x) for x in v]).tobytes()
        assert dots.tobytes() == np.array([x @ y for x, y in zip(v, w)]).tobytes()


class TestKmeansSplit:
    def test_documented_example(self):
        (low, high), (m1, m2) = kmeans_split_offsets([0, 0.01, 0.02, 1.0, 1.01])
        assert set(low.tolist()) == {0, 1, 2}
        assert set(high.tolist()) == {3, 4}
        assert m1 == pytest.approx(0.01)
        assert m2 == pytest.approx(1.005)

    def test_two_values(self):
        (low, high), (m1, m2) = kmeans_split_offsets([0.0, 1.0])
        assert low.tolist() == [0] and high.tolist() == [1]
        assert (m1, m2) == (0.0, 1.0)

    def test_all_equal_degenerate(self):
        with pytest.raises(DegenerateInput):
            kmeans_split_offsets([5.0, 5.0, 5.0])

    def test_matches_brute_force_on_random_inputs(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 200))
            v = rng.normal(size=n) * rng.uniform(0.1, 10)
            (low, high), _ = kmeans_split_offsets(v)
            lo_set, hi_set = brute_force_split(v)
            assert set(low.tolist()) == lo_set
            assert set(high.tolist()) == hi_set

    def test_means_are_cluster_means(self, rng):
        v = rng.normal(size=50)
        (low, high), (m1, m2) = kmeans_split_offsets(v)
        assert m1 == pytest.approx(v[low].mean())
        assert m2 == pytest.approx(v[high].mean())
        assert m1 < m2


class TestDetectParallelPlanes:
    def test_noiseless_two_layers(self, rng):
        cloud = two_layer_cloud(rng, 500, gap=0.1)
        pair = detect_parallel_planes(cloud, RansacParams(seed=3))
        sign = 1.0 if pair.normal[1] >= 0 else -1.0
        assert np.allclose(sign * pair.normal, [0, 1, 0], atol=1e-6)
        assert sign * pair.offset_near == pytest.approx(0.0, abs=1e-6)
        assert sign * pair.offset_far == pytest.approx(0.1, abs=1e-6)
        assert pair.inlier_counts == (500, 500)

    def test_noisy_with_outliers(self, rng):
        # detect_parallel_planes expects a conditioned cloud, so outlier
        # removal runs first, as in the pipeline
        from rebartie.cloud import statistical_outlier_removal

        cloud = two_layer_cloud(rng, 800, gap=0.1, noise=0.002, outliers=160)
        conditioned = statistical_outlier_removal(cloud)
        pair = detect_parallel_planes(conditioned, RansacParams(seed=4))
        sign = 1.0 if pair.normal[1] >= 0 else -1.0
        assert np.degrees(np.arccos(abs(pair.normal[1]))) < 2.0
        assert sign * pair.offset_near == pytest.approx(0.0, abs=0.005)
        assert sign * pair.offset_far == pytest.approx(0.1, abs=0.005)

    def test_single_layer_raises_layers_too_close(self, rng):
        pts = rng.uniform(-0.5, 0.5, (600, 3))
        pts[:, 1] = rng.normal(0, 0.001, 600)
        pts[:, 2] += 2.0
        with pytest.raises(LayersTooClose):
            detect_parallel_planes(PointCloud(pts), RansacParams(seed=6))

    def test_exactly_flat_cloud_raises_layers_too_close(self, rng):
        # every offset along the normal is equal: a zero gap, not the
        # clustering's DegenerateInput
        pts = rng.uniform(-0.5, 0.5, (600, 3))
        pts[:, 2] = 2.0
        with pytest.raises(LayersTooClose, match="layer offsets 2.0000 and 2.0000"):
            detect_parallel_planes(PointCloud(pts), RansacParams(seed=6))

    def test_normals_bitwise_shared(self, rng):
        cloud = two_layer_cloud(rng, 300, noise=0.001)
        pair = detect_parallel_planes(cloud, RansacParams(seed=8))
        assert pair.near_plane().normal is pair.far_plane().normal or np.array_equal(
            pair.near_plane().normal, pair.far_plane().normal
        )

    def test_near_is_closer_in_z(self, rng):
        cloud = two_layer_cloud(rng, 300)
        pair = detect_parallel_planes(cloud, RansacParams(seed=9))
        # layer at y=0 sits at z~2, layer at y=0.1 at z~2.1
        near_gap = abs(
            pair.offset_near * pair.normal[1] + pair.offset_near * pair.normal[2]
        )
        # verify via reconstruction: mean z of points close to the near plane
        near = pair.near_plane()
        far = pair.far_plane()
        from rebartie.geometry import plane_signed_distance

        dn = np.abs(plane_signed_distance(near, cloud.points)) < 0.01
        df = np.abs(plane_signed_distance(far, cloud.points)) < 0.01
        assert cloud.points[dn, 2].mean() < cloud.points[df, 2].mean()

    def test_rigid_equivariance(self, rng):
        cloud = two_layer_cloud(rng, 400)
        params = RansacParams(seed=11)
        base = detect_parallel_planes(cloud, params)
        t = random_rigid(rng, "camera", "other")
        moved = detect_parallel_planes(
            PointCloud(transform_point(t, cloud.points)), params
        )
        expect_near = transform_plane(t, base.near_plane())
        expect_far = transform_plane(t, base.far_plane())
        got = {
            (round(moved.offset_near, 6)): moved.near_plane(),
            (round(moved.offset_far, 6)): moved.far_plane(),
        }
        # near/far labels may swap if the transform flips the camera axis;
        # compare as an unordered pair of planes
        matched = 0
        for expected in (expect_near, expect_far):
            for plane in got.values():
                if planes_close(expected, plane, tol=1e-6):
                    matched += 1
                    break
        assert matched == 2

    def test_deterministic(self, rng):
        cloud = two_layer_cloud(rng, 300, noise=0.002)
        a = detect_parallel_planes(cloud, RansacParams(seed=12))
        b = detect_parallel_planes(cloud, RansacParams(seed=12))
        assert np.array_equal(a.normal, b.normal)
        assert (a.offset_near, a.offset_far) == (b.offset_near, b.offset_far)
        assert a.inlier_counts == b.inlier_counts


class TestPlanePairIO:
    def test_round_trip(self, tmp_path):
        pair = ParallelPlanePair(
            normal=np.array([0.0, 0.0, 1.0]),
            offset_near=1.19012345678,
            offset_far=1.20598765432,
            inlier_counts=(100, 90),
        )
        path = tmp_path / "planes.txt"
        write_plane_pair(path, pair)
        back = read_plane_pair(path)
        assert path.read_text().endswith("\nframe camera\n")
        assert np.allclose(back.normal, pair.normal)
        # file precision is 9 significant digits
        assert back.offset_near == pytest.approx(pair.offset_near, rel=1e-8)
        assert back.offset_far == pytest.approx(pair.offset_far, rel=1e-8)
        # second-generation write is byte-identical
        path2 = tmp_path / "planes2.txt"
        write_plane_pair(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_any_finite_normal_length(self, tmp_path, scale):
        # the norm of a 1e200 normal overflows if taken directly, and that of
        # a 1e-200 normal underflows to zero
        path = tmp_path / "planes.txt"
        path.write_text(
            f"normal {scale!r} {scale!r} {scale!r}\n"
            f"offset_near {1.19 * scale!r}\noffset_far {1.21 * scale!r}\nframe camera\n"
        )
        pair = read_plane_pair(path)
        assert np.allclose(pair.normal, np.full(3, 3**-0.5))
        assert pair.offset_near == pytest.approx(1.19 / 3**0.5)
        assert pair.offset_far == pytest.approx(1.21 / 3**0.5)

    def test_offset_beyond_float_range(self, tmp_path):
        # a finite offset over a tiny normal: the plane is past 1.8e308 m
        path = tmp_path / "planes.txt"
        path.write_text("normal 0 0 1e-300\noffset_near 1.19\noffset_far 1e300\nframe camera\n")
        with pytest.raises(ParseError) as exc:
            read_plane_pair(path)
        assert str(exc.value) == "line 3: non-finite offset_far"
