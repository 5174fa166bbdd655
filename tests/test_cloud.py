import numpy as np
import pytest

from rebartie.cloud import (
    PointCloud,
    read_ply,
    statistical_outlier_removal,
    voxel_downsample,
    write_ply,
)
from rebartie.errors import ParseError, TooFewPoints


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


class TestPlyIO:
    def test_round_trip(self, tmp_path, rng):
        pts = rng.normal(size=(40, 3))
        cloud = PointCloud(pts, frame="camera")
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
        assert exc.value.line == 10  # where the missing vertex line would be

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


def reference_read_ply(path, frame="camera"):
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
    pts = np.empty((count, 3))
    for j in range(count):
        lineno = body_start + 1 + j
        if lineno > len(lines):
            raise ParseError(lineno, "fewer vertex lines than declared")
        parts = lines[lineno - 1].split()
        if len(parts) != 3:
            raise ParseError(lineno, f"expected 3 fields, got {len(parts)}")
        try:
            pts[j] = [float(v) for v in parts]
        except ValueError:
            raise ParseError(lineno, "non-numeric coordinate") from None
    return PointCloud(pts, frame)


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


class TestPlyCodecMatchesReference:
    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 10_001])
    def test_bytes_and_values(self, tmp_path, rng, n):
        # magnitudes from 1e-8 to 1e8 of either sign, some -0.0; more rows
        # than one write block for the larger sizes
        pts = 10.0 ** rng.uniform(-8, 8, (n, 3)) * rng.choice([-1.0, 1.0], (n, 3))
        pts[rng.random((n, 3)) < 0.02] = -0.0
        fast, ref = tmp_path / "fast.ply", tmp_path / "ref.ply"
        write_ply(fast, PointCloud(pts))
        reference_write_ply(ref, PointCloud(pts))
        assert fast.read_bytes() == ref.read_bytes()
        back = read_ply(fast)
        assert back.points.shape == (n, 3)
        assert back.points.tobytes() == reference_read_ply(ref).points.tobytes()

    def test_special_values(self, tmp_path):
        pts = np.array([[-0.0, np.nan, np.inf], [-np.inf, 1e-300, -1e300]])
        fast, ref = tmp_path / "fast.ply", tmp_path / "ref.ply"
        write_ply(fast, PointCloud(pts))
        reference_write_ply(ref, PointCloud(pts))
        assert fast.read_bytes() == ref.read_bytes()
        assert fast.read_text().endswith("end_header\n-0 nan inf\n-inf 1e-300 -1e+300\n")
        assert read_ply(fast).points.tobytes() == reference_read_ply(ref).points.tobytes()

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
        assert (exc.value.line, str(exc.value)) == (9, "line 9: expected 3 fields, got 0")
