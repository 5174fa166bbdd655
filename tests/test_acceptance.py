"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from rebartie import pnm
from rebartie.cli import main
from rebartie.cloud import (
    PointCloud,
    read_ply,
    statistical_outlier_removal,
    voxel_downsample,
    write_ply,
)
from rebartie.errors import ParseError
from rebartie.frames import (
    CalibrationSet,
    camera_to_base,
    format_calibration,
    sequence_ties,
)
from rebartie.geometry import (
    Plane,
    RigidTransform,
    compose,
    fit_plane_least_squares,
    invert,
    project,
    rotation_aligning,
    transform_plane,
    transform_point,
)
from rebartie.masking import attach_projected_provenance, rasterize_mask, select_near_plane
from rebartie.metrics import compute_sai, compute_tce, match_nodes
from rebartie.nodes import locate_nodes, parse_yolo_labels, write_yolo_labels
from rebartie.planes import RansacParams, detect_parallel_planes, kmeans_split_offsets
from rebartie.robot import (
    ABORT_ON_ERROR,
    SKIP_ON_ERROR,
    RobotClient,
    RobotCommand,
    SimRobotConfig,
    SimRobotServer,
    decode_command,
    decode_response,
    encode_command,
    execute_sequence,
    move,
)
from rebartie.scene import GridSpec, default_rig, generate_grid_cloud, render_disparity, synth_stereo_pair
from rebartie.stereo import block_match_disparity, disparity_to_cloud, window_disparity_filter

from test_geometry import random_rigid

RIG = default_rig()


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nacceptance {number}: FAIL  {description}", flush=True)
        raise
    print(f"\nacceptance {number}: PASS  {description}", flush=True)


def condition(cloud):
    return voxel_downsample(statistical_outlier_removal(cloud))


def test_criterion_1_plane_detection():
    with criterion(1, "plane detection on noisy outlier-laden scene"):
        spec = GridSpec(noise_sigma=0.002, outlier_fraction=0.10, seed=7)
        cloud, truth = generate_grid_cloud(spec, RIG)
        start = time.perf_counter()
        pair = detect_parallel_planes(condition(cloud), RansacParams(seed=0))
        elapsed = time.perf_counter() - start
        gt = truth.planes
        angle = np.degrees(np.arccos(np.clip(abs(pair.normal @ gt.normal), -1, 1)))
        sign = 1.0 if pair.normal @ gt.normal >= 0 else -1.0
        assert angle < 2.0, f"normal off by {angle:.3f} deg"
        assert abs(sign * pair.offset_near - gt.offset_near) < 0.005
        assert abs(sign * pair.offset_far - gt.offset_far) < 0.005
        near_n = pair.near_plane().normal
        far_n = pair.far_plane().normal
        assert np.array_equal(near_n, far_n), "normals not bitwise equal"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_kmeans_matches_brute_force():
    with criterion(2, "1000 random offset sets equal the optimal split"):
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            n = int(rng.integers(2, 201))
            scale = rng.uniform(0.01, 100)
            if trial % 3 == 0:
                v = rng.normal(size=n) * scale
            elif trial % 3 == 1:
                v = np.concatenate([
                    rng.normal(0, 0.01 * scale, size=max(1, n // 2)),
                    rng.normal(scale, 0.01 * scale, size=n - max(1, n // 2)),
                ])
            else:
                v = rng.random(n) * scale
            if np.all(v == v[0]):
                continue
            (low, high), _ = kmeans_split_offsets(v)

            order = np.argsort(v, kind="stable")
            s = v[order]
            best_cost = np.inf
            best_i = None
            for i in range(1, n):
                a, b = s[:i], s[i:]
                cost = ((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum()
                if cost < best_cost:
                    best_cost = cost
                    best_i = i
            assert set(low.tolist()) == set(order[:best_i].tolist()), f"trial {trial}"
            assert set(high.tolist()) == set(order[best_i:].tolist()), f"trial {trial}"


def _brute_sor_survivors(points, k, sigma_mult, block=64):
    # every pairwise distance, a block of rows at a time so that no n x n
    # matrix is held; each is sqrt(dx^2 + dy^2 + dz^2) summed in that order,
    # as np.linalg.norm over the last axis computes it
    cols = points.T.copy()
    mean_dists = np.empty(len(points))
    for start in range(0, len(points), block):
        rows = points[start:start + block]
        sq = (rows[:, 0, None] - cols[0]) ** 2
        sq += (rows[:, 1, None] - cols[1]) ** 2
        sq += (rows[:, 2, None] - cols[2]) ** 2
        dists = np.sqrt(sq)
        dists[np.arange(len(rows)), np.arange(start, start + len(rows))] = np.inf
        knn = np.sort(np.partition(dists, k - 1, axis=1)[:, :k], axis=1)
        mean_dists[start:start + block] = knn.mean(axis=1)
    return np.flatnonzero(mean_dists <= mean_dists.mean() + sigma_mult * mean_dists.std())


def _brute_voxel(points, voxel_size):
    bins = {}
    for p in points:
        key = tuple(int(v) for v in np.floor(p / voxel_size))
        if key not in bins:
            bins[key] = [np.zeros(3), 0]
        bins[key][0] = bins[key][0] + p
        bins[key][1] += 1
    return np.array([bins[k][0] / bins[k][1] for k in sorted(bins)]).reshape(-1, 3)


def test_criterion_3_conditioning_matches_oracles():
    with criterion(3, "SOR and voxel match brute-force oracles on 100 clouds"):
        rng = np.random.default_rng(31337)
        for trial in range(100):
            n = int(rng.integers(50, 5001))
            pts = rng.normal(size=(n, 3)) * rng.uniform(0.01, 10)
            cloud = PointCloud(pts)

            survivors = statistical_outlier_removal(cloud, k=16, sigma_mult=1.0)
            expected = _brute_sor_survivors(pts, 16, 1.0)
            assert np.array_equal(survivors.points, pts[expected]), f"SOR trial {trial}"

            voxel_size = float(rng.uniform(0.05, 1.0))
            down = voxel_downsample(cloud, voxel_size)
            oracle = _brute_voxel(pts, voxel_size)
            assert np.array_equal(down.points, oracle), f"voxel trial {trial}"


def test_criterion_4_stereo_accuracy():
    with criterion(4, "stereo >= 90% within 1 px and 0.51 px round trip"):
        spec = GridSpec()
        gt = render_disparity(spec, RIG)
        left, right = synth_stereo_pair(spec, gt)
        pred = block_match_disparity(left, right, block_radius=2, max_disparity=64)
        gt_valid = gt >= 0
        good = gt_valid & (pred >= 0) & (np.abs(pred - gt) <= 1.0)
        fraction = good.sum() / gt_valid.sum()
        assert fraction >= 0.90, f"only {fraction:.3f} within 1 px"

        cloud = disparity_to_cloud(RIG, pred)
        uv = project(RIG.camera, cloud.points)
        round_trip = np.abs(uv - cloud.provenance).max()
        assert round_trip <= 0.51, f"round trip {round_trip:.3f} px"


def test_criterion_5_end_to_end_sai():
    with criterion(5, "end-to-end SAI <= 10 mm with all 25 nodes matched"):
        start = time.perf_counter()
        spec = GridSpec()
        disp = render_disparity(spec, RIG)
        filtered = window_disparity_filter(disp, window=31, delta=3.0)
        cloud = disparity_to_cloud(RIG, filtered)
        conditioned = condition(cloud)
        pair = detect_parallel_planes(conditioned, RansacParams(seed=0))

        near = pair.near_plane()
        selected = select_near_plane(conditioned, near, tau=0.015)
        selected = attach_projected_provenance(selected, RIG.camera)
        mask = rasterize_mask(selected, RIG.camera.width, RIG.camera.height, 2)
        assert mask.any()

        _, truth = generate_grid_cloud(spec, RIG)
        obs, diags = locate_nodes(truth.labels, RIG.camera, pair.mid_plane())
        assert not diags
        cam_points = np.array([o.camera_point for o in obs])

        t = random_rigid(np.random.default_rng(55), "camera", "base")
        calib = CalibrationSet(
            t, RigidTransform(np.eye(3), np.zeros(3), "base", "base")
        )
        base_points = camera_to_base(calib, cam_points)
        gt_base = transform_point(t, truth.nodes)

        matching = match_nodes(base_points, gt_base, cutoff=0.05)
        assert len(matching) == 25, f"matched {len(matching)} of 25"
        sai = compute_sai(matching, base_points, gt_base)
        elapsed = time.perf_counter() - start
        assert sai <= 10.0, f"SAI {sai:.2f} mm"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_6_tce_exact_values():
    with criterion(6, "TCE 100.0 for clean run, exactly 96.0 with one skip"):
        _, truth = generate_grid_cloud(GridSpec(), RIG)
        ties = sequence_ties(truth.nodes, row_tolerance=0.05)
        assert len(ties) == 25

        server = SimRobotServer(
            SimRobotConfig(workspace_center=(0.0, 0.0, 1.2), workspace_radius=1.0),
            port=0,
        ).start()
        with RobotClient(server.host, server.port) as client:
            report = execute_sequence(ties, client, SKIP_ON_ERROR)
        server.stop()
        assert compute_tce(report.successes, report.attempted) == 100.0

        pushed = [t for t in ties]
        bad = pushed[7]
        pushed[7] = type(bad)(bad.position + np.array([10.0, 0, 0]), bad.sequence_index)
        server = SimRobotServer(
            SimRobotConfig(workspace_center=(0.0, 0.0, 1.2), workspace_radius=1.0),
            port=0,
        ).start()
        with RobotClient(server.host, server.port) as client:
            report = execute_sequence(pushed, client, SKIP_ON_ERROR)
        server.stop()
        assert report.attempted == 25 and report.successes == 24
        tce = compute_tce(report.successes, report.attempted)
        assert tce == 96.0, f"TCE {tce!r} is not exactly 96.0"


def test_criterion_7_protocol_conformance():
    with criterion(7, "protocol round trips, state machine, client policies"):
        rng = np.random.default_rng(777)
        kinds = ["MOVE", "TIE", "HOME", "QUIT"]
        for _ in range(10000):
            kind = kinds[rng.integers(4)]
            if kind == "MOVE":
                cmd = move(*(rng.integers(-5_000_000, 5_000_000, 3) / 1e6))
            else:
                cmd = RobotCommand(kind)
            assert decode_command(encode_command(cmd)) == cmd

        # state machine conformance, all four error codes
        server = SimRobotServer(
            SimRobotConfig(workspace_center=(0.0, 0.0, 0.0), workspace_radius=0.5),
            port=0,
        ).start()
        with RobotClient(server.host, server.port) as client:
            client.sock.sendall(b"NOT A COMMAND\n")
            assert decode_response(client.reader.readline()).code == 1
            assert client.send(move(0, 0, 0.51)).code == 2
            assert client.send(RobotCommand("TIE")).code == 3
            assert client.send(move(0, 0, 0.25)).ok
            assert client.send(RobotCommand("TIE")).ok
            assert client.send(RobotCommand("HOME")).ok
            assert client.send(RobotCommand("QUIT")).ok
        server.stop()

        # injected ERR 4: abort stops at the first tie, skip attempts all
        from rebartie.frames import TiePoint

        ties = [TiePoint(np.array([0.0, 0.0, 0.1]), i) for i in range(6)]
        reports = {}
        for policy in (ABORT_ON_ERROR, SKIP_ON_ERROR):
            server = SimRobotServer(
                SimRobotConfig(tie_failure_rate=1.0, seed=3), port=0
            ).start()
            with RobotClient(server.host, server.port) as client:
                reports[policy] = execute_sequence(ties, client, policy)
            server.stop()
        assert reports[ABORT_ON_ERROR].attempted == 1
        assert reports[SKIP_ON_ERROR].attempted == 6
        assert all(o.code == 4 for o in reports[SKIP_ON_ERROR].outcomes)


def test_criterion_8_parsers(tmp_path):
    with criterion(8, "label and PLY parsers round trip; errors carry lines"):
        rng = np.random.default_rng(88)
        from rebartie.nodes import DetectionBox

        boxes = [
            DetectionBox(
                int(rng.integers(0, 5)),
                round(float(rng.uniform(0.1, 0.9)), 6),
                round(float(rng.uniform(0.1, 0.9)), 6),
                round(float(rng.uniform(0.01, 0.2)), 6),
                round(float(rng.uniform(0.01, 0.2)), 6),
            )
            for _ in range(200)
        ]
        text = write_yolo_labels(boxes)
        assert parse_yolo_labels(text) == boxes
        assert write_yolo_labels(parse_yolo_labels(text)) == text

        pts = rng.normal(size=(300, 3))
        p1 = tmp_path / "a.ply"
        p2 = tmp_path / "b.ply"
        write_ply(p1, PointCloud(pts))
        write_ply(p2, read_ply(p1))
        assert p1.read_bytes() == p2.read_bytes()

        with pytest.raises(ParseError) as exc:
            parse_yolo_labels("0 0.5 0.5 0.1 0.1\n0 0.5 0.5\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError) as exc:
            parse_yolo_labels("0 2.5 0.5 0.1 0.1\n")
        assert exc.value.line == 1
        bad_ply = tmp_path / "bad.ply"
        bad_ply.write_text("ply\nformat ascii 1.0\nelement vertex 1\nend_header\nx y z\n")
        with pytest.raises(ParseError) as exc:
            read_ply(bad_ply)
        assert exc.value.line == 5


def test_criterion_9_geometry_properties():
    with criterion(9, "geometry property tests over 10k random cases each"):
        rng = np.random.default_rng(9)

        # rotation_aligning: R @ from == to, proper rotation, both branches
        for i in range(10000):
            f = rng.normal(size=3)
            f /= np.linalg.norm(f)
            if i % 100 == 0:
                t = -f  # exercise the antipodal branch
            elif i % 100 == 1:
                t = f.copy()  # identity branch
            else:
                t = rng.normal(size=3)
                t /= np.linalg.norm(t)
            rot = rotation_aligning(f, t).rotation
            assert np.allclose(rot @ f, t, atol=1e-9)
            assert abs(np.linalg.det(rot) - 1.0) < 1e-9
            assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-9

        # compose/invert: T^-1 T == identity on points, frames chain
        for _ in range(10000):
            t = random_rigid(rng)
            p = rng.normal(size=3)
            q = transform_point(compose(invert(t), t), p)
            assert np.allclose(q, p, atol=1e-9)

        # fit_plane rigid equivariance
        for _ in range(10000):
            pts = rng.normal(size=(10, 3))
            pts[:, 2] *= 0.05
            t = random_rigid(rng)
            moved_fit = fit_plane_least_squares(transform_point(t, pts))
            fit_moved = transform_plane(t, fit_plane_least_squares(pts))
            sign = 1.0 if moved_fit.normal @ fit_moved.normal >= 0 else -1.0
            assert np.allclose(moved_fit.normal, sign * fit_moved.normal, atol=1e-8)
            assert abs(moved_fit.offset - sign * fit_moved.offset) < 1e-8

        # plane canonicalization: sign-insensitive constructor, positive lead
        for _ in range(10000):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            d = rng.normal()
            p1 = Plane(n, d)
            p2 = Plane(-n, -d)
            assert np.array_equal(p1.normal, p2.normal)
            assert p1.offset == p2.offset
            lead = p1.normal[np.abs(p1.normal) > 1e-12][0]
            assert lead > 0


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "two identical full-pipeline runs are byte-identical"):
        calib = CalibrationSet(
            RigidTransform(np.eye(3), np.zeros(3), "camera", "base"),
            RigidTransform(np.eye(3), np.zeros(3), "base", "base"),
        )
        calib_file = tmp_path / "calib.txt"
        calib_file.write_text(format_calibration(calib))

        blobs = []
        for run in ("run1", "run2"):
            base = tmp_path / run
            base.mkdir()
            bundle = base / "bundle"
            assert main(["synth", "--out", str(bundle)]) == 0
            assert main([
                "disparity", str(bundle / "left.pgm"), str(bundle / "right.pgm"),
                "--out", str(base / "matched.txt"),
            ]) == 0
            assert main([
                "cloud", str(bundle / "disparity.txt"), "--out", str(base / "cloud.ply"),
            ]) == 0
            assert main([
                "planes", str(base / "cloud.ply"), "--out", str(base / "planes.txt"),
            ]) == 0
            left = pnm.read_pgm(bundle / "left.pgm")
            pnm.write_ppm(base / "image.ppm", np.stack([left] * 3, axis=-1))
            assert main([
                "mask", str(base / "cloud.ply"), str(base / "planes.txt"),
                str(base / "image.ppm"),
                "--mask-out", str(base / "mask.pgm"),
                "--filtered-out", str(base / "filtered.ppm"),
            ]) == 0
            assert main([
                "nodes", str(bundle / "labels.txt"), str(base / "planes.txt"),
                str(calib_file), "--out", str(base / "ties.txt"),
            ]) == 0
            assert main([
                "eval", str(base / "ties.txt"), str(bundle / "gt_nodes.txt"),
                "--out", str(base / "metrics.txt"),
            ]) == 0
            blob = b"".join(
                p.read_bytes()
                for p in sorted(base.rglob("*"), key=lambda q: str(q.relative_to(base)))
                if p.is_file()
            )
            blobs.append(blob)
        assert blobs[0] == blobs[1]
