import numpy as np
import pytest

from rebartie.cloud import statistical_outlier_removal, voxel_downsample
from rebartie.errors import ParseError
from rebartie.geometry import (
    CameraModel,
    RigidTransform,
    StereoRig,
    plane_signed_distance,
    project,
    transform_point,
)
from rebartie.metrics import compute_sai, match_nodes
from rebartie.nodes import locate_nodes, parse_yolo_labels, write_yolo_labels
from rebartie.planes import RansacParams, detect_parallel_planes
from rebartie.scene import (
    GridSpec,
    _BG_DISPARITY,
    _rod_pixel_box,
    _rods,
    default_rig,
    generate_grid_cloud,
    read_grid_spec,
    render_disparity,
    synth_stereo_pair,
    write_grid_spec,
)
from rebartie.stereo import block_match_disparity, disparity_to_cloud

from conftest import peak_bytes, plane_angle

RIG = default_rig()


def small_spec(**kwargs):
    kwargs.setdefault("rows", 3)
    kwargs.setdefault("cols", 3)
    return GridSpec(**kwargs)


def tilted_spec(seed, max_tilt_deg=30.0):
    """A seeded grid whose default pose is tilted by up to max_tilt_deg
    about a random axis through the grid center."""
    rng = np.random.default_rng([seed, 30])
    rows, cols = (int(v) for v in rng.integers(2, 7, 2))
    base = GridSpec(rows=rows, cols=cols).grid_pose
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = np.radians(rng.uniform(0.0, max_tilt_deg))
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    tilt = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * k @ k
    pivot = np.array([0.0, 0.0, 1.2])
    pose = RigidTransform(
        tilt @ base.rotation, pivot + tilt @ (base.translation - pivot), "grid", "camera"
    )
    return GridSpec(rows=rows, cols=cols, grid_pose=pose, seed=seed)


def full_frame_render(spec, rig):
    """Reference for render_disparity: every pixel's ray against every rod."""
    cam = rig.camera
    pose = spec.grid_pose
    inv_rot = pose.rotation.T
    uu, vv = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    dirs = np.stack(
        [(uu - cam.cx) / cam.fx, (vv - cam.cy) / cam.fy, np.ones_like(uu, float)],
        axis=-1,
    )
    origin_g = inv_rot @ (-pose.translation)
    dirs_g = dirs @ pose.rotation
    zbuf = np.full((cam.height, cam.width), np.inf)
    r2 = spec.rod_radius**2
    for origin, axis, length, _layer in _rods(spec):
        oc = origin_g - origin
        d_axial = dirs_g @ axis
        o_axial = float(oc @ axis)
        d_perp = dirs_g - d_axial[..., None] * axis
        o_perp = oc - o_axial * axis
        a = np.einsum("...i,...i->...", d_perp, d_perp)
        b = 2.0 * (d_perp @ o_perp)
        c = float(o_perp @ o_perp) - r2
        disc = b * b - 4.0 * a * c
        hit = (disc >= 0) & (a > 0)
        sq = np.sqrt(np.where(hit, disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-b - sq) / (2.0 * a)
            t2 = (-b + sq) / (2.0 * a)
        for t in (t1, t2):
            s_axial = o_axial + t * d_axial
            ok = hit & (t > 1e-9) & (s_axial >= 0.0) & (s_axial <= length)
            zbuf = np.where(ok & (t < zbuf), t, zbuf)
    hit = np.isfinite(zbuf)
    disp = np.full(zbuf.shape, -1.0)
    disp[hit] = cam.fx * rig.baseline / zbuf[hit]
    return disp


def reference_stereo_pair(spec, disparity):
    """Reference for synth_stereo_pair: full-frame texture, shade and left
    value maps, every pixel's value computed and the invalid ones discarded."""
    h, w = disparity.shape
    valid = disparity >= 0
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x57E2E0]))
    bg = rng.integers(40, 200, (h, w + _BG_DISPARITY), dtype=np.int64)
    rod_tex = rng.integers(0, 256, (h, w), dtype=np.int64)
    shade = np.zeros((h, w))
    if valid.any():
        dmin, dmax = disparity[valid].min(), disparity[valid].max()
        span = max(dmax - dmin, 1e-9)
        shade[valid] = (disparity[valid] - dmin) / span
    left = np.where(
        valid,
        np.clip(0.75 * rod_tex + 40.0 * shade, 0, 255),
        bg[:, :w],
    ).astype(np.uint8)
    right = bg[:, _BG_DISPARITY:].astype(np.uint8).copy()
    vs, us = np.nonzero(valid)
    ds = disparity[vs, us]
    ut = np.floor(us - ds + 0.5).astype(int)
    keep = (ut >= 0) & (ut < w)
    vs, us, ut, ds = vs[keep], us[keep], ut[keep], ds[keep]
    nearest_first = np.argsort(-ds, kind="stable")
    flat = vs[nearest_first] * w + ut[nearest_first]
    _, first = np.unique(flat, return_index=True)
    src = nearest_first[first]
    right.flat[vs[src] * w + ut[src]] = left[vs[src], us[src]]
    return left, right


def partly_off_image_spec():
    pose = GridSpec().grid_pose
    shifted = RigidTransform(
        pose.rotation, pose.translation + [0.7, -0.3, 0.0], "grid", "camera"
    )
    return GridSpec(grid_pose=shifted)


class TestGenerateGridCloud:
    def test_node_count_and_gap(self):
        spec = small_spec()
        _, truth = generate_grid_cloud(spec, RIG)
        assert truth.nodes.shape == (9, 3)
        gap = abs(truth.planes.offset_far - truth.planes.offset_near)
        assert gap == pytest.approx(spec.layer_gap, abs=1e-12)

    def test_noiseless_detection_recovers_planes(self):
        spec = GridSpec(seed=5)
        cloud, truth = generate_grid_cloud(spec, RIG)
        conditioned = voxel_downsample(statistical_outlier_removal(cloud))
        pair = detect_parallel_planes(conditioned, RansacParams(seed=1))
        gt = truth.planes
        assert plane_angle(pair.normal, gt.normal) < np.radians(0.5)
        sign = 1.0 if pair.normal @ gt.normal >= 0 else -1.0
        assert abs(sign * pair.offset_near - gt.offset_near) < 1e-3 + spec.rod_radius
        assert abs(sign * pair.offset_far - gt.offset_far) < 1e-3 + spec.rod_radius

    def test_node_pixels_inside_image(self):
        _, truth = generate_grid_cloud(GridSpec(), RIG)
        pix = project(RIG.camera, truth.nodes)
        assert (pix[:, 0] >= 0).all() and (pix[:, 0] < RIG.camera.width).all()
        assert (pix[:, 1] >= 0).all() and (pix[:, 1] < RIG.camera.height).all()

    def test_points_near_rod_surfaces(self):
        spec = small_spec(seed=3)
        cloud, truth = generate_grid_cloud(spec, RIG)
        # every surface point lies within rod_radius of one of the two
        # axis planes (the surface wraps the axis)
        d_near = np.abs(plane_signed_distance(truth.planes.near_plane(), cloud.points))
        d_far = np.abs(plane_signed_distance(truth.planes.far_plane(), cloud.points))
        close = np.minimum(d_near, d_far)
        assert close.max() <= spec.rod_radius + 1e-9

    def test_deterministic_given_seed(self):
        a, _ = generate_grid_cloud(small_spec(seed=9), RIG)
        b, _ = generate_grid_cloud(small_spec(seed=9), RIG)
        assert np.array_equal(a.points, b.points)

    def test_outlier_fraction_adds_points(self):
        base, _ = generate_grid_cloud(small_spec(seed=1), RIG)
        noisy, _ = generate_grid_cloud(
            small_spec(seed=1, outlier_fraction=0.1), RIG
        )
        assert len(noisy) == len(base) + int(round(0.1 * len(base)))

    def test_planes_exactly_parallel(self):
        _, truth = generate_grid_cloud(small_spec(), RIG)
        near = truth.planes.near_plane()
        far = truth.planes.far_plane()
        assert np.array_equal(near.normal, far.normal)


class TestRenderDisparity:
    def test_background_invalid_and_rods_hit(self):
        disp = render_disparity(GridSpec(), RIG)
        valid = disp >= 0
        assert 0 < valid.sum() < disp.size
        assert (disp[~valid] == -1.0).all()

    def test_disparity_matches_depth_arithmetic(self):
        spec = GridSpec()
        disp = render_disparity(spec, RIG)
        # every valid disparity corresponds to a depth between the nearest
        # possible rod surface and the farthest
        valid = disp[disp >= 0]
        z = RIG.camera.fx * RIG.baseline / valid
        z_near_surface = 1.2 - spec.layer_gap / 2 - spec.rod_radius
        z_far_surface = 1.2 + spec.layer_gap / 2 + spec.rod_radius
        assert z.min() >= z_near_surface - 1e-9
        assert z.max() <= z_far_surface + 1e-9

    def test_cloud_lies_on_rod_surfaces(self):
        spec = small_spec()
        disp = render_disparity(spec, RIG)
        cloud = disparity_to_cloud(RIG, disp)
        pose = spec.grid_pose
        from rebartie.geometry import invert

        pts_g = transform_point(invert(pose), cloud.points)
        # distance to the nearest rod axis must equal the radius
        best = np.full(len(cloud), np.inf)
        for origin, axis, length, _ in _rods(spec):
            rel = pts_g - origin
            axial = rel @ axis
            radial = np.linalg.norm(rel - axial[:, None] * axis, axis=1)
            inside = (axial >= -1e-9) & (axial <= length + 1e-9)
            cand = np.where(inside, np.abs(radial - spec.rod_radius), np.inf)
            best = np.minimum(best, cand)
        assert best.max() < 1e-6

    def test_node_pixel_depth_on_front_surface(self):
        spec = GridSpec()
        disp = render_disparity(spec, RIG)
        _, truth = generate_grid_cloud(spec, RIG)
        pix = np.floor(project(RIG.camera, truth.nodes) + 0.5).astype(int)
        d = disp[pix[:, 1], pix[:, 0]]
        assert (d > 0).all()
        z = RIG.camera.fx * RIG.baseline / d
        # near-layer axis plane sits at 1.2 - gap/2; the surface above it
        z_axis = 1.2 - spec.layer_gap / 2
        assert (z >= z_axis - spec.rod_radius - 1e-9).all()
        assert (z <= z_axis + 1e-9).all()


# half the default resolution keeps the full-frame reference cheap
HALF_RIG = StereoRig(
    CameraModel(fx=350.0, fy=350.0, cx=320.0, cy=180.0, width=640, height=360),
    baseline=0.06,
)


class TestClippedRenderMatchesFullFrame:
    def assert_identical(self, spec, rig):
        expected = full_frame_render(spec, rig)
        assert (expected >= 0).any()
        assert np.array_equal(render_disparity(spec, rig), expected)

    def test_default_scene(self):
        self.assert_identical(GridSpec(), RIG)

    @pytest.mark.parametrize("seed", range(6))
    def test_tilted_poses(self, seed):
        self.assert_identical(tilted_spec(seed), HALF_RIG)

    def test_grid_partly_outside_image(self):
        spec = partly_off_image_spec()
        boxes = [_rod_pixel_box(spec, RIG.camera, *rod[:3]) for rod in _rods(spec)]
        assert None in boxes  # some rods project wholly off the image
        self.assert_identical(spec, RIG)

    def test_rod_crossing_camera_plane_uses_full_frame(self):
        # a floor-like grid below the camera, running from behind it to
        # 0.6 m ahead: layer B rods cross z = 0
        pose = RigidTransform(
            np.diag([1.0, -1.0, -1.0]), np.array([-0.4, 0.15, 0.6]), "grid", "camera"
        )
        spec = GridSpec(grid_pose=pose)
        full = (slice(0, HALF_RIG.camera.height), slice(0, HALF_RIG.camera.width))
        boxes = [_rod_pixel_box(spec, HALF_RIG.camera, *rod[:3]) for rod in _rods(spec)]
        assert full in boxes
        self.assert_identical(spec, HALF_RIG)


class TestSynthStereoPair:
    def test_matcher_recovers_rendered_disparity(self):
        spec = GridSpec()
        gt = render_disparity(spec, RIG)
        left, right = synth_stereo_pair(spec, gt)
        pred = block_match_disparity(left, right, 2, 64)
        gtv = gt >= 0
        good = gtv & (pred >= 0) & (np.abs(pred - gt) <= 1.0)
        assert good.sum() / gtv.sum() >= 0.90

    def test_deterministic(self):
        disp = render_disparity(small_spec(seed=4), RIG)
        a_left, a_right = synth_stereo_pair(small_spec(seed=4), disp)
        b_left, b_right = synth_stereo_pair(small_spec(seed=4), disp)
        assert np.array_equal(a_left, b_left)
        assert np.array_equal(a_right, b_right)

    def test_different_seed_changes_texture(self):
        disp = render_disparity(small_spec(), RIG)
        a, _ = synth_stereo_pair(small_spec(seed=1), disp)
        b, _ = synth_stereo_pair(small_spec(seed=2), disp)
        assert not np.array_equal(a, b)


class TestStereoPairMatchesReference:
    def assert_identical(self, spec, rig):
        disp = render_disparity(spec, rig)
        left, right = synth_stereo_pair(spec, disp)
        ref_left, ref_right = reference_stereo_pair(spec, disp)
        assert np.array_equal(left, ref_left)
        assert np.array_equal(right, ref_right)
        return disp

    def test_default_scene(self):
        self.assert_identical(GridSpec(), RIG)

    @pytest.mark.parametrize("seed", range(6))
    def test_tilted_poses(self, seed):
        self.assert_identical(tilted_spec(seed), HALF_RIG)

    def test_grid_partly_outside_image(self):
        self.assert_identical(partly_off_image_spec(), RIG)

    def test_no_rod_pixels(self):
        pose = GridSpec().grid_pose
        away = RigidTransform(pose.rotation, pose.translation + [5.0, 0.0, 0.0], "grid", "camera")
        disp = self.assert_identical(GridSpec(grid_pose=away, seed=3), HALF_RIG)
        assert (disp == -1.0).all()


class TestPeakAllocation:
    """The default scene's rendering and pair synthesis hold no full-frame
    temporaries beyond the arrays their results need."""

    MAP = RIG.camera.width * RIG.camera.height * 8  # one float64 frame

    def test_render_below_three_maps(self):
        # zbuf, the returned disparity and one rod box's arrays
        assert peak_bytes(render_disparity, GridSpec(), RIG) < 3 * self.MAP

    def test_stereo_pair_below_two_maps(self):
        # one int64 draw at a time and the uint8 views
        disp = render_disparity(GridSpec(), RIG)
        assert peak_bytes(synth_stereo_pair, GridSpec(), disp) < 2 * self.MAP


class TestGroundTruthLabels:
    def test_label_count(self):
        _, truth = generate_grid_cloud(small_spec(), RIG)
        text = write_yolo_labels(truth.labels)
        assert len(text.strip().splitlines()) == 9

    def test_parse_round_trip_centers(self):
        _, truth = generate_grid_cloud(GridSpec(), RIG)
        text = write_yolo_labels(truth.labels)
        boxes = parse_yolo_labels(text)
        pix = project(RIG.camera, truth.nodes)
        for box, (u, v) in zip(boxes, pix):
            assert box.cx == pytest.approx(u / RIG.camera.width, abs=1e-6)
            assert box.cy == pytest.approx(v / RIG.camera.height, abs=1e-6)

    def test_locate_on_gt_midplane_recovers_nodes(self):
        # scene-synth oracle: labels plus the ground-truth plane pair
        _, truth = generate_grid_cloud(GridSpec(), RIG)
        obs, diags = locate_nodes(truth.labels, RIG.camera, truth.planes.mid_plane())
        assert not diags
        pred = np.array([o.camera_point for o in obs])
        err = np.linalg.norm(pred - truth.nodes, axis=1)
        assert err.max() < 0.005

    def test_full_chain_detected_planes_within_5mm(self):
        spec = GridSpec(seed=2)
        cloud, truth = generate_grid_cloud(spec, RIG)
        conditioned = voxel_downsample(statistical_outlier_removal(cloud))
        pair = detect_parallel_planes(conditioned, RansacParams(seed=3))
        obs, _ = locate_nodes(truth.labels, RIG.camera, pair.mid_plane())
        pred = np.array([o.camera_point for o in obs])
        matching = match_nodes(pred, truth.nodes, cutoff=0.05)
        assert len(matching) == truth.nodes.shape[0]
        assert compute_sai(matching, pred, truth.nodes) <= 5.0


class TestGridSpecIO:
    def test_round_trip(self, tmp_path):
        spec = GridSpec(rows=4, cols=6, noise_sigma=0.001, seed=77)
        path = tmp_path / "scene.txt"
        write_grid_spec(path, spec)
        back = read_grid_spec(path)
        assert (back.rows, back.cols, back.seed) == (4, 6, 77)
        assert back.noise_sigma == pytest.approx(0.001)
        assert np.allclose(back.grid_pose.rotation, spec.grid_pose.rotation)
        assert np.allclose(
            back.grid_pose.translation, spec.grid_pose.translation, atol=1e-8
        )

    def test_tilted_poses_round_trip_exactly(self, tmp_path):
        path = tmp_path / "scene.txt"
        for seed in range(1000):
            spec = tilted_spec(seed)
            write_grid_spec(path, spec)
            back = read_grid_spec(path).grid_pose
            assert np.array_equal(back.rotation, spec.grid_pose.rotation), seed
            assert np.array_equal(back.translation, spec.grid_pose.translation), seed

    def test_bad_value_names_its_line(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("# grid\nrows = 4\ncols = four\n")
        with pytest.raises(ParseError) as exc:
            read_grid_spec(path)
        assert str(exc.value) == "line 3: bad value for cols: 'four'"
        path.write_text("rows = 4\ncols\n")
        with pytest.raises(ParseError) as exc:
            read_grid_spec(path)
        assert str(exc.value) == "line 2: expected key = value"
        path.write_text("rows = 4\nspacng_x = 0.3\n")
        with pytest.raises(ParseError) as exc:
            read_grid_spec(path)
        assert str(exc.value) == "line 2: unknown config key 'spacng_x'"

    def test_invalid_spec_is_parse_error(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("rows = 1\n")
        with pytest.raises(ParseError, match="rows and cols"):
            read_grid_spec(path)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(rows=1)
        with pytest.raises(ValueError):
            GridSpec(spacing_x=0.005)
        with pytest.raises(ValueError):
            GridSpec(layer_gap=0.001)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            GridSpec(seed=-1)  # numpy's generators take no negative seed
