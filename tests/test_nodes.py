import numpy as np
import pytest

from rebartie.errors import NegativeDepth, ParseError, RayParallel, SizeMismatch
from rebartie.geometry import CameraModel, Plane, StereoRig
from rebartie.nodes import (
    DetectionBox,
    box_to_node_pixel,
    locate_nodes,
    locate_nodes_from_disparity,
    node_pixel_to_camera_point,
    parse_yolo_labels,
    write_yolo_labels,
)

CAM = CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


class TestParseLabels:
    def test_single_line(self):
        boxes = parse_yolo_labels("0 0.5 0.5 0.1 0.2\n")
        assert len(boxes) == 1
        b = boxes[0]
        assert (b.class_id, b.cx, b.cy, b.w, b.h) == (0, 0.5, 0.5, 0.1, 0.2)
        assert box_to_node_pixel(b, 640, 480) == (320.0, 240.0)
        assert (b.w * 640, b.h * 480) == (64.0, 96.0)

    def test_empty_file(self):
        assert parse_yolo_labels("") == []
        assert parse_yolo_labels("\n\n") == []

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as exc:
            parse_yolo_labels("0 0.5 0.5 0.1")
        assert exc.value.line == 1

    def test_non_numeric(self):
        with pytest.raises(ParseError) as exc:
            parse_yolo_labels("0 0.5 0.5 0.1 0.2\n0 a 0.5 0.1 0.2\n")
        assert exc.value.line == 2

    def test_non_finite_confidence(self):
        with pytest.raises(ParseError) as exc:
            parse_yolo_labels("0 0.5 0.5 0.1 0.2 0.9\n0 0.5 0.5 0.1 0.2 nan\n")
        assert str(exc.value) == "line 2: non-finite field"

    def test_out_of_range(self):
        with pytest.raises(ParseError) as exc:
            parse_yolo_labels("0 1.5 0.5 0.1 0.2")
        assert exc.value.line == 1

    def test_confidence_column_carried(self):
        boxes = parse_yolo_labels("2 0.25 0.75 0.1 0.1 0.875\n")
        assert boxes[0].conf == 0.875
        assert boxes[0].class_id == 2

    def test_order_preserved(self):
        text = "0 0.1 0.1 0.05 0.05\n1 0.9 0.9 0.05 0.05\n"
        boxes = parse_yolo_labels(text)
        assert [b.class_id for b in boxes] == [0, 1]


class TestWriteLabels:
    def test_parse_write_round_trip_exact(self):
        # 6-decimal values survive the round trip exactly
        boxes = [
            DetectionBox(0, 0.5, 0.25, 0.125, 0.0625),
            DetectionBox(3, 0.1, 0.9, 0.05, 0.05, conf=0.75),
        ]
        assert parse_yolo_labels(write_yolo_labels(boxes)) == boxes

    def test_write_normalizes_whitespace(self):
        text = "0   0.500000 0.500000\t0.100000 0.200000\n"
        normalized = write_yolo_labels(parse_yolo_labels(text))
        assert normalized == "0 0.500000 0.500000 0.100000 0.200000\n"


class TestRayPlaneIntersection:
    def test_center_pixel_hits_plane_on_axis(self):
        plane = Plane(np.array([0.0, 0.0, 1.0]), 2.0)
        p = node_pixel_to_camera_point(CAM, 320.0, 240.0, plane)
        assert np.allclose(p, [0, 0, 2.0], atol=1e-12)

    def test_offset_pixel_similar_triangles(self):
        plane = Plane(np.array([0.0, 0.0, 1.0]), 2.0)
        p = node_pixel_to_camera_point(CAM, 320.0 + 500.0, 240.0, plane)
        assert np.allclose(p, [2.0, 0.0, 2.0], atol=1e-9)

    def test_ray_parallel(self):
        # plane through the camera center containing the viewing ray
        plane = Plane(np.array([0.0, 1.0, 0.0]), 0.0)
        with pytest.raises(RayParallel):
            node_pixel_to_camera_point(CAM, 320.0, 240.0, plane)

    def test_negative_depth(self):
        plane = Plane(np.array([0.0, 0.0, 1.0]), -2.0)
        with pytest.raises(NegativeDepth):
            node_pixel_to_camera_point(CAM, 320.0, 240.0, plane)

    def test_point_lies_on_plane(self, rng):
        from rebartie.geometry import plane_signed_distance

        for _ in range(50):
            n = rng.normal(size=3) + [0, 0, 3.0]
            plane = Plane(n / np.linalg.norm(n), rng.uniform(1, 3))
            u = rng.uniform(0, 640)
            v = rng.uniform(0, 480)
            try:
                p = node_pixel_to_camera_point(CAM, u, v, plane)
            except (RayParallel, NegativeDepth):
                continue
            assert abs(plane_signed_distance(plane, p)) < 1e-6


class TestLocateNodes:
    plane = Plane(np.array([0.0, 0.0, 1.0]), 1.5)

    def test_empty_labels(self):
        obs, diags = locate_nodes([], CAM, self.plane)
        assert obs == [] and diags == []

    def test_observations_on_plane_in_order(self, rng):
        boxes = [
            DetectionBox(0, float(cx), float(cy), 0.05, 0.05)
            for cx, cy in rng.uniform(0.2, 0.8, (10, 2))
        ]
        obs, diags = locate_nodes(boxes, CAM, self.plane)
        assert len(obs) == 10 and not diags
        for o, b in zip(obs, boxes):
            assert o.source_box is b
            assert abs(o.camera_point @ self.plane.normal - self.plane.offset) < 1e-6

    def test_degenerate_box_skipped_with_diagnostic(self):
        behind = Plane(np.array([0.0, 0.0, 1.0]), -1.0)
        boxes = [DetectionBox(0, 0.5, 0.5, 0.1, 0.1)] * 3
        obs, diags = locate_nodes(boxes, CAM, behind)
        assert len(obs) == 0 and len(diags) == 3

    def test_one_bad_among_good(self):
        # horizontal plane below the camera: the center-pixel ray runs
        # parallel to it, a downward-tilted ray hits it
        plane = Plane(np.array([0.0, 1.0, 0.0]), 0.5)
        boxes = [
            DetectionBox(0, 0.5, 0.75, 0.1, 0.1),  # ray tilted down: hits
            DetectionBox(0, 0.5, 0.5, 0.1, 0.1),  # ray parallel to plane
        ]
        obs, diags = locate_nodes(boxes, CAM, plane)
        assert len(obs) == 1 and len(diags) == 1
        assert "RayParallel" in diags[0]
        assert obs[0].camera_point[1] == pytest.approx(0.5)


class TestLocateNodesFromDisparity:
    rig = StereoRig(CAM, 0.1)

    def test_depth_from_node_pixel(self):
        disp = np.full((CAM.height, CAM.width), 25.0)  # z = 500 * 0.1 / 25 = 2
        boxes = [DetectionBox(0, 0.5, 0.5, 0.1, 0.1), DetectionBox(0, 0.25, 0.75, 0.1, 0.1)]
        obs, diags = locate_nodes_from_disparity(boxes, self.rig, disp)
        assert not diags
        assert np.allclose(obs[0].camera_point, [0.0, 0.0, 2.0])
        assert obs[1].camera_point[2] == pytest.approx(2.0)
        assert [o.source_box for o in obs] == boxes

    # 1e-320 > 0, but its depth overflows to inf
    @pytest.mark.parametrize("value", [-1.0, 0.0, np.nan, 1e-320])
    def test_invalid_disparity_skipped_with_diagnostic(self, value):
        disp = np.full((CAM.height, CAM.width), 25.0)
        disp[240, 320] = value
        boxes = [DetectionBox(0, 0.5, 0.5, 0.1, 0.1), DetectionBox(0, 0.25, 0.25, 0.1, 0.1)]
        obs, diags = locate_nodes_from_disparity(boxes, self.rig, disp)
        assert len(obs) == 1 and obs[0].source_box is boxes[1]
        assert diags == ["box 0: no valid disparity at node pixel"]

    def test_map_must_match_camera(self):
        with pytest.raises(SizeMismatch):
            locate_nodes_from_disparity([], self.rig, np.ones((10, 10)))
