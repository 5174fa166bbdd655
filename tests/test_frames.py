import numpy as np
import pytest

from rebartie.errors import BadCalibration, ParseError
from rebartie.frames import (
    CalibrationSet,
    apply_tool_bias,
    camera_to_base,
    format_calibration,
    load_calibration,
    read_tie_points,
    sequence_ties,
    write_tie_points,
)
from rebartie.geometry import RigidTransform, compose, transform_point

from test_geometry import random_rigid

IDENTITY_FILE = """T_base_cam
1 0 0 0
0 1 0 0
0 0 1 0
bias
1 0 0 0
0 1 0 0
0 0 1 0
"""


def identity_calibration():
    return CalibrationSet(
        RigidTransform(np.eye(3), np.zeros(3), "camera", "base"),
        RigidTransform(np.eye(3), np.zeros(3), "base", "base"),
    )


class TestLoadCalibration:
    def test_identity_file(self):
        calib = load_calibration(IDENTITY_FILE)
        assert np.allclose(calib.t_base_from_camera.rotation, np.eye(3))
        assert np.allclose(calib.tool_bias.translation, 0)
        assert calib.t_base_from_camera.from_frame == "camera"
        assert calib.t_base_from_camera.to_frame == "base"

    def test_reflection_rejected(self):
        text = IDENTITY_FILE.replace("1 0 0 0\n0 1 0 0\n0 0 1 0\nbias", "-1 0 0 0\n0 1 0 0\n0 0 1 0\nbias")
        with pytest.raises(BadCalibration):
            load_calibration(text)

    def test_small_perturbation_renormalized(self, rng):
        rot = random_rigid(rng).rotation
        noisy = rot + rng.normal(0, 1e-8, (3, 3))
        rows = "\n".join(
            " ".join(f"{v:.17g}" for v in list(noisy[i]) + [0.0]) for i in range(3)
        )
        text = f"T_base_cam\n{rows}\nbias\n1 0 0 0\n0 1 0 0\n0 0 1 0\n"
        calib = load_calibration(text)
        r = calib.t_base_from_camera.rotation
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12

    def test_gross_perturbation_rejected(self, rng):
        rot = np.eye(3) + 0.01
        rows = "\n".join(
            " ".join(f"{v:.9g}" for v in list(rot[i]) + [0.0]) for i in range(3)
        )
        text = f"T_base_cam\n{rows}\nbias\n1 0 0 0\n0 1 0 0\n0 0 1 0\n"
        with pytest.raises(BadCalibration):
            load_calibration(text)

    def test_malformed_file(self):
        with pytest.raises(ParseError, match="^line 1: expected 'T_base_cam' header$"):
            load_calibration("not a calibration\n")
        with pytest.raises(ParseError, match="^line 2: expected 4 values, got 3$"):
            load_calibration("T_base_cam\n1 0 0\n")

    def test_format_round_trip(self, rng):
        calib = CalibrationSet(
            random_rigid(rng, "camera", "base"),
            random_rigid(rng, "base", "base"),
        )
        back = load_calibration(format_calibration(calib))
        assert np.allclose(
            back.t_base_from_camera.rotation, calib.t_base_from_camera.rotation,
            atol=1e-8,
        )
        assert np.allclose(back.tool_bias.translation, calib.tool_bias.translation,
                           atol=1e-8)


class TestFrameMaps:
    def test_identity_calibration_is_noop(self, rng):
        calib = identity_calibration()
        p = rng.normal(size=3)
        assert np.allclose(camera_to_base(calib, p), p)
        assert np.allclose(apply_tool_bias(calib, p), p)

    def test_pure_translation(self):
        calib = CalibrationSet(
            RigidTransform(np.eye(3), [1.0, 0, 0], "camera", "base"),
            RigidTransform(np.eye(3), np.zeros(3), "base", "base"),
        )
        assert np.allclose(camera_to_base(calib, [0, 0, 1.0]), [1, 0, 1])

    def test_bias_translation(self):
        calib = CalibrationSet(
            RigidTransform(np.eye(3), np.zeros(3), "camera", "base"),
            RigidTransform(np.eye(3), [0, 0, -0.10], "base", "base"),
        )
        out = apply_tool_bias(calib, [0.5, 0.5, 0.5])
        assert out[2] == pytest.approx(0.4)

    def test_known_extrinsics_map_gt(self, rng):
        t = random_rigid(rng, "camera", "base")
        calib = CalibrationSet(t, RigidTransform(np.eye(3), np.zeros(3), "base", "base"))
        pts_cam = rng.normal(size=(20, 3))
        expected = transform_point(t, pts_cam)
        assert np.allclose(camera_to_base(calib, pts_cam), expected, atol=1e-12)

    def test_bias_after_handeye_equals_composition(self, rng):
        t_bc = random_rigid(rng, "camera", "base")
        bias = random_rigid(rng, "base", "base")
        calib = CalibrationSet(t_bc, bias)
        p = rng.normal(size=3)
        via_ops = apply_tool_bias(calib, camera_to_base(calib, p))
        via_compose = transform_point(compose(bias, t_bc), p)
        assert np.allclose(via_ops, via_compose, atol=1e-12)

    def test_distance_preserved(self, rng):
        calib = CalibrationSet(
            random_rigid(rng, "camera", "base"),
            RigidTransform(np.eye(3), np.zeros(3), "base", "base"),
        )
        pts = rng.normal(size=(10, 3))
        moved = camera_to_base(calib, pts)
        d0 = np.linalg.norm(pts[0] - pts[-1])
        d1 = np.linalg.norm(moved[0] - moved[-1])
        assert d0 == pytest.approx(d1, rel=1e-12)


def travel_distance(positions):
    diffs = np.diff(np.asarray(positions), axis=0)
    return float(np.linalg.norm(diffs, axis=1).sum())


class TestSequenceTies:
    def test_2x2_serpentine(self):
        pts = [[0.2, 0.2, 0], [0, 0, 0], [0.2, 0, 0], [0, 0.2, 0.0]]
        ties = sequence_ties(pts, row_tolerance=0.05)
        ordered = [tuple(t.position[:2]) for t in ties]
        assert ordered == [(0, 0), (0.2, 0), (0.2, 0.2), (0, 0.2)]
        assert [t.sequence_index for t in ties] == [0, 1, 2, 3]

    def test_single_point(self):
        ties = sequence_ties([[1.0, 2.0, 3.0]], row_tolerance=0.1)
        assert len(ties) == 1
        assert ties[0].sequence_index == 0

    def test_3x3_beats_row_major_travel(self):
        xs, ys = np.meshgrid([0, 0.2, 0.4], [0, 0.2, 0.4])
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(9)])
        ties = sequence_ties(pts, row_tolerance=0.05)
        serpentine = [t.position for t in ties]
        row_major = sorted(map(tuple, pts), key=lambda p: (p[1], p[0]))
        assert travel_distance(serpentine) <= travel_distance(row_major)

    def test_permutation_of_inputs(self, rng):
        pts = rng.normal(size=(12, 3))
        ties = sequence_ties(pts, row_tolerance=0.3)
        assert sorted(t.sequence_index for t in ties) == list(range(12))
        produced = sorted(map(tuple, (t.position for t in ties)))
        assert produced == sorted(map(tuple, pts))

    def test_deterministic_bit_for_bit(self, rng):
        pts = rng.normal(size=(20, 3))
        a = sequence_ties(pts, row_tolerance=0.2)
        b = sequence_ties(pts, row_tolerance=0.2)
        assert all(
            np.array_equal(x.position, y.position)
            and x.sequence_index == y.sequence_index
            for x, y in zip(a, b)
        )


class TestTiePointIO:
    def test_round_trip(self, tmp_path, rng):
        pts = rng.normal(size=(6, 3))
        ties = sequence_ties(pts, row_tolerance=0.5)
        path = tmp_path / "ties.txt"
        write_tie_points(path, ties)
        back = read_tie_points(path)
        assert len(back) == 6
        for orig, loaded in zip(ties, back):
            assert loaded.sequence_index == orig.sequence_index
            assert np.allclose(loaded.position, orig.position, rtol=1e-8)
