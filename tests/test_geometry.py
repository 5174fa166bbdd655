import numpy as np
import pytest

from rebartie.errors import BehindCamera, DegenerateInput, FrameMismatch
from rebartie.geometry import (
    CameraModel,
    Plane,
    RigidTransform,
    backproject,
    compose,
    fit_plane_least_squares,
    invert,
    plane_signed_distance,
    project,
    rotation_aligning,
    transform_plane,
    transform_point,
)

from conftest import plane_angle


def random_rigid(rng, from_frame="a", to_frame="b"):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    return RigidTransform(rot, rng.normal(size=3), from_frame, to_frame)


class TestSignedDistance:
    def test_offset_point(self):
        plane = Plane(np.array([0.0, 1.0, 0.0]), 0.5)
        assert plane_signed_distance(plane, [1.0, 0.7, 2.0]) == pytest.approx(0.2)

    def test_point_on_plane_is_zero(self, rng):
        n = rng.normal(size=3)
        plane = Plane(n / np.linalg.norm(n), rng.normal())
        # construct on-plane points: offset * normal + in-plane component
        for _ in range(20):
            t = rng.normal(size=3)
            t -= (t @ plane.normal) * plane.normal
            p = plane.offset * plane.normal + t
            assert abs(plane_signed_distance(plane, p)) < 1e-9

    def test_origin_against_z_plane(self):
        plane = Plane(np.array([0.0, 0.0, 1.0]), 2.0)
        assert plane_signed_distance(plane, [0.0, 0.0, 0.0]) == pytest.approx(-2.0)

    def test_batched(self):
        plane = Plane(np.array([0.0, 0.0, 1.0]), 1.0)
        d = plane_signed_distance(plane, np.array([[0, 0, 0.0], [0, 0, 3.0]]))
        assert np.allclose(d, [-1.0, 2.0])


class TestFitPlane:
    def test_exact_coplanar(self):
        pts = np.array([[0, 2, 0], [1, 2, 0], [0, 2, 1], [3, 2, 5.0]])
        plane = fit_plane_least_squares(pts)
        assert np.allclose(plane.normal, [0, 1, 0])
        assert plane.offset == pytest.approx(2.0)

    def test_collinear_raises(self):
        pts = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2.0]])
        with pytest.raises(DegenerateInput):
            fit_plane_least_squares(pts)

    def test_coincident_raises(self):
        with pytest.raises(DegenerateInput):
            fit_plane_least_squares(np.ones((5, 3)))

    def test_noisy_plane_vs_independent_eigensolver(self, rng):
        # oracle: scatter matrix accumulated by explicit loops, eigenvector
        # via the general eigensolver
        true_n = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        basis = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]])
        basis /= np.linalg.norm(basis, axis=1, keepdims=True)
        coeffs = rng.uniform(-1, 1, (200, 2))
        pts = true_n + coeffs @ basis + rng.normal(0, 1e-3, (200, 3))

        centroid = sum(p for p in pts) / len(pts)
        scatter = np.zeros((3, 3))
        for p in pts:
            q = p - centroid
            scatter += np.outer(q, q)
        evals, evecs = np.linalg.eig(scatter)
        oracle_n = np.real(evecs[:, np.argmin(np.real(evals))])
        oracle_n /= np.linalg.norm(oracle_n)

        plane = fit_plane_least_squares(pts)
        assert plane_angle(plane.normal, oracle_n) < 1e-9
        assert plane_angle(plane.normal, true_n) < 0.01

    def test_rigid_equivariance(self, rng):
        for _ in range(50):
            pts = rng.normal(size=(12, 3))
            pts[:, 2] *= 0.01  # flatten so the fit is well conditioned
            t = random_rigid(rng)
            direct = fit_plane_least_squares(transform_point(t, pts))
            moved = transform_plane(t, fit_plane_least_squares(pts))
            sign = 1.0 if direct.normal @ moved.normal >= 0 else -1.0
            assert np.allclose(direct.normal, sign * moved.normal, atol=1e-9)
            assert direct.offset == pytest.approx(sign * moved.offset, abs=1e-9)


class TestRotationAligning:
    def test_identity_branch(self):
        t = rotation_aligning([0, 1, 0], [0, 1, 0])
        assert np.allclose(t.rotation, np.eye(3))

    def test_quarter_turn(self):
        t = rotation_aligning([1, 0, 0], [0, 1, 0])
        assert np.allclose(t.rotation @ [1, 0, 0], [0, 1, 0], atol=1e-12)
        # 90 degrees about +z
        assert np.allclose(t.rotation @ [0, 0, 1], [0, 0, 1], atol=1e-12)

    def test_antipodal_branch(self):
        t = rotation_aligning([0, -1, 0], [0, 1, 0])
        assert np.allclose(t.rotation @ [0, -1, 0], [0, 1, 0], atol=1e-12)
        assert np.allclose(t.rotation.T @ t.rotation, np.eye(3), atol=1e-12)
        assert np.linalg.det(t.rotation) == pytest.approx(1.0)

    def test_random_pairs(self, rng):
        for _ in range(500):
            f = rng.normal(size=3)
            f /= np.linalg.norm(f)
            t = rng.normal(size=3)
            t /= np.linalg.norm(t)
            rot = rotation_aligning(f, t).rotation
            assert np.allclose(rot @ f, t, atol=1e-9)
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)


class TestTransforms:
    def test_identity(self):
        t = RigidTransform.identity("camera")
        p = np.array([1.0, 2.0, 3.0])
        assert np.allclose(transform_point(t, p), p)

    def test_translation(self):
        t = RigidTransform(np.eye(3), [1.0, 0.0, 0.0], "a", "b")
        assert np.allclose(transform_point(t, [0, 0, 1.0]), [1, 0, 1])

    def test_inverse_round_trip(self, rng):
        t = random_rigid(rng)
        p = rng.normal(size=3)
        back = transform_point(invert(t), transform_point(t, p))
        assert np.allclose(back, p, atol=1e-9)

    def test_compose_identity(self, rng):
        t = random_rigid(rng, "a", "b")
        c = compose(t, RigidTransform.identity("a"))
        assert np.allclose(c.rotation, t.rotation)
        assert np.allclose(c.translation, t.translation)

    def test_double_invert(self, rng):
        t = random_rigid(rng)
        tt = invert(invert(t))
        assert np.allclose(tt.rotation, t.rotation, atol=1e-12)
        assert np.allclose(tt.translation, t.translation, atol=1e-12)
        assert (tt.from_frame, tt.to_frame) == (t.from_frame, t.to_frame)

    def test_frame_mismatch(self, rng):
        t1 = random_rigid(rng, "a", "b")
        t2 = random_rigid(rng, "c", "d")
        with pytest.raises(FrameMismatch):
            compose(t2, t1)

    def test_distance_preservation(self, rng):
        t = random_rigid(rng)
        pts = rng.normal(size=(30, 3))
        moved = transform_point(t, pts)
        d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        d1 = np.linalg.norm(moved[:, None] - moved[None, :], axis=2)
        assert np.allclose(d0, d1, rtol=1e-9, atol=1e-12)


class TestProjection:
    cam = CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)

    def test_on_axis(self):
        assert np.allclose(project(self.cam, [0, 0, 1.0]), [320, 240])

    def test_round_trip(self, rng):
        for _ in range(100):
            p = rng.normal(size=3)
            p[2] = rng.uniform(0.1, 10.0)
            u, v = project(self.cam, p)
            assert np.allclose(backproject(self.cam, u, v, p[2]), p, rtol=1e-9)

    def test_behind_camera(self):
        with pytest.raises(BehindCamera):
            project(self.cam, [0, 0, -1.0])
        with pytest.raises(BehindCamera):
            backproject(self.cam, 320, 240, 0.0)


class TestPlaneCanonicalization:
    def test_sign_flip_normalizes(self):
        a = Plane(np.array([0.0, -1.0, 0.0]), -2.0)
        assert np.allclose(a.normal, [0, 1, 0])
        assert a.offset == pytest.approx(2.0)

    def test_first_significant_component_positive(self, rng):
        for _ in range(200):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            d = rng.normal()
            p1 = Plane(n, d)
            p2 = Plane(-n, -d)
            assert np.array_equal(p1.normal, p2.normal)
            assert p1.offset == p2.offset
            lead = p1.normal[np.abs(p1.normal) > 1e-12][0]
            assert lead > 0
