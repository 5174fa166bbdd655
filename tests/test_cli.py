import numpy as np
import pytest

from rebartie import pnm, scene
from rebartie.cli import main
from rebartie.cloud import PointCloud, write_ply
from rebartie.config import PipelineConfig, load_pipeline_config
from rebartie.errors import ParseError
from rebartie.frames import CalibrationSet, format_calibration, read_tie_points
from rebartie.geometry import RigidTransform
from rebartie.robot import SimRobotConfig, SimRobotServer


@pytest.fixture
def identity_calib_file(tmp_path):
    calib = CalibrationSet(
        RigidTransform(np.eye(3), np.zeros(3), "camera", "base"),
        RigidTransform(np.eye(3), np.zeros(3), "base", "base"),
    )
    path = tmp_path / "calib.txt"
    path.write_text(format_calibration(calib))
    return path


@pytest.fixture
def bundle(tmp_path):
    out = tmp_path / "bundle"
    assert main(["synth", "--out", str(out)]) == 0
    return out


class TestSynth:
    def test_default_bundle_contents(self, bundle):
        for name in (
            "cloud.ply", "disparity.txt", "left.pgm", "right.pgm",
            "labels.txt", "gt_nodes.txt", "planes.txt", "scene.txt",
        ):
            assert (bundle / name).exists(), name
        assert len((bundle / "gt_nodes.txt").read_text().splitlines()) == 25
        assert len((bundle / "labels.txt").read_text().splitlines()) == 25

    def test_custom_scene_spec(self, tmp_path):
        spec = tmp_path / "scene.txt"
        spec.write_text("rows = 3\ncols = 4\nseed = 11\n")
        out = tmp_path / "b2"
        assert main(["synth", str(spec), "--out", str(out)]) == 0
        assert len((out / "gt_nodes.txt").read_text().splitlines()) == 12

    def test_renders_once(self, tmp_path, monkeypatch):
        calls = []
        render = scene.render_disparity

        def counted(*args):
            calls.append(args)
            return render(*args)

        monkeypatch.setattr(scene, "render_disparity", counted)
        assert main(["synth", "--out", str(tmp_path / "b")]) == 0
        assert len(calls) == 1

    def test_non_orthonormal_pose_exit_1(self, tmp_path, capsys):
        spec = tmp_path / "scene.txt"
        spec.write_text("grid_pose = 1 0 0 0  0 1 0 0  0 0 1.001 1.2\n")
        rc = main(["synth", str(spec), "--out", str(tmp_path / "b")])
        assert rc == 1
        assert "ParseError: line 1: bad grid_pose" in capsys.readouterr().err


class TestFullChain:
    def test_pipeline_to_tce_100(self, tmp_path, bundle, identity_calib_file, capsys):
        cloud_out = tmp_path / "cloud.ply"
        planes_out = tmp_path / "planes.txt"
        ties_out = tmp_path / "ties.txt"

        assert main(["cloud", str(bundle / "disparity.txt"), "--out", str(cloud_out)]) == 0
        assert main(["planes", str(cloud_out), "--out", str(planes_out)]) == 0

        # mask needs an RGB image; build one from the left view
        left = pnm.read_pgm(bundle / "left.pgm")
        image = tmp_path / "image.ppm"
        pnm.write_ppm(image, np.stack([left] * 3, axis=-1))
        mask_out = tmp_path / "mask.pgm"
        filt_out = tmp_path / "filtered.ppm"
        assert main([
            "mask", str(cloud_out), str(planes_out), str(image),
            "--mask-out", str(mask_out), "--filtered-out", str(filt_out),
        ]) == 0
        # every ground-truth node pixel ends up inside the mask
        from rebartie.masking import read_mask
        from rebartie.scene import default_rig
        from rebartie.geometry import project

        mask = read_mask(mask_out)
        gt_nodes = np.loadtxt(bundle / "gt_nodes.txt").reshape(-1, 3)
        pix = np.floor(project(default_rig().camera, gt_nodes) + 0.5).astype(int)
        assert mask[pix[:, 1], pix[:, 0]].all()

        assert main([
            "nodes", str(bundle / "labels.txt"), str(planes_out),
            str(identity_calib_file), "--out", str(ties_out),
        ]) == 0
        ties = read_tie_points(ties_out)
        assert len(ties) == 25

        server = SimRobotServer(
            SimRobotConfig(workspace_center=(0.0, 0.0, 1.2), workspace_radius=1.0),
            port=0,
        ).start()
        report_out = tmp_path / "report.txt"
        metrics_out = tmp_path / "metrics.txt"
        rc = main([
            "tie", str(ties_out), f"127.0.0.1:{server.port}",
            "--report-out", str(report_out), "--metrics-out", str(metrics_out),
        ])
        server.stop()
        assert rc == 0
        assert "tce_percent=100.0" in metrics_out.read_text()

        eval_out = tmp_path / "eval.txt"
        assert main([
            "eval", str(ties_out), str(bundle / "gt_nodes.txt"),
            "--out", str(eval_out),
        ]) == 0
        content = eval_out.read_text()
        assert "matched=25" in content
        capsys.readouterr()

    def test_disparity_subcommand(self, tmp_path, bundle):
        out = tmp_path / "matched.txt"
        rc = main([
            "disparity", str(bundle / "left.pgm"), str(bundle / "right.pgm"),
            "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()


class TestErrors:
    def test_single_layer_cloud_exit_2(self, tmp_path, rng, capsys):
        pts = rng.uniform(-0.3, 0.3, (500, 3))
        pts[:, 2] = 1.0 + rng.normal(0, 0.0005, 500)
        ply = tmp_path / "flat.ply"
        write_ply(ply, PointCloud(pts))
        rc = main(["planes", str(ply), "--out", str(tmp_path / "p.txt")])
        assert rc == 2
        assert "plane-detect: LayersTooClose" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path, capsys):
        rc = main(["planes", str(tmp_path / "absent.ply"), "--out", str(tmp_path / "p.txt")])
        assert rc == 1
        capsys.readouterr()

    def test_malformed_labels_exit_1(self, tmp_path, identity_calib_file, capsys):
        labels = tmp_path / "bad.txt"
        labels.write_text("0 0.5 0.5\n")
        planes = tmp_path / "planes.txt"
        planes.write_text(
            "normal 0 0 1\noffset_near 1.19\noffset_far 1.21\nframe camera\n"
        )
        rc = main([
            "nodes", str(labels), str(planes), str(identity_calib_file),
            "--out", str(tmp_path / "t.txt"),
        ])
        assert rc == 1
        assert "ParseError" in capsys.readouterr().err

    def test_invalid_config_value_exit_1(self, tmp_path, bundle, capsys):
        rc = main([
            "cloud", str(bundle / "disparity.txt"), "--out", str(tmp_path / "c.ply"),
            "--window", "4",
        ])
        assert rc == 1
        assert "ParseError: line 0: bad config: window must be odd" in capsys.readouterr().err

    def test_directory_as_input_exit_1(self, tmp_path, capsys):
        rc = main(["planes", str(tmp_path), "--out", str(tmp_path / "p.txt")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("input: ")

    def test_negative_vertex_count_exit_1(self, tmp_path, capsys):
        ply = tmp_path / "bad.ply"
        ply.write_text(
            "ply\nformat ascii 1.0\nelement vertex -1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        )
        rc = main(["planes", str(ply), "--out", str(tmp_path / "p.txt")])
        assert rc == 1
        assert "ParseError: line 3: negative vertex count" in capsys.readouterr().err

    def test_bad_usage_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["planes"])  # missing required args
        assert exc.value.code == 1
        capsys.readouterr()


class TestConfig:
    def test_file_and_flag_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("voxel_size = 0.01\nsor_k = 8\n")
        cfg = load_pipeline_config(cfg_file)
        assert cfg.voxel_size == 0.01
        assert cfg.sor_k == 8
        cfg2 = load_pipeline_config(cfg_file, {"voxel_size": "0.002"})
        assert cfg2.voxel_size == 0.002
        assert cfg2.sor_k == 8

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("not_a_key = 3\n")
        with pytest.raises(ParseError):
            load_pipeline_config(cfg_file)

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(window=4)
        with pytest.raises(ValueError):
            PipelineConfig(tie_policy="yolo")

    def test_flag_reaches_stage(self, tmp_path, bundle):
        # shrink the voxel size; the cloud gets denser
        out_default = tmp_path / "a.ply"
        out_fine = tmp_path / "b.ply"
        assert main(["cloud", str(bundle / "disparity.txt"), "--out", str(out_default)]) == 0
        assert main([
            "cloud", str(bundle / "disparity.txt"), "--out", str(out_fine),
            "--voxel-size", "0.002",
        ]) == 0
        from rebartie.cloud import read_ply

        assert len(read_ply(out_fine)) > len(read_ply(out_default))


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path, identity_calib_file):
        digests = []
        for run in ("r1", "r2"):
            base = tmp_path / run
            base.mkdir()
            bundle = base / "bundle"
            assert main(["synth", "--out", str(bundle)]) == 0
            cloud_out = base / "cloud.ply"
            planes_out = base / "planes.txt"
            ties_out = base / "ties.txt"
            assert main(["cloud", str(bundle / "disparity.txt"), "--out", str(cloud_out)]) == 0
            assert main(["planes", str(cloud_out), "--out", str(planes_out)]) == 0
            assert main([
                "nodes", str(bundle / "labels.txt"), str(planes_out),
                str(identity_calib_file), "--out", str(ties_out),
            ]) == 0
            blob = b"".join(
                p.read_bytes()
                for p in sorted(base.rglob("*"))
                if p.is_file()
            )
            digests.append(blob)
        assert digests[0] == digests[1]
