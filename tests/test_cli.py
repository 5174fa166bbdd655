import argparse
import os
import random
import re
import socket
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import rebartie
from rebartie import cli, pnm, robot, scene
from rebartie.cli import build_parser, main
from rebartie.cloud import PointCloud, write_ply
from rebartie.config import CAMERA_KEYS, RIG_KEYS, PipelineConfig, load_pipeline_config
from rebartie.errors import INPUT_ERRORS, BadParameter, ParseError
from rebartie.frames import CalibrationSet, format_calibration, read_tie_points
from rebartie.geometry import RigidTransform
from rebartie.robot import SimRobotConfig, SimRobotServer
from rebartie.stereo import (
    disparity_to_cloud,
    read_disparity,
    window_disparity_filter,
    write_disparity,
)

from conftest import peak_bytes


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
        assert capsys.readouterr().err.startswith("synth: ParseError: line 1: bad grid_pose")


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


class TestNodesFromDisparity:
    """nodes --disparity: depth from the node pixel's disparity."""

    def _nodes(self, bundle, calib, labels, disparity, out):
        return main([
            "nodes", str(labels), str(calib), "--out", str(out), "--disparity", str(disparity),
        ])

    @pytest.mark.parametrize("source", ["matched", "rendered"])
    def test_every_node_located_and_matched(self, tmp_path, bundle, identity_calib_file, source, capsys):
        disparity = bundle / "disparity.txt"
        if source == "matched":
            disparity = tmp_path / "matched.txt"
            assert main([
                "disparity", str(bundle / "left.pgm"), str(bundle / "right.pgm"),
                "--out", str(disparity),
            ]) == 0
        ties = tmp_path / "ties.txt"
        assert self._nodes(bundle, identity_calib_file, bundle / "labels.txt", disparity, ties) == 0
        assert len(read_tie_points(ties)) == 25
        metrics_out = tmp_path / "metrics.txt"
        assert main(["eval", str(ties), str(bundle / "gt_nodes.txt"), "--out", str(metrics_out)]) == 0
        content = metrics_out.read_text()
        assert "matched=25" in content
        assert "unmatched_predictions=0" in content and "unmatched_ground_truth=0" in content
        assert "skipped" not in capsys.readouterr().err

    def test_invalid_node_pixel_skipped(self, tmp_path, bundle, identity_calib_file, capsys):
        # one more box, centered on background: the rendered map is invalid there
        labels = tmp_path / "labels.txt"
        labels.write_text((bundle / "labels.txt").read_text() + "0 0.020000 0.020000 0.050000 0.050000\n")
        ties = tmp_path / "ties.txt"
        assert self._nodes(bundle, identity_calib_file, labels, bundle / "disparity.txt", ties) == 0
        captured = capsys.readouterr()
        assert captured.err == "nodes: skipped box 25: no valid disparity at node pixel\n"
        assert "25 tie points (1 skipped)" in captured.out
        assert len(read_tie_points(ties)) == 25

    @pytest.mark.parametrize("with_disparity", [False, True])
    def test_planes_given_iff_plane_path(self, tmp_path, bundle, identity_calib_file, with_disparity, capsys):
        # planes is read only without --disparity: a missing one there, and a
        # given one with --disparity, is a usage error before any file is read
        ties = tmp_path / "ties.txt"
        argv = ["nodes", str(bundle / "labels.txt"), str(identity_calib_file), "--out", str(ties)]
        if with_disparity:
            argv[2:2] = [str(tmp_path / "no_such_planes.txt")]
            argv += ["--disparity", str(bundle / "disparity.txt")]
            message = "planes is not read with --disparity: the node depth comes from the disparity map"
        else:
            message = "the following arguments are required: planes"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith(f"rebartie nodes: error: {message}\n")
        assert not ties.exists()


class TestErrors:
    def test_single_layer_cloud_exit_2(self, tmp_path, rng, capsys):
        pts = rng.uniform(-0.3, 0.3, (500, 3))
        pts[:, 2] = 1.0 + rng.normal(0, 0.0005, 500)
        ply = tmp_path / "flat.ply"
        write_ply(ply, PointCloud(pts))
        rc = main(["planes", str(ply), "--out", str(tmp_path / "p.txt")])
        assert rc == 2
        assert "planes: LayersTooClose" in capsys.readouterr().err

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
        assert capsys.readouterr().err.startswith("nodes: ParseError")

    def test_invalid_config_value_exit_1(self, tmp_path, bundle, capsys):
        rc = main([
            "cloud", str(bundle / "disparity.txt"), "--out", str(tmp_path / "c.ply"),
            "--window", "4",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("cloud: BadParameter: window must be odd")

    def test_directory_as_input_exit_1(self, tmp_path, capsys):
        rc = main(["planes", str(tmp_path), "--out", str(tmp_path / "p.txt")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("planes: IsADirectoryError: ")

    def test_negative_vertex_count_exit_1(self, tmp_path, capsys):
        ply = tmp_path / "bad.ply"
        ply.write_text(
            "ply\nformat ascii 1.0\nelement vertex -1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        )
        rc = main(["planes", str(ply), "--out", str(tmp_path / "p.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("planes: ParseError: line 3: negative vertex count")

    @pytest.mark.parametrize("command", ["planes", "mask"])
    def test_bad_ply_names_the_reading_subcommand(self, tmp_path, command, capsys):
        ply = tmp_path / "bad.ply"
        ply.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
            "0 zero 0\n"
        )
        planes = tmp_path / "planes.txt"
        planes.write_text("normal 0 0 1\noffset_near 1.19\noffset_far 1.21\nframe camera\n")
        image = tmp_path / "image.ppm"
        pnm.write_ppm(image, np.zeros((4, 4, 3), dtype=np.uint8))
        argv = {
            "planes": ["planes", str(ply), "--out", str(tmp_path / "p.txt")],
            "mask": [
                "mask", str(ply), str(planes), str(image),
                "--mask-out", str(tmp_path / "m.pgm"),
                "--filtered-out", str(tmp_path / "f.ppm"),
            ],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: ParseError: line 8: non-numeric coordinate")

    def test_bad_disparity_names_cloud(self, tmp_path, capsys):
        disp = tmp_path / "d.txt"
        disp.write_text("2 2\n1 2\n3\n")
        assert main(["cloud", str(disp), "--out", str(tmp_path / "c.ply")]) == 1
        assert capsys.readouterr().err.startswith(
            "cloud: ParseError: line 3: expected 2 values, got 1"
        )

    def test_non_finite_disparity_names_cloud(self, tmp_path, capsys):
        disp = tmp_path / "d.txt"
        disp.write_text("2 2\n1 2\n3 inf\n")
        assert main(["cloud", str(disp), "--out", str(tmp_path / "c.ply")]) == 1
        err = capsys.readouterr().err
        assert err == "cloud: ParseError: line 3: non-finite disparity\n"
        assert not (tmp_path / "c.ply").exists()

    @pytest.mark.parametrize("header", ["2 -3", "-2 3"])
    def test_negative_disparity_dimensions_exit_1(self, tmp_path, capsys, header):
        disp = tmp_path / "d.txt"
        disp.write_text(header + "\n")
        assert main(["cloud", str(disp), "--out", str(tmp_path / "c.ply")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cloud: ParseError: line 1: negative dimensions")
        assert "Traceback" not in err
        assert not (tmp_path / "c.ply").exists()

    def test_overflowing_depths_leave_no_points(self, tmp_path, capsys):
        # every pixel's depth 60 / 1e-320 overflows, so no pixel is valid and
        # SOR has nothing to filter (was a cKDTree traceback on inf points)
        disp = tmp_path / "d.txt"
        disp.write_text("8 8\n" + ("1e-320 " * 8 + "\n") * 8)
        argv = ["cloud", str(disp), "--out", str(tmp_path / "c.ply"),
                "--image-width", "8", "--image-height", "8", "--cx", "4", "--cy", "4",
                "--sor-k", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "cloud: TooFewPoints: cloud of size 0 needs more than k=2 points\n"
        assert not (tmp_path / "c.ply").exists()

    def test_sor_keeping_no_point_exit_2(self, tmp_path, walkthrough, capsys):
        # mu - 5 sigma lies below every mean distance (was `cloud: 0 points`
        # and exit 0, then a NoConsensus in planes)
        out = tmp_path / "e.ply"
        argv = ["cloud", str(walkthrough["bundle"] / "disparity.txt"), "--out", str(out),
                "--sor-sigma-mult", "-5"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("cloud: TooFewPoints: no point survives: every mean kNN distance")
        assert "Traceback" not in err
        assert not out.exists()

    BEYOND_BOUND = "cloud: CoordinateOutOfRange: a coordinate lies beyond 1e+50 m or is NaN\n"

    def test_huge_baseline_exit_2(self, tmp_path, walkthrough, capsys):
        # depths near 1e162 m: SOR's squared distances overflowed, and every
        # mean distance came out nan (was `TooFewPoints: ... = nan`)
        out = tmp_path / "c.ply"
        argv = ["cloud", str(walkthrough["bundle"] / "disparity.txt"), "--out", str(out),
                "--baseline", "1e160"]
        assert main(argv) == 2
        assert capsys.readouterr().err == self.BEYOND_BOUND
        assert not out.exists()

    def test_one_tiny_disparity_exit_2(self, tmp_path, walkthrough, capsys):
        # an isolated pixel the window filter keeps, 4.2e202 m deep
        disp = read_disparity(walkthrough["bundle"] / "disparity.txt")
        assert (disp[:16, :16] < 0).all()
        disp[0, 0] = 1e-200
        path = tmp_path / "d.txt"
        write_disparity(path, disp)
        out = tmp_path / "c.ply"
        assert main(["cloud", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == self.BEYOND_BOUND
        assert not out.exists()

    def test_tiny_focal_length_exit_1(self, tmp_path, walkthrough, capsys):
        # a focal length below 1 pixel gives one pixel a field of view above 53 deg
        disparity = walkthrough["bundle"] / "disparity.txt"
        out = tmp_path / "c.ply"
        assert main(["cloud", str(disparity), "--out", str(out), "--fx", "1e-300"]) == 1
        assert capsys.readouterr().err == "cloud: BadParameter: focal lengths must be at least 1 pixel\n"
        assert not out.exists()

    def test_bad_usage_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["planes"])  # missing required args
        assert exc.value.code == 1
        capsys.readouterr()

    def test_nodes_off_image_synth_exit_1(self, tmp_path, capsys):
        # at 1e8 the rods are far too long to sample: the nodes are checked first
        spec = tmp_path / "scene.txt"
        for spacing in ("0.6", "1e8"):
            spec.write_text(f"spacing_x = {spacing}\nspacing_z = 0.6\n")
            rc = main(["synth", str(spec), "--out", str(tmp_path / "b")])
            err = capsys.readouterr().err
            assert rc == 1
            assert err.startswith("synth: BadParameter: node projects outside the image")
            assert "Traceback" not in err
            assert not (tmp_path / "b").exists()  # the rejected spec leaves no bundle

    def test_scene_too_large_to_sample_synth_exit_1(self, tmp_path, capsys):
        # every node in view from 100 km, but rods 4 km long: 188,495,560
        # surface samples, 4.5 GB per (n, 3) array; none of them is drawn
        spec = tmp_path / "scene.txt"
        spec.write_text(
            "spacing_x = 1000\nspacing_z = 1000\n"
            "grid_pose = 1 0 0 -2000  0 0 1 0  0 -1 0 100000\n"
        )
        argv = ["synth", str(spec), "--out", str(tmp_path / "b")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "synth: BadParameter: scene needs 188495560 surface samples, more than 10000000\n"
        )
        assert not (tmp_path / "b").exists()
        assert peak_bytes(main, argv) < 10**7  # 10 MB: not one array of samples
        capsys.readouterr()

    @pytest.mark.parametrize(
        "text, error",
        [
            ("rows = 3\nspacing_x = nan\n", "line 2: non-finite value for spacing_x: 'nan'"),
            ("layer_gap = inf\n", "line 1: non-finite value for layer_gap: 'inf'"),
            ("grid_pose = 1 0 0 0  0 1 0 0  0 0 1 nan\n", "line 1: non-finite grid_pose"),
            # a negative radius was numpy's negative-dimensions traceback, a
            # zero one rendered no rod, and a negative sigma was ignored
            ("rod_radius = -0.006\n", "line 0: bad scene: rod_radius must be positive"),
            ("rod_radius = 0\n", "line 0: bad scene: rod_radius must be positive"),
            ("noise_sigma = -1\n", "line 0: bad scene: noise_sigma must be >= 0"),
        ],
    )
    def test_non_finite_scene_value_exit_1(self, tmp_path, text, error, capsys):
        spec = tmp_path / "scene.txt"
        spec.write_text(text)
        rc = main(["synth", str(spec), "--out", str(tmp_path / "b")])
        assert rc == 1
        assert capsys.readouterr().err == f"synth: ParseError: {error}\n"
        assert not (tmp_path / "b").exists()

    def test_tie_non_numeric_port_exit_1(self, tmp_path, capsys):
        ties = tmp_path / "ties.txt"
        ties.write_text("0 0 0 1.2\n")
        rc = main([
            "tie", str(ties), "127.0.0.1:abc",
            "--report-out", str(tmp_path / "r.txt"), "--metrics-out", str(tmp_path / "m.txt"),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("tie: ParseError: line 0: server must be host:port")
        assert "Traceback" not in err

    def test_tie_without_listener_exit_2(self, tmp_path, capsys):
        ties = tmp_path / "ties.txt"
        ties.write_text("0 0 0 1.2\n")
        with socket.socket() as probe:  # a port that nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        rc = main([
            "tie", str(ties), f"127.0.0.1:{port}",
            "--report-out", str(tmp_path / "r.txt"), "--metrics-out", str(tmp_path / "m.txt"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"tie: ConnectionLost: cannot connect to 127.0.0.1:{port}")
        assert "Traceback" not in err
        assert not (tmp_path / "r.txt").exists()

    def test_tie_report_path_refused_before_any_move(self, tmp_path, capsys):
        ties = tmp_path / "ties.txt"
        ties.write_text("0 0 0 0.1\n")
        (tmp_path / "f").write_text("a regular file\n")
        log = tmp_path / "sim.log"
        server = SimRobotServer(SimRobotConfig(), port=0, log_path=log).start()
        try:
            rc = main([
                "tie", str(ties), f"127.0.0.1:{server.port}",
                "--report-out", str(tmp_path / "f" / "r.txt"), "--metrics-out", str(tmp_path / "m.txt"),
            ])
        finally:
            server.stop()
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("tie: NotADirectoryError: ")
        assert "MOVE" not in log.read_text()

    def test_tie_dropped_link_writes_the_ties_made(self, tmp_path, monkeypatch, capsys):
        ties = tmp_path / "ties.txt"
        ties.write_text("0 0 0 0.1\n1 5 5 5\n2 0 0 0.2\n3 0 0 0.3\n")
        server = SimRobotServer(SimRobotConfig(), port=0).start()
        sent = []
        send = robot.RobotClient.send

        def send_then_drop(client, cmd):  # the controller goes after 5 commands
            if len(sent) == 5:
                server.stop()
            sent.append(cmd)
            return send(client, cmd)

        monkeypatch.setattr(robot.RobotClient, "send", send_then_drop)
        try:
            rc = main([
                "tie", str(ties), f"127.0.0.1:{server.port}", "--tie-policy", "skip_on_error",
                "--report-out", str(tmp_path / "r.txt"), "--metrics-out", str(tmp_path / "tce.txt"),
            ])
        finally:
            server.stop()
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("tie: ConnectionLost: ")
        assert "Traceback" not in err
        assert (tmp_path / "r.txt").read_text() == (
            "tie 0 ok\ntie 1 fail move 2 UNREACHABLE\ntie 2 ok\nsuccesses 2\nfailures 1\n"
        )
        assert (tmp_path / "tce.txt").read_text() == f"tce_percent={100.0 * 2 / 3!r}\n"

    def test_tie_with_no_targets_writes_no_tce(self, tmp_path, capsys):
        ties = tmp_path / "ties.txt"
        ties.write_text("")
        server = SimRobotServer(SimRobotConfig(), port=0).start()
        try:
            rc = main([
                "tie", str(ties), f"127.0.0.1:{server.port}",
                "--report-out", str(tmp_path / "r.txt"), "--metrics-out", str(tmp_path / "tce.txt"),
            ])
        finally:
            server.stop()
        assert rc == 0
        assert capsys.readouterr().out.startswith("tie: 0/0 succeeded")
        assert (tmp_path / "r.txt").read_text() == "successes 0\nfailures 0\n"
        assert (tmp_path / "tce.txt").read_text() == ""


def test_imports_load_no_scipy():
    # SciPy is most of a subcommand's start-up; only SOR imports it, when a
    # point is left that no pixel window settles, and the threaded stages
    # (block matching, SOR) import concurrent.futures when they run. The
    # package re-exports nothing, so the robot link loads no pipeline stage.
    src = Path(rebartie.__file__).resolve().parents[1]
    own = {
        "rebartie": "['rebartie']",
        "rebartie.cli": None,
        "rebartie.robot": "['rebartie', 'rebartie.errors', 'rebartie.robot']",
    }
    for module, expected in own.items():
        code = (
            f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent'))); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'rebartie'))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        deferred_modules, rebartie_modules = done.stdout.splitlines()
        assert deferred_modules == "[]", module
        if expected is not None:
            assert rebartie_modules == expected, module


# One out-of-range value per config key that has a rule: (key, the
# subcommand that reads it, the value, the rule's message).
BAD_PARAMETERS = [
    ("block_radius", "disparity", "0", "block_radius must be >= 1"),
    ("max_disparity", "disparity", "0", "max_disparity must be >= 1"),
    ("window", "cloud", "4", "window must be odd and >= 3"),
    ("delta", "cloud", "0", "delta must be positive"),
    ("sor_k", "cloud", "0", "k must be >= 1"),
    ("voxel_size", "cloud", "-0.005", "voxel_size must be positive"),
    ("baseline", "cloud", "0", "baseline must be positive"),
    ("image_width", "cloud", "640", "principal point must lie inside the image"),
    ("ransac_iterations", "planes", "0", "iterations must be >= 1"),
    ("ransac_inlier_threshold", "planes", "0", "inlier_threshold must be positive"),
    ("ransac_min_inlier_fraction", "planes", "1.5", "min_inlier_fraction must be in (0, 1]"),
    ("ransac_seed", "planes", "-1", "seed must be >= 0"),
    ("tau", "mask", "0", "tau must be positive"),
    ("dilation_radius", "mask", "-1", "dilation_radius must be >= 0"),
    ("cy", "mask", "-1", "principal point must lie inside the image"),
    ("row_tolerance", "nodes", "0", "row_tolerance must be positive"),
    ("fx", "nodes", "0", "focal lengths must be positive"),
    ("fy", "nodes", "0", "focal lengths must be positive"),
    ("cx", "synth", "5000", "principal point must lie inside the image"),
    ("image_height", "synth", "360", "principal point must lie inside the image"),
    ("tie_policy", "tie", "yolo", "unknown policy 'yolo'"),
    ("sim_radius", "sim-robot", "0", "workspace_radius must be positive"),
    ("sim_failure_rate", "sim-robot", "1.5", "tie_failure_rate must be in [0, 1]"),
    ("match_cutoff", "eval", "0", "cutoff must be positive"),
    ("iou_threshold", "eval", "1.5", "iou_threshold must be in (0, 1)"),
]

# Rules with a second bound, beside the BAD_PARAMETERS row for the same key.
SECOND_BOUNDS = [
    ("fx", "nodes", "0.5", "focal lengths must be at least 1 pixel"),
    ("fy", "nodes", "0.5", "focal lengths must be at least 1 pixel"),
]

# Keys that take any value of their type.
NO_RULE = {"sor_sigma_mult", "sim_center_x", "sim_center_y", "sim_center_z", "sim_seed"}


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The inputs of every subcommand, from one default scene."""
    base = tmp_path_factory.mktemp("walkthrough")
    bundle = base / "bundle"
    files = {
        "bundle": bundle,
        "left": bundle / "left.pgm",
        "cloud": base / "cloud.ply",
        "planes": base / "planes.txt",
        "image": base / "image.ppm",
        "calib": base / "calib.txt",
        "ties": base / "ties.txt",
    }
    calib = CalibrationSet(
        RigidTransform(np.eye(3), np.zeros(3), "camera", "base"),
        RigidTransform(np.eye(3), np.zeros(3), "base", "base"),
    )
    files["calib"].write_text(format_calibration(calib))
    assert main(["synth", "--out", str(bundle)]) == 0
    left = pnm.read_pgm(bundle / "left.pgm")
    pnm.write_ppm(files["image"], np.stack([left] * 3, axis=-1))
    assert main(["cloud", str(bundle / "disparity.txt"), "--out", str(files["cloud"])]) == 0
    assert main(["planes", str(files["cloud"]), "--out", str(files["planes"])]) == 0
    assert main([
        "nodes", str(bundle / "labels.txt"), str(files["planes"]), str(files["calib"]),
        "--out", str(files["ties"]),
    ]) == 0
    return files


def _argv(command, files, out, server_port=None):
    bundle = files["bundle"]
    return {
        "disparity": ["disparity", files["left"], bundle / "right.pgm", "--out", out / "m.txt"],
        "cloud": ["cloud", bundle / "disparity.txt", "--out", out / "c.ply"],
        "planes": ["planes", files["cloud"], "--out", out / "p.txt"],
        "mask": [
            "mask", files["cloud"], files["planes"], files["image"],
            "--mask-out", out / "m.pgm", "--filtered-out", out / "f.ppm",
        ],
        "nodes": [
            "nodes", bundle / "labels.txt", files["planes"], files["calib"], "--out", out / "t.txt",
        ],
        "synth": ["synth", "--out", out / "b"],
        "tie": [
            "tie", files["ties"], f"127.0.0.1:{server_port}",
            "--report-out", out / "r.txt", "--metrics-out", out / "tce.txt",
        ],
        "sim-robot": ["sim-robot", "--port", "0"],
        "eval": ["eval", files["ties"], bundle / "gt_nodes.txt"],
    }[command]


class TestBadParameter:
    def test_table_covers_every_key(self):
        keys = [row[0] for row in BAD_PARAMETERS]
        assert len(keys) == len(set(keys)) == 25
        assert set(keys) | NO_RULE == {f.name for f in fields(PipelineConfig)}
        assert not set(keys) & NO_RULE

    @pytest.mark.parametrize("key, command, value, rule", BAD_PARAMETERS, ids=[r[0] for r in BAD_PARAMETERS])
    def test_out_of_range_flag_exit_1(self, tmp_path, walkthrough, key, command, value, rule, capsys):
        server = None
        if command == "tie":
            server = SimRobotServer(SimRobotConfig(), port=0).start()
        argv = _argv(command, walkthrough, tmp_path, server and server.port)
        if key == "iou_threshold":
            labels = walkthrough["bundle"] / "labels.txt"
            argv = ["eval", "--labels", labels, labels]
        argv = [str(a) for a in argv] + ["--" + key.replace("_", "-"), value]
        try:
            rc = main(argv)
        finally:
            if server is not None:
                server.stop()
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"{command}: BadParameter: {rule}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, command, value, rule", SECOND_BOUNDS, ids=[r[0] for r in SECOND_BOUNDS])
    def test_second_bound_exit_1(self, tmp_path, walkthrough, key, command, value, rule, capsys):
        self.test_out_of_range_flag_exit_1(tmp_path, walkthrough, key, command, value, rule, capsys)

    def test_tie_policy_rejected_before_any_command(self, tmp_path, walkthrough, capsys):
        log = tmp_path / "sim.log"
        server = SimRobotServer(SimRobotConfig(), port=0, log_path=log).start()
        argv = [str(a) for a in _argv("tie", walkthrough, tmp_path, server.port)]
        try:
            assert main(argv + ["--tie-policy", "yolo"]) == 1
        finally:
            server.stop()
        assert log.read_text() == ""
        assert not (tmp_path / "r.txt").exists()
        capsys.readouterr()


CAMERA = {"fx", "fy", "cx", "cy", "image_width", "image_height"}
RIG = CAMERA | {"baseline"}

# The config keys each run reads: (subcommand, mode, keys); nodes and eval
# run once per mode.
READS = [
    ("disparity", None, {"block_radius", "max_disparity"}),
    ("cloud", None, {"window", "delta", "sor_k", "sor_sigma_mult", "voxel_size"} | RIG),
    ("planes", None, {"ransac_iterations", "ransac_inlier_threshold", "ransac_min_inlier_fraction", "ransac_seed"}),
    ("mask", None, {"tau", "dilation_radius"} | CAMERA),
    ("nodes", "plane", {"row_tolerance"} | CAMERA),
    ("nodes", "disparity", {"row_tolerance"} | RIG),
    ("tie", None, {"tie_policy"}),
    ("sim-robot", None, {"sim_center_x", "sim_center_y", "sim_center_z", "sim_radius", "sim_failure_rate", "sim_seed"}),
    ("synth", None, RIG),
    ("eval", "points", {"match_cutoff"}),
    ("eval", "labels", {"iou_threshold"}),
]


def _config_flags():
    """{subcommand: the config keys it has flags for}."""
    keys = {f.name for f in fields(PipelineConfig)}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {a.dest for a in p._actions if a.dest in keys}
        for name, p in sub.choices.items()
    }


class TestFlagsMatchReads:
    """Each subcommand has a flag for exactly the config keys it reads."""

    def _reads(self, monkeypatch, tmp_path, walkthrough, command, mode):
        keys = {f.name for f in fields(PipelineConfig)}
        reads = set()

        class Recording(PipelineConfig):
            def __getattribute__(self, name):
                if name in keys:
                    reads.add(name)
                return super().__getattribute__(name)

        load = cli.load_pipeline_config
        monkeypatch.setattr(cli, "load_pipeline_config", lambda *a: Recording(**asdict(load(*a))))
        bundle = walkthrough["bundle"]
        server = None
        if command == "tie":
            server = SimRobotServer(SimRobotConfig(workspace_center=(0.0, 0.0, 1.2)), port=0).start()
        if command == "sim-robot":  # serve_forever returns at once
            serve = robot.SimRobotServer.serve_forever

            def serve_stopped(sim):
                sim.stop()
                serve(sim)

            monkeypatch.setattr(robot.SimRobotServer, "serve_forever", serve_stopped)
        argv = _argv(command, walkthrough, tmp_path, server and server.port)
        if mode == "disparity":
            argv.remove(walkthrough["planes"])
            argv += ["--disparity", bundle / "disparity.txt"]
        elif mode == "labels":
            argv = ["eval", "--labels", bundle / "labels.txt", bundle / "labels.txt"]
        try:
            assert main([str(a) for a in argv]) == 0
        finally:
            if server is not None:
                server.stop()
        return reads

    @pytest.mark.parametrize(
        "command, mode, expected", READS, ids=[f"{c}-{m}" if m else c for c, m, _ in READS]
    )
    def test_reads_are_flags(self, monkeypatch, tmp_path, walkthrough, command, mode, expected, capsys):
        reads = self._reads(monkeypatch, tmp_path, walkthrough, command, mode)
        capsys.readouterr()
        assert reads == expected
        assert reads <= _config_flags()[command]

    def test_flags_are_the_union_of_reads(self):
        flags = _config_flags()
        reads = {}
        for command, _, expected in READS:
            reads.setdefault(command, set()).update(expected)
        assert flags == reads
        assert sum(len(v) for v in flags.values()) == 50
        assert len(fields(PipelineConfig)) == 30

    def test_readme_table_lists_the_flags(self):
        # a row's parenthesised remark names flags that set no config key
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        groups = {"camera flags": CAMERA_KEYS, "rig flags": RIG_KEYS}
        table = {}
        for command, cell in re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", readme, re.M):
            cell = re.sub(r"\(.*?\)", "", cell)
            table[command] = {flag[2:].replace("-", "_") for flag in re.findall(r"--[a-z-]+", cell)}
            for group, keys in groups.items():
                if group in cell:
                    table[command].update(keys)
        assert table == _config_flags()


PLANES = "normal 0 0 1\noffset_near 1.19\noffset_far 1.21\nframe camera\n"
PLY_HEADER = (
    "ply\nformat ascii 1.0\nelement vertex 2\n"
    "property float x\nproperty float y\nproperty float z\nend_header\n"
)
CALIB = "T_base_cam\n1 0 0 0\n0 1 0 0\n0 0 1 0\nbias\n1 0 0 0\n0 1 0 0\n0 0 1 0\n"

# One rejected input file per row: (id, the subcommand, the file it reads
# in place of the walkthrough's, the file's text, the error line).
BAD_INPUTS = [
    ("nan-offset", "nodes", "planes", PLANES.replace("1.19", "nan"),
     "nodes: ParseError: line 2: non-finite offset_near"),
    ("non-numeric-offset", "nodes", "planes", PLANES.replace("1.19", "abc"),
     "nodes: ParseError: line 2: non-numeric offset_near"),
    ("nan-normal", "mask", "planes", PLANES.replace("0 0 1", "0 nan 1"),
     "mask: ParseError: line 1: non-finite normal"),
    ("inf-offset", "mask", "planes", PLANES.replace("1.21", "inf"),
     "mask: ParseError: line 3: non-finite offset_far"),
    ("frame-base", "nodes", "planes", PLANES.replace("camera", "base"),
     "nodes: ParseError: line 4: frame must be camera"),
    ("nan-rotation", "nodes", "calib", CALIB.replace("0 1 0 0", "0 nan 0 0", 1),
     "nodes: ParseError: line 3: non-finite T_base_cam value"),
    ("nan-translation", "nodes", "calib", CALIB.replace("0 0 1 0", "0 0 1 nan", 1),
     "nodes: ParseError: line 4: non-finite T_base_cam value"),
    ("nan-tie", "tie", "ties", "0 0 0 1.2\n1 nan 0 1.2\n",
     "tie: ParseError: line 2: non-finite coordinate"),
    ("nan-vertex", "planes", "cloud", PLY_HEADER + "nan nan nan\n0 0 1\n",
     "planes: ParseError: line 8: non-finite coordinate"),
    ("nan-prediction", "eval", "ties", "0 0 0 1.2\n1 0 nan 1.2\n",
     "eval: ParseError: line 2: non-finite coordinate"),
    ("word-index-tie", "tie", "ties", "abc 0.1 0.2 1.2\n",
     "tie: ParseError: line 1: non-numeric field"),
    ("word-index-prediction", "eval", "ties", "abc 0.1 0.2 1.2\n",
     "eval: ParseError: line 1: non-numeric field"),
    ("fractional-index-tie", "tie", "ties", "1.5 0.1 0.2 1.2\n",
     "tie: ParseError: line 1: non-numeric field"),
    ("fractional-index-prediction", "eval", "ties", "1.5 0.1 0.2 1.2\n",
     "eval: ParseError: line 1: non-numeric field"),
    ("five-field-tie", "tie", "ties", "0 0.1 0.2 1.2 7\n",
     "tie: ParseError: line 1: expected 4 fields, got 5"),
    ("five-field-prediction", "eval", "ties", "0 0.1 0.2 1.2 7\n",
     "eval: ParseError: line 1: expected 3 or 4 fields, got 5"),
    ("two-offsets", "nodes", "planes", PLANES.replace("1.19", "1 2"),
     "nodes: ParseError: line 2: offset_near needs 1 value, got 2"),
    ("word-after-offset", "nodes", "planes", PLANES.replace("1.21", "2 banana"),
     "nodes: ParseError: line 3: offset_far needs 1 value, got 2"),
    ("two-component-normal", "mask", "planes", PLANES.replace("0 0 1", "0 1"),
     "mask: ParseError: line 1: normal needs 3 values, got 2"),
    ("two-token-frame", "nodes", "planes", PLANES.replace("camera", "camera base"),
     "nodes: ParseError: line 4: frame needs 1 value, got 2"),
    ("junk-plane-line", "nodes", "planes", PLANES + "junk line here\n",
     "nodes: ParseError: line 5: unexpected 'junk' line"),
    ("repeated-offset", "mask", "planes", PLANES + "offset_near 1.2\n",
     "mask: ParseError: line 5: unexpected 'offset_near' line"),
    ("line-after-bias", "nodes", "calib", CALIB + "\n1 0 0 0\n",
     "nodes: ParseError: line 10: unexpected line after the bias rows"),
    ("word-in-bias", "nodes", "calib", CALIB[:-2] + "x\n",
     "nodes: ParseError: line 8: non-numeric bias value"),
    ("truncated-pgm", "disparity", "left", "P5\n10 10\n255\nabc",
     "disparity: ParseError: line 1: truncated pixel data"),
    ("negative-ppm", "mask", "image", "P6\n-1 -1\n255\n",
     "mask: ParseError: line 1: negative dimensions -1 x -1"),
]


@pytest.mark.parametrize("command, key, text, error", [r[1:] for r in BAD_INPUTS], ids=[r[0] for r in BAD_INPUTS])
def test_bad_input_file_exit_1(tmp_path, walkthrough, command, key, text, error, capsys):
    files = dict(walkthrough)
    files[key] = tmp_path / "input.txt"
    files[key].write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    # tie reads its file before it connects, so no server is started
    rc = main([str(a) for a in _argv(command, files, out, server_port=9)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == error + "\n"
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


def _names_its_subcommand(err, command):
    """err ends in `<command>: <ErrorType>: ...` and holds no traceback."""
    last = err.splitlines()[-1] if err else ""
    return re.match(rf"{re.escape(command)}: [A-Za-z]+: ", last) is not None and "Traceback" not in err


def _failing_argv(case, tmp_path, files, port_in_use):
    """The argv of one failing run of the failure matrix, with the inputs it
    reads written to tmp_path."""
    rng = np.random.default_rng(0)
    flat = rng.uniform(-0.3, 0.3, (500, 3))
    flat[:, 2] = 1.0  # every point on z = 1: offsets along its normal all equal
    write_ply(tmp_path / "flat.ply", PointCloud(flat))
    pnm.write_ppm(tmp_path / "small.ppm", np.zeros((10, 10, 3), dtype=np.uint8))
    write_disparity(tmp_path / "small.txt", np.full((2, 3), 5.0))
    (tmp_path / "behind.txt").write_text("grid_pose = 1 0 0 0  0 1 0 0  0 0 1 -1.2\n")
    (tmp_path / "file").write_text("")
    under = tmp_path / "file" / "x"  # its parent is a regular file
    return {
        "cloud-out-under-a-file": ["cloud", files["bundle"] / "disparity.txt", "--out", under],
        "synth-out-under-a-file": ["synth", "--out", under],
        "planes-input-under-a-file": ["planes", under, "--out", tmp_path / "p.txt"],
        "synth-out-is-a-file": ["synth", "--out", under.parent],
        "sim-robot-port-in-use": ["sim-robot", "--port", port_in_use],
        "sim-robot-port-70000": ["sim-robot", "--port", "70000"],
        "sim-robot-port-minus-1": ["sim-robot", "--port", "-1"],
        "mask-wrong-size-image": [
            "mask", files["cloud"], files["planes"], tmp_path / "small.ppm",
            "--mask-out", tmp_path / "m.pgm", "--filtered-out", tmp_path / "f.ppm",
        ],
        "nodes-wrong-size-disparity": [
            "nodes", files["bundle"] / "labels.txt", files["calib"], "--out", tmp_path / "t.txt",
            "--disparity", tmp_path / "small.txt",
        ],
        "synth-behind-camera": ["synth", tmp_path / "behind.txt", "--out", tmp_path / "b"],
        "planes-flat-cloud": ["planes", tmp_path / "flat.ply", "--out", tmp_path / "p.txt"],
    }[case]


# One failing run per row: (id, the exit code, the error type).
FAILURES = [
    ("cloud-out-under-a-file", 1, "NotADirectoryError"),
    ("synth-out-under-a-file", 1, "NotADirectoryError"),
    ("planes-input-under-a-file", 1, "NotADirectoryError"),
    ("synth-out-is-a-file", 1, "FileExistsError"),
    ("sim-robot-port-in-use", 1, "OSError"),
    ("sim-robot-port-70000", 1, "ParseError"),
    ("sim-robot-port-minus-1", 1, "ParseError"),
    ("mask-wrong-size-image", 2, "SizeMismatch"),
    ("nodes-wrong-size-disparity", 2, "SizeMismatch"),
    ("synth-behind-camera", 2, "BehindCamera"),
    ("planes-flat-cloud", 2, "LayersTooClose"),
]


class TestFailureMatrix:
    """A failing run prints one line, `<subcommand>: <ErrorType>: ...`, and
    exits 1 for an input or OS error, 2 for a pipeline error."""

    @pytest.mark.parametrize("case, code, error", FAILURES, ids=[r[0] for r in FAILURES])
    def test_names_the_subcommand(self, tmp_path, walkthrough, monkeypatch, case, code, error, capsys):
        def serve_forever(server):
            raise AssertionError(f"sim-robot served on port {server.port}")

        monkeypatch.setattr(robot.SimRobotServer, "serve_forever", serve_forever)
        with socket.socket() as probe:  # a port that a socket listens on
            probe.bind(("127.0.0.1", 0))
            probe.listen(1)
            argv = _failing_argv(case, tmp_path, walkthrough, probe.getsockname()[1])
            rc = main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert rc == code
        assert err.splitlines()[-1].startswith(f"{argv[0]}: {error}: ")
        assert _names_its_subcommand(err, argv[0])

    def test_sim_robot_prints_the_port_it_bound(self, monkeypatch, capsys):
        bound = []

        def serve_stopped(server):  # serve_forever returns at once
            bound.append(server.port)
            server.stop()
            serve(server)

        serve = robot.SimRobotServer.serve_forever
        monkeypatch.setattr(robot.SimRobotServer, "serve_forever", serve_stopped)
        assert main(["sim-robot", "--port", "0"]) == 0
        assert bound[0] != 0
        assert capsys.readouterr().out == f"sim-robot: listening on port {bound[0]}, serving until QUIT\n"


# The byte a mutant puts in, half the time: bytes that numbers, separators
# and keys are made of, and bytes that are not UTF-8. Otherwise any byte.
MUTATION_BYTES = b"0123456789-+.eEn \t\r\n#=\x00\x80\xc3\xff"

# A 32 x 24 camera that sees the default scene: every run takes milliseconds.
SMALL_CAMERA = ["--fx", "20", "--fy", "20", "--cx", "16", "--cy", "12",
                "--image-width", "32", "--image-height", "24"]


def _mutants(data, rng, count=30):
    """count seeded mutants of data: truncated at a byte, one byte replaced
    or one byte inserted."""
    for _ in range(count):
        kind = rng.choice(("truncate", "replace", "insert"))
        pos = rng.randrange(len(data))
        if kind == "truncate":
            yield data[:pos]
        else:
            byte = rng.choice(MUTATION_BYTES) if rng.random() < 0.5 else rng.randrange(256)
            yield data[:pos] + bytes([byte]) + data[pos + (kind == "replace") :]


def _mutation_inputs(d):
    """Each input format's valid file in d and the argv that reads it; the
    tie-point file has none: tie needs a controller, so its reader is called."""
    rng = np.random.default_rng(5)
    left = rng.integers(0, 256, (24, 32), dtype=np.uint8)
    pnm.write_pgm(d / "left.pgm", left)
    pnm.write_pgm(d / "right.pgm", np.roll(left, -3, axis=1))
    pnm.write_ppm(d / "image.ppm", np.stack([left] * 3, axis=-1))
    write_disparity(d / "disparity.txt", rng.uniform(5.0, 6.0, (24, 32)))
    # two 20 mm-apart layers that project inside the small camera
    pts = np.column_stack([rng.uniform(-0.3, 0.3, (200, 2)), np.repeat([1.19, 1.21], 100)])
    write_ply(d / "binary.ply", PointCloud(pts))
    (d / "ascii.ply").write_text(
        PLY_HEADER.replace("vertex 2", "vertex 200")
        + "".join(f"{x:.6g} {y:.6g} {z:.6g}\n" for x, y, z in pts)
    )
    (d / "planes.txt").write_text(PLANES)
    (d / "calib.txt").write_text(CALIB)
    (d / "labels.txt").write_text("0 0.5 0.5 0.05 0.05\n0 0.3 0.6 0.05 0.05 0.9\n")
    (d / "ties.txt").write_text("0 0 0 1.2\n1 0.2 0 1.2\n")
    (d / "gt.txt").write_text("0 0 1.2\n0.2 0.001 1.2\n")
    scene.write_grid_spec(d / "scene.txt", scene.GridSpec())
    (d / "config.txt").write_text("match_cutoff = 0.05\niou_threshold = 0.5\ntie_policy = abort_on_error\n")
    planes = ["planes", "--out", d / "p.txt", "--ransac-iterations", "20"]
    nodes = ["nodes", d / "labels.txt", d / "planes.txt", d / "calib.txt", "--out", d / "t.txt", *SMALL_CAMERA]
    return {
        "pgm": ("left.pgm", ["disparity", d / "left.pgm", d / "right.pgm", "--out", d / "m.txt",
                             "--max-disparity", "8"]),
        "ppm": ("image.ppm", ["mask", d / "binary.ply", d / "planes.txt", d / "image.ppm",
                              "--mask-out", d / "m.pgm", "--filtered-out", d / "f.ppm", *SMALL_CAMERA]),
        "disparity": ("disparity.txt", ["cloud", d / "disparity.txt", "--out", d / "c.ply", *SMALL_CAMERA]),
        "binary-ply": ("binary.ply", [*planes, d / "binary.ply"]),
        "ascii-ply": ("ascii.ply", [*planes, d / "ascii.ply"]),
        "planes": ("planes.txt", nodes),
        "calibration": ("calib.txt", nodes),
        "labels": ("labels.txt", nodes),
        "ties": ("ties.txt", None),
        "gt-points": ("gt.txt", ["eval", d / "ties.txt", d / "gt.txt"]),
        "scene": ("scene.txt", ["synth", d / "scene.txt", "--out", d / "b", *SMALL_CAMERA]),
        "config": ("config.txt", ["eval", d / "ties.txt", d / "gt.txt", "--config", d / "config.txt"]),
    }


MUTATION_FORMATS = ["pgm", "ppm", "disparity", "binary-ply", "ascii-ply", "planes",
                    "calibration", "labels", "ties", "gt-points", "scene", "config"]


@pytest.mark.parametrize("fmt", MUTATION_FORMATS)
def test_mutated_input_ends_in_an_exit_code(tmp_path, fmt, capsys):
    # Seeded one-byte mutants of a valid file, each read by the subcommand
    # that reads the format: main returns 0, 1 or 2 and raises nothing, and
    # a failing run ends in the one error line that names the subcommand.
    name, argv = _mutation_inputs(tmp_path)[fmt]
    path = tmp_path / name
    original = path.read_bytes()

    def run():
        if argv is None:
            try:
                read_tie_points(path)
            except INPUT_ERRORS:
                return 1
            return 0
        return main([str(a) for a in argv])

    assert run() == 0  # the unmutated file
    capsys.readouterr()
    faults = []
    for mutant in _mutants(original, random.Random(fmt)):
        path.write_bytes(mutant)
        try:
            rc = run()
        except Exception as e:
            faults.append((mutant, repr(e)))
            continue
        err = capsys.readouterr().err
        if rc not in (0, 1, 2):
            faults.append((mutant, rc))
        elif rc and argv is not None and not _names_its_subcommand(err, argv[0]):
            faults.append((mutant, err))
    assert faults == []


def test_huge_normal_reads_as_its_unit_normal(tmp_path, walkthrough, capsys):
    # every number of the planes file times 1e200: the same planes
    lines = []
    for line in walkthrough["planes"].read_text().splitlines():
        key, *values = line.split()
        if key != "frame":
            values = [repr(float(v) * 1e200) for v in values]
        lines.append(" ".join([key, *values]) + "\n")
    files = dict(walkthrough, planes=tmp_path / "huge.txt")
    files["planes"].write_text("".join(lines))
    assert main([str(a) for a in _argv("nodes", files, tmp_path)]) == 0
    capsys.readouterr()
    got = read_tie_points(tmp_path / "t.txt")
    want = read_tie_points(walkthrough["ties"])
    assert [t.sequence_index for t in got] == [t.sequence_index for t in want]
    assert np.allclose([t.position for t in got], [t.position for t in want], rtol=0, atol=1e-12)


def test_voxel_too_small_for_the_cloud_exit_1(tmp_path, walkthrough, capsys):
    # floor(coordinate / voxel_size) no longer fits the int64 voxel keys
    out = tmp_path / "c.ply"
    rc = main([
        "cloud", str(walkthrough["bundle"] / "disparity.txt"), "--out", str(out),
        "--voxel-size", "1e-30",
    ])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (
        "cloud: BadParameter: voxel_size too small: coordinate / voxel_size must fit in int64\n"
    )
    assert "Traceback" not in err
    assert not out.exists()


def test_rendered_walkthrough_loads_no_scipy(tmp_path, identity_calib_file):
    # the default scene from synth to eval through cli.main in one fresh
    # interpreter: the max filters are numpy's, and the pixel windows settle
    # every point of the rendered cloud, so SOR builds no kd-tree
    steps = [
        ["synth", "--out", "bundle"],
        ["cloud", "bundle/disparity.txt", "--out", "cloud.ply"],
        ["planes", "cloud.ply", "--out", "planes.txt"],
        ["mask", "cloud.ply", "planes.txt", "image.ppm",
         "--mask-out", "mask.pgm", "--filtered-out", "filtered.ppm"],
        ["nodes", "bundle/labels.txt", "planes.txt", str(identity_calib_file), "--out", "ties.txt"],
        ["eval", "ties.txt", "bundle/gt_nodes.txt", "--out", "metrics.txt"],
    ]
    code = (
        "import sys, numpy as np; from rebartie import cli, pnm; "
        f"steps = {steps!r}; "
        "assert cli.main(steps[0]) == 0; "
        "left = pnm.read_pgm('bundle/left.pgm'); "
        "pnm.write_ppm('image.ppm', np.stack([left] * 3, axis=-1)); "
        "assert all(cli.main(argv) == 0 for argv in steps[1:]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = Path(rebartie.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert "matched=" in (tmp_path / "metrics.txt").read_text()


class TestCloudPeakAllocation:
    """`cloud` on the default scene's stereo-matched map holds no whole-cloud
    temporaries beyond the ones its back-projection needs."""

    def test_below_two_maps_and_one_cloud(self, tmp_path, walkthrough):
        import scipy.ndimage, scipy.spatial  # noqa: E401,F401  imported outside the trace

        bundle = walkthrough["bundle"]
        matched = tmp_path / "matched.txt"
        assert main(["disparity", str(bundle / "left.pgm"), str(bundle / "right.pgm"),
                     "--out", str(matched)]) == 0
        cfg = PipelineConfig()
        disp = read_disparity(matched)
        n = len(disparity_to_cloud(cfg.rig(), window_disparity_filter(disp, cfg.window, cfg.delta)))
        assert n > 500_000  # the background is matched too
        # two maps while the window filter runs, then one map and the cloud
        # while it is built: per point 24 bytes of coordinates, 16 of
        # provenance, 16 of pixel indices and 8 of gathered disparities.
        # SOR's tree and the voxel keys come after the map is freed and the
        # provenance dropped.
        bound = 2 * disp.nbytes + 64 * n
        argv = ["cloud", str(matched), "--out", str(tmp_path / "c.ply")]
        assert peak_bytes(main, argv) < bound


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

    def test_bad_file_value_names_its_line(self, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("# tuned\nvoxel_size = 0.01\n\nsor_k = eight\n")
        with pytest.raises(ParseError) as exc:
            load_pipeline_config(cfg_file)
        assert str(exc.value) == "line 4: bad value for sor_k: 'eight'"
        cfg_file.write_text("voxel_size = 0.01\nnot_a_key = 3\n")
        with pytest.raises(ParseError) as exc:
            load_pipeline_config(cfg_file)
        assert exc.value.line == 2

    def test_bad_flag_value_is_line_0(self, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("sor_k = 8\n")
        with pytest.raises(ParseError) as exc:
            load_pipeline_config(cfg_file, {"sor_k": "eight"})
        assert exc.value.line == 0

    @pytest.mark.parametrize("key", ["box_size", "sim_tolerance", "node_depth_source"])
    def test_removed_keys_rejected(self, tmp_path, key, capsys):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(f"{key} = 0.05\n")
        with pytest.raises(ParseError, match=f"line 1: unknown config key '{key}'"):
            load_pipeline_config(cfg_file)
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "b"), "--" + key.replace("_", "-"), "0.05"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_ranges_are_checked_by_the_stage(self):
        cfg = PipelineConfig(window=4)
        with pytest.raises(BadParameter, match="window must be odd") as exc:
            window_disparity_filter(np.zeros((8, 8)), cfg.window, cfg.delta)
        assert isinstance(exc.value, ValueError)

    def test_flag_not_read_is_a_usage_error(self, tmp_path, bundle, capsys):
        # cloud does not read tau, so it has no --tau flag
        argv = ["cloud", str(bundle / "disparity.txt"), "--out", str(tmp_path / "c.ply")]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tau", "0"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --tau 0\n")
        assert not (tmp_path / "c.ply").exists()
        # a config file may still hold it
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("tau = 0\n")
        assert main(argv + ["--config", str(cfg_file)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_file_value_names_its_line(self, tmp_path, value):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(f"sor_k = 8\nvoxel_size = {value}\n")
        with pytest.raises(ParseError) as exc:
            load_pipeline_config(cfg_file)
        assert str(exc.value) == f"line 2: non-finite value for voxel_size: {value!r}"

    def test_non_finite_flag_value_is_line_0(self, tmp_path, bundle, capsys):
        with pytest.raises(ParseError, match="line 0: non-finite value for row_tolerance"):
            load_pipeline_config(None, {"row_tolerance": "nan"})
        rc = main([
            "cloud", str(bundle / "disparity.txt"), "--out", str(tmp_path / "c.ply"),
            "--voxel-size", "nan",
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "cloud: ParseError: line 0: non-finite value for voxel_size: 'nan'\n"
        )
        assert not (tmp_path / "c.ply").exists()

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


class TestParserReuse:
    """main builds its parser once per process: a call must not see the
    flags of an earlier call, nor its usage error."""

    def test_later_call_writes_what_a_fresh_process_writes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # the help text's width, here and in the child
        # two noisy layers, on which RANSAC's seed changes the fit
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.5, 0.5, (600, 3))
        pts[300:, 1] = 0.05
        pts[:, 1] += rng.normal(0, 0.004, 600)
        pts[:, 2] += 2.0 + pts[:, 1]
        cloud = tmp_path / "cloud.ply"
        write_ply(cloud, PointCloud(pts))
        seeded, reused, fresh = (tmp_path / f"{name}.txt" for name in ("seeded", "reused", "fresh"))

        assert main(["planes", str(cloud), "--out", str(seeded), "--ransac-seed", "7"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["planes", str(cloud), "--out", str(reused), "--ransac-seed"])
        assert exc.value.code == 1
        assert main(["planes", str(cloud), "--out", str(reused)]) == 0
        capsys.readouterr()
        helps = []
        for argv in (["--help"], ["planes", "--help"]):
            with pytest.raises(SystemExit):
                main(argv)
            helps.append(capsys.readouterr().out)

        def child(*argv):
            src = Path(rebartie.__file__).resolve().parents[1]
            done = subprocess.run(
                [sys.executable, "-m", "rebartie.cli", *argv],
                cwd=src, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr
            return done.stdout

        child("planes", str(cloud), "--out", str(fresh))
        assert reused.read_bytes() == fresh.read_bytes()
        assert seeded.read_bytes() != fresh.read_bytes()
        assert [child("--help"), child("planes", "--help")] == helps


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
