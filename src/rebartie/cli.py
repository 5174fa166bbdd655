"""Batch orchestrator: every pipeline stage as a subcommand.

Exit codes: 0 success, 1 input error (bad arguments, unreadable or
malformed files), 2 pipeline error (no plane consensus, layers too close,
and friends). Error messages are prefixed with the owning stage, or, for an
input error, with the subcommand that read the bad input.
"""

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import cloud as cloudmod
from . import frames as framesmod
from . import masking, metrics, nodes, pnm, robot, scene, stereo
from . import planes as planesmod
from .config import PipelineConfig, load_pipeline_config
from .errors import INPUT_ERRORS, ParseError, RebarTieError
from .geometry import backproject


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; here 2 means pipeline error, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser):
    parser.add_argument("--config", help="key=value config file")
    for f in fields(PipelineConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, default=None, metavar="V")


def _config_from_args(args):
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(PipelineConfig)
        if getattr(args, f.name, None) is not None
    }
    return load_pipeline_config(args.config, overrides)


def _cmd_disparity(args):
    cfg = _config_from_args(args)
    left = pnm.read_pgm(args.left)
    right = pnm.read_pgm(args.right)
    disp = stereo.block_match_disparity(
        left, right, cfg.block_radius, cfg.max_disparity
    )
    stereo.write_disparity(args.out, disp)
    valid = int(np.count_nonzero(disp >= 0))
    total = disp.size
    print(
        f"disparity: {disp.shape[1]}x{disp.shape[0]}, "
        f"{valid} valid pixels ({100.0 * valid / total:.1f}%) -> {args.out}"
    )
    return 0


def _cmd_cloud(args):
    cfg = _config_from_args(args)
    disp = stereo.read_disparity(args.disparity)
    filtered = stereo.window_disparity_filter(disp, cfg.window, cfg.delta)
    pc = stereo.disparity_to_cloud(cfg.rig(), filtered)
    pc = cloudmod.statistical_outlier_removal(pc, cfg.sor_k, cfg.sor_sigma_mult)
    pc = cloudmod.voxel_downsample(pc, cfg.voxel_size)
    cloudmod.write_ply(args.out, pc)
    print(f"cloud: {len(pc)} points after window/SOR/voxel -> {args.out}")
    return 0


def _cmd_planes(args):
    cfg = _config_from_args(args)
    pc = cloudmod.read_ply(args.cloud)
    params = planesmod.RansacParams(
        iterations=cfg.ransac_iterations,
        inlier_threshold=cfg.ransac_inlier_threshold,
        min_inlier_fraction=cfg.ransac_min_inlier_fraction,
        seed=cfg.ransac_seed,
    )
    pair = planesmod.detect_parallel_planes(pc, params)
    planesmod.write_plane_pair(args.out, pair, frame=pc.frame)
    n = pair.normal
    print(
        f"planes: normal ({n[0]:.4f}, {n[1]:.4f}, {n[2]:.4f}), "
        f"offsets near {pair.offset_near:.4f} far {pair.offset_far:.4f}, "
        f"inliers {pair.inlier_counts} -> {args.out}"
    )
    return 0


def _cmd_mask(args):
    cfg = _config_from_args(args)
    pc = cloudmod.read_ply(args.cloud)
    pair, _frame = planesmod.read_plane_pair(args.planes)
    image = pnm.read_ppm(args.image)
    cam = cfg.camera()
    near = pair.near_plane()
    selected = masking.select_near_plane(pc, near, cfg.tau)
    selected = masking.attach_projected_provenance(selected, cam)
    mask = masking.rasterize_mask(selected, cam.width, cam.height, cfg.dilation_radius)
    filtered = masking.apply_mask(image, mask)
    masking.write_mask(args.mask_out, mask)
    pnm.write_ppm(args.filtered_out, filtered)
    print(
        f"mask: {int(mask.sum())} pixels set from {len(selected)} points "
        f"-> {args.mask_out}, {args.filtered_out}"
    )
    return 0


def _cmd_nodes(args):
    cfg = _config_from_args(args)
    boxes = nodes.parse_yolo_labels(Path(args.labels).read_text())
    calib = framesmod.read_calibration_file(args.calibration)
    cam = cfg.camera()
    if cfg.node_depth_source == "disparity":
        if args.disparity is None:
            raise ParseError(0, "node_depth_source=disparity needs --disparity")
        observations, diags = _locate_from_disparity(args, cfg, boxes, cam)
    else:
        pair, _frame = planesmod.read_plane_pair(args.planes)
        observations, diags = nodes.locate_nodes(boxes, cam, pair.mid_plane())
    for d in diags:
        print(f"nodes: skipped {d}", file=sys.stderr)
    cam_points = np.array([o.camera_point for o in observations]).reshape(-1, 3)
    base_points = framesmod.camera_to_base(calib, cam_points)
    base_points = framesmod.apply_tool_bias(calib, base_points)
    ties = framesmod.sequence_ties(base_points, cfg.row_tolerance, sources=observations)
    framesmod.write_tie_points(args.out, ties)
    print(f"nodes: {len(ties)} tie points ({len(diags)} skipped) -> {args.out}")
    return 0


def _locate_from_disparity(args, cfg, boxes, cam):
    disp = stereo.read_disparity(args.disparity)
    rig = cfg.rig()
    observations = []
    diags = []
    for i, box in enumerate(boxes):
        u, v = nodes.box_to_node_pixel(box, cam.width, cam.height)
        ui, vi = int(round(u)), int(round(v))
        d = disp[vi, ui] if 0 <= vi < cam.height and 0 <= ui < cam.width else -1.0
        if d <= 0:
            diags.append(f"box {i}: no valid disparity at node pixel")
            continue
        z = stereo.disparity_to_depth(rig, d)
        observations.append(
            nodes.NodeObservation((u, v), backproject(cam, u, v, z), box)
        )
    return observations, diags


def _cmd_tie(args):
    cfg = _config_from_args(args)
    ties = framesmod.read_tie_points(args.ties)
    host, _, port = args.server.partition(":")
    if not port:
        raise ParseError(0, "server must be host:port")
    client = robot.RobotClient(host, int(port))
    try:
        report = robot.execute_sequence(ties, client, policy=cfg.tie_policy)
    finally:
        client.close()
    _write_report(args.report_out, report)
    rm = metrics.RunMetrics(
        tce_percent=metrics.compute_tce(report.successes, report.attempted)
        if report.attempted
        else None
    )
    metrics.write_metrics(args.metrics_out, rm)
    print(
        f"tie: {report.successes}/{report.attempted} succeeded "
        f"-> {args.report_out}, {args.metrics_out}"
    )
    return 0


def _write_report(path, report):
    with open(path, "w") as f:
        for o in report.outcomes:
            if o.success:
                f.write(f"tie {o.sequence_index} ok\n")
            else:
                f.write(
                    f"tie {o.sequence_index} fail {o.stage} {o.code} {o.message}\n"
                )
        f.write(f"successes {report.successes}\n")
        f.write(f"failures {report.failures}\n")


def _cmd_sim_robot(args):
    cfg = _config_from_args(args)
    sim = robot.SimRobotConfig(
        workspace_center=(cfg.sim_center_x, cfg.sim_center_y, cfg.sim_center_z),
        workspace_radius=cfg.sim_radius,
        tie_failure_rate=cfg.sim_failure_rate,
        seed=cfg.sim_seed,
    )
    print(f"sim-robot: listening on port {args.port}, serving until QUIT")
    robot.run_sim_server(sim, port=args.port, log_path=args.log_file)
    return 0


def _cmd_synth(args):
    cfg = _config_from_args(args)
    spec = scene.read_grid_spec(args.scene_spec) if args.scene_spec else scene.GridSpec()
    rig = cfg.rig()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pc, truth = scene.generate_grid_cloud(spec, rig)
    disparity = scene.render_disparity(spec, rig)
    cloudmod.write_ply(out / "cloud.ply", pc)
    stereo.write_disparity(out / "disparity.txt", disparity)
    left, right = scene.synth_stereo_pair(spec, disparity)
    pnm.write_pgm(out / "left.pgm", left)
    pnm.write_pgm(out / "right.pgm", right)
    with open(out / "labels.txt", "w") as f:
        f.write(nodes.write_yolo_labels(truth.labels))
    with open(out / "gt_nodes.txt", "w") as f:
        for x, y, z in truth.nodes:
            f.write(f"{x:.9g} {y:.9g} {z:.9g}\n")
    planesmod.write_plane_pair(out / "planes.txt", truth.planes, frame="camera")
    scene.write_grid_spec(out / "scene.txt", spec)
    print(f"synth: {truth.nodes.shape[0]} ground-truth nodes -> {out}/")
    return 0


def _read_points_file(path):
    pts = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) == 4:
                parts = parts[1:]  # tie-point file: index x y z
            if len(parts) != 3:
                raise ParseError(lineno, f"expected 3 or 4 fields, got {len(parts)}")
            try:
                pts.append([float(v) for v in parts])
            except ValueError:
                raise ParseError(lineno, "non-numeric coordinate") from None
    return np.array(pts).reshape(-1, 3)


def _cmd_eval(args):
    cfg = _config_from_args(args)
    if args.labels:
        pred = nodes.parse_yolo_labels(Path(args.predicted).read_text())
        gt = nodes.parse_yolo_labels(Path(args.ground_truth).read_text())
        acc = metrics.detection_accuracy(pred, gt, cfg.iou_threshold)
        print(f"eval: detection accuracy {acc:.4f} at IoU {cfg.iou_threshold}")
        if args.out:
            with open(args.out, "w") as f:
                f.write(f"detection_accuracy={acc!r}\n")
        return 0
    pred = _read_points_file(args.predicted)
    gt = _read_points_file(args.ground_truth)
    rm = metrics.node_metrics(pred, gt, cfg.match_cutoff)
    if args.out:
        metrics.write_metrics(args.out, rm)
    sai = "n/a" if rm.sai_mm is None else f"{rm.sai_mm:.3f} mm"
    print(
        f"eval: matched {rm.matched}, SAI {sai}, "
        f"unmatched pred {rm.unmatched_predictions} / gt {rm.unmatched_ground_truth}"
    )
    return 0


def build_parser():
    parser = _Parser(prog="rebartie", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disparity", help="block-match a rectified stereo pair")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_disparity)

    p = sub.add_parser("cloud", help="disparity -> filtered point cloud (PLY)")
    p.add_argument("disparity")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_cloud)

    p = sub.add_parser("planes", help="detect the two parallel rebar planes")
    p.add_argument("cloud")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_planes)

    p = sub.add_parser("mask", help="plane mask + background-filtered image")
    p.add_argument("cloud")
    p.add_argument("planes")
    p.add_argument("image")
    p.add_argument("--mask-out", required=True)
    p.add_argument("--filtered-out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("nodes", help="labels -> sequenced base-frame tie points")
    p.add_argument("labels")
    p.add_argument("planes")
    p.add_argument("calibration")
    p.add_argument("--out", required=True)
    p.add_argument("--disparity", help="disparity file for node_depth_source=disparity")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_nodes)

    p = sub.add_parser("tie", help="dispatch a tie sequence to a controller")
    p.add_argument("ties")
    p.add_argument("server", help="host:port")
    p.add_argument("--report-out", required=True)
    p.add_argument("--metrics-out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_tie)

    p = sub.add_parser("sim-robot", help="run the simulated controller server")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--log-file")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_sim_robot)

    p = sub.add_parser("synth", help="generate a synthetic scene bundle")
    p.add_argument("scene_spec", nargs="?", help="scene key=value file (default scene if omitted)")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("predicted")
    p.add_argument("ground_truth")
    p.add_argument("--out")
    p.add_argument("--labels", action="store_true", help="inputs are YOLO label files")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as e:
        print(f"{args.command}: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except (FileNotFoundError, IsADirectoryError) as e:
        print(f"input: {e}", file=sys.stderr)
        return 1
    except RebarTieError as e:
        print(f"{e.module}: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
