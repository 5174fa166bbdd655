"""Batch orchestrator: every pipeline stage as a subcommand.

Exit codes: 0 success, 1 input error (bad arguments, malformed files, or
any OSError: a file that cannot be read or written, a port in use), 2
pipeline error (no plane consensus, layers too close, and friends). Every
error prints one line, `<subcommand>: <ErrorType>: <message>`, naming the
subcommand that hit it.
"""

import argparse
import functools
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import cloud as cloudmod
from . import frames as framesmod
from . import masking, metrics, nodes, pnm, robot, scene, stereo
from . import planes as planesmod
from .config import CAMERA_KEYS, RIG_KEYS, PipelineConfig, load_pipeline_config
from .errors import INPUT_ERRORS, ConnectionLost, ParseError, RebarTieError
from .textio import read_text


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; here 2 means pipeline error, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser, keys):
    parser.add_argument("--config", help="key=value config file (any config key)")
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, metavar="V")


def _config_from_args(args):
    overrides = {f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)}
    return load_pipeline_config(args.config, overrides)


def _cmd_disparity(args, cfg):
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


def _cmd_cloud(args, cfg):
    disp = stereo.read_disparity(args.disparity)
    disp = stereo.window_disparity_filter(disp, cfg.window, cfg.delta)
    # cloud.ply has no place for provenance: drop it, and the map, before SOR
    pc = cloudmod.PointCloud(stereo.disparity_to_cloud(cfg.rig(), disp).points)
    del disp
    pc = cloudmod.statistical_outlier_removal(pc, cfg.sor_k, cfg.sor_sigma_mult, cfg.camera())
    pc = cloudmod.voxel_downsample(pc, cfg.voxel_size)
    cloudmod.write_ply(args.out, pc)
    print(f"cloud: {len(pc)} points after window/SOR/voxel -> {args.out}")
    return 0


def _cmd_planes(args, cfg):
    pc = cloudmod.read_ply(args.cloud)
    params = planesmod.RansacParams(
        iterations=cfg.ransac_iterations,
        inlier_threshold=cfg.ransac_inlier_threshold,
        min_inlier_fraction=cfg.ransac_min_inlier_fraction,
        seed=cfg.ransac_seed,
    )
    pair = planesmod.detect_parallel_planes(pc, params)
    planesmod.write_plane_pair(args.out, pair)
    n = pair.normal
    print(
        f"planes: normal ({n[0]:.4f}, {n[1]:.4f}, {n[2]:.4f}), "
        f"offsets near {pair.offset_near:.4f} far {pair.offset_far:.4f}, "
        f"inliers {pair.inlier_counts} -> {args.out}"
    )
    return 0


def _cmd_mask(args, cfg):
    pc = cloudmod.read_ply(args.cloud)
    pair = planesmod.read_plane_pair(args.planes)
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


def _cmd_nodes(args, cfg):
    if args.disparity is None and args.planes is None:
        args.usage_error("the following arguments are required: planes")
    if args.disparity is not None and args.planes is not None:
        args.usage_error("planes is not read with --disparity: the node depth comes from the disparity map")
    boxes = nodes.parse_yolo_labels(read_text(args.labels))
    calib = framesmod.read_calibration_file(args.calibration)
    if args.disparity is not None:
        disp = stereo.read_disparity(args.disparity)
        observations, diags = nodes.locate_nodes_from_disparity(boxes, cfg.rig(), disp)
    else:
        pair = planesmod.read_plane_pair(args.planes)
        observations, diags = nodes.locate_nodes(boxes, cfg.camera(), pair.mid_plane())
    for d in diags:
        print(f"nodes: skipped {d}", file=sys.stderr)
    cam_points = np.array([o.camera_point for o in observations]).reshape(-1, 3)
    base_points = framesmod.camera_to_base(calib, cam_points)
    base_points = framesmod.apply_tool_bias(calib, base_points)
    ties = framesmod.sequence_ties(base_points, cfg.row_tolerance)
    framesmod.write_tie_points(args.out, ties)
    print(f"nodes: {len(ties)} tie points ({len(diags)} skipped) -> {args.out}")
    return 0


def _cmd_tie(args, cfg):
    robot.check_policy(cfg.tie_policy)
    ties = framesmod.read_tie_points(args.ties)
    host, _, port_text = args.server.partition(":")
    port = _port(port_text, 1, "server must be host:port with a port in 1-65535")
    # both outputs open before the first MOVE, so a path that cannot be
    # written costs no tie; a dropped link still writes the ties it made
    with (
        robot.RobotClient(host, port) as client,
        open(args.report_out, "w") as report_file,
        open(args.metrics_out, "w") as tce_file,
    ):
        try:
            report = robot.execute_sequence(ties, client, policy=cfg.tie_policy)
        except ConnectionLost as e:
            _write_tie_outputs(e.report, report_file, tce_file)
            raise
        _write_tie_outputs(report, report_file, tce_file)
    print(
        f"tie: {report.successes}/{report.attempted} succeeded "
        f"-> {args.report_out}, {args.metrics_out}"
    )
    return 0


def _port(text, lowest, message):
    """text as a TCP port in lowest..65535; anything else is a ParseError
    with message, raised before any socket exists."""
    try:
        port = int(text)
    except ValueError:
        port = -1
    if not lowest <= port <= 65535:
        raise ParseError(0, message)
    return port


def _write_tie_outputs(report, report_file, tce_file):
    """Per-tie outcomes and their totals to report_file; the TCE over the
    ties attempted to tce_file, which stays empty when none was."""
    for o in report.outcomes:
        if o.success:
            report_file.write(f"tie {o.sequence_index} ok\n")
        else:
            report_file.write(f"tie {o.sequence_index} fail {o.stage} {o.code} {o.message}\n")
    report_file.write(f"successes {report.successes}\n")
    report_file.write(f"failures {report.failures}\n")
    if report.attempted:
        tce = metrics.compute_tce(report.successes, report.attempted)
        tce_file.write(f"tce_percent={tce!r}\n")


def _cmd_sim_robot(args, cfg):
    port = _port(args.port, 0, "port must be in 0-65535, 0 for any free port")
    sim = robot.SimRobotConfig(
        workspace_center=(cfg.sim_center_x, cfg.sim_center_y, cfg.sim_center_z),
        workspace_radius=cfg.sim_radius,
        tie_failure_rate=cfg.sim_failure_rate,
        seed=cfg.sim_seed,
    )
    server = robot.SimRobotServer(sim, port=port, log_path=args.log_file)
    print(f"sim-robot: listening on port {server.port}, serving until QUIT")
    server.serve_forever()
    return 0


def _cmd_synth(args, cfg):
    spec = scene.read_grid_spec(args.scene_spec) if args.scene_spec else scene.GridSpec()
    rig = cfg.rig()
    pc, truth = scene.generate_grid_cloud(spec, rig)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    disparity = scene.render_disparity(spec, rig)
    cloudmod.write_ply(out / "cloud.ply", pc)
    stereo.write_disparity(out / "disparity.txt", disparity)
    left, right = scene.synth_stereo_pair(spec, disparity)
    pnm.write_pgm(out / "left.pgm", left)
    pnm.write_pgm(out / "right.pgm", right)
    with open(out / "labels.txt", "w") as f:
        f.write(nodes.write_yolo_labels(truth.labels))
    framesmod.write_points(out / "gt_nodes.txt", truth.nodes)
    planesmod.write_plane_pair(out / "planes.txt", truth.planes)
    scene.write_grid_spec(out / "scene.txt", spec)
    print(f"synth: {truth.nodes.shape[0]} ground-truth nodes -> {out}/")
    return 0


def _cmd_eval(args, cfg):
    if args.labels:
        pred = nodes.parse_yolo_labels(read_text(args.predicted))
        gt = nodes.parse_yolo_labels(read_text(args.ground_truth))
        acc = metrics.detection_accuracy(pred, gt, cfg.iou_threshold)
        print(f"eval: detection accuracy {acc:.4f} at IoU {cfg.iou_threshold}")
        if args.out:
            with open(args.out, "w") as f:
                f.write(f"detection_accuracy={acc!r}\n")
        return 0
    pred = framesmod.read_points(args.predicted)
    gt = framesmod.read_points(args.ground_truth)
    rm = metrics.node_metrics(pred, gt, cfg.match_cutoff)
    if args.out:
        metrics.write_metrics(args.out, rm)
    sai = "n/a" if rm.sai_mm is None else f"{rm.sai_mm:.3f} mm"
    print(
        f"eval: matched {rm.matched}, SAI {sai}, "
        f"unmatched pred {rm.unmatched_predictions} / gt {rm.unmatched_ground_truth}"
    )
    return 0


@functools.cache
def build_parser():
    """The command-line parser, built once per process and shared by every
    call of main: argparse keeps no state between parse_args calls."""
    parser = _Parser(prog="rebartie", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disparity", help="block-match a rectified stereo pair")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out", required=True)
    _add_config_flags(p, ("block_radius", "max_disparity"))
    p.set_defaults(func=_cmd_disparity)

    p = sub.add_parser("cloud", help="disparity -> filtered point cloud (PLY)")
    p.add_argument("disparity")
    p.add_argument("--out", required=True)
    _add_config_flags(p, ("window", "delta", "sor_k", "sor_sigma_mult", "voxel_size", *RIG_KEYS))
    p.set_defaults(func=_cmd_cloud)

    p = sub.add_parser("planes", help="detect the two parallel rebar planes")
    p.add_argument("cloud")
    p.add_argument("--out", required=True)
    _add_config_flags(p, ("ransac_iterations", "ransac_inlier_threshold",
                          "ransac_min_inlier_fraction", "ransac_seed"))
    p.set_defaults(func=_cmd_planes)

    p = sub.add_parser("mask", help="plane mask + background-filtered image")
    p.add_argument("cloud")
    p.add_argument("planes")
    p.add_argument("image")
    p.add_argument("--mask-out", required=True)
    p.add_argument("--filtered-out", required=True)
    _add_config_flags(p, ("tau", "dilation_radius", *CAMERA_KEYS))
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("nodes", help="labels -> sequenced base-frame tie points")
    p.add_argument("labels")
    p.add_argument("planes", nargs="?", help="plane pair file (omitted with --disparity)")
    p.add_argument("calibration")
    p.add_argument("--out", required=True)
    p.add_argument("--disparity", help="take node depth from this disparity file, not the planes")
    # the plane path reads the camera, the disparity path the whole rig
    _add_config_flags(p, ("row_tolerance", *RIG_KEYS))
    p.set_defaults(func=_cmd_nodes, usage_error=p.error)

    p = sub.add_parser("tie", help="dispatch a tie sequence to a controller")
    p.add_argument("ties")
    p.add_argument("server", help="host:port")
    p.add_argument("--report-out", required=True)
    p.add_argument("--metrics-out", required=True)
    _add_config_flags(p, ("tie_policy",))
    p.set_defaults(func=_cmd_tie)

    p = sub.add_parser("sim-robot", help="run the simulated controller server")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--log-file")
    _add_config_flags(p, ("sim_center_x", "sim_center_y", "sim_center_z",
                          "sim_radius", "sim_failure_rate", "sim_seed"))
    p.set_defaults(func=_cmd_sim_robot)

    p = sub.add_parser("synth", help="generate a synthetic scene bundle")
    p.add_argument("scene_spec", nargs="?", help="scene key=value file (default scene if omitted)")
    p.add_argument("--out", required=True)
    _add_config_flags(p, RIG_KEYS)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("predicted")
    p.add_argument("ground_truth")
    p.add_argument("--out")
    p.add_argument("--labels", action="store_true", help="inputs are YOLO label files")
    _add_config_flags(p, ("match_cutoff", "iou_threshold"))
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _config_from_args(args))
    except (RebarTieError, OSError) as e:
        print(f"{args.command}: {type(e).__name__}: {e}", file=sys.stderr)
        return 1 if isinstance(e, (*INPUT_ERRORS, OSError)) else 2


if __name__ == "__main__":
    sys.exit(main())
