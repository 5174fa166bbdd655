"""The README walkthrough on the default scene, synth to eval, in process.

One module fixture runs every step through `rebartie.cli.main`, from the
bundle's relative paths, on both disparity sources: the rendered
`bundle/disparity.txt`, and the matcher's map of `left.pgm`/`right.pgm`.
The controller steps (`sim-robot`, `tie`) are left out: they write no
perception output. Two kinds of test read the run:
- ROADMAP item 2(a)'s acceptance bound on the stereo-pair path, left
  failing until item 2 makes that path correct;
- the sha256 of every output and of each path's stdout, so that no output
  changes by accident: a deliberate change updates GOLDEN and says why in
  CHANGES.md.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from rebartie import pnm
from rebartie.cli import main
from rebartie.frames import CalibrationSet, format_calibration
from rebartie.geometry import RigidTransform

SAI_BOUND_MM = 10.0

GOLDEN = {
    "bundle/cloud.ply": "464e9feb75454ae62747525a24870060b1d914bba332e9f6bf4ac8405ba68a60",
    "bundle/disparity.txt": "891f707b3a7881a86a903d11f49906f5175b34e49bb47daa502c45da8f05ea04",
    "bundle/gt_nodes.txt": "48a4cfba585ef296e2ed8d229001aeafeaf3607ba6730a1300e47cd4766077d1",
    "bundle/labels.txt": "2eebe154a57c9268c2727a84c124f6d4a1ac2954cdd58b4df430654829b4da33",
    "bundle/left.pgm": "3424694e0958ce75edc570778579a981c150c62c80518127d6cec55d3fd86a35",
    "bundle/planes.txt": "ff9387191de1d9b0a5a5a38b327dd7f4f2b7adfa01816d614780ce0d117d4d41",
    "bundle/right.pgm": "63856588e5422b608220d7b9bec121a1506d21f0045975e7ddd1970195675a07",
    "bundle/scene.txt": "1262c040081d3a70e6bc5367dd7646b2222d0324f1fb6772710cbe8229510456",
    "bundle/stdout": "fa865d006bbf1625c38157ab38429ac8d8eed2e953b522fb246cbb4725fb987a",
    "rendered/cloud.ply": "ea1c89d1597bff5015e4ed72a8daca0b286f031844f073ff2e7711c3d8b46cce",
    "rendered/filtered.ppm": "99022a7098999ec5a3b8784f357f60e8ba8e4b0a452fe1e13dec57d9f188e8ab",
    "rendered/mask.pgm": "858d43121a997165a3a2230752ebb92f4627bfed56779d868d65ed47e9c2b409",
    "rendered/metrics.txt": "da0047cb0e229e5391a7092f5de2361fa923078e59221938d6002bc72a4f88a9",
    "rendered/metrics_disparity.txt": "08fbd92380f90c8f88b68cb0d01b1f72eda1f7fadbf66d24580d878942f4f75f",
    "rendered/planes.txt": "22f84ae91f7590bf65da803d5ce0106bec694c5b55205286b2cec4229f301914",
    "rendered/stdout": "746d79e1605b5546337e0c425a8a4bdf5f1d758405f3bb04dae4749659cffae8",
    "rendered/ties.txt": "51896cec0e6fa67da30f4aeb649f5d023c52a64be689c860da9c46cb15d83254",
    "rendered/ties_disparity.txt": "8038721f8b8585172909ce0813cdc3a45190fac8d52820fe1074d787ec16ee47",
    "stereo/cloud.ply": "4da6bbb053358fbca9021cef7e07c33b9021402482255af5cbae4599af0290cb",
    "stereo/filtered.ppm": "2931518c13f724bf558d6abe2e2450e472f5ab50fd739fecd4147adeacfd4f0e",
    "stereo/mask.pgm": "4106f10aef7f09c76129fcdfdb2140be130d8e688ac2348ab24ab67489909679",
    "stereo/matched.txt": "45c1c4c11dd7924587d59628ba011a164fafee2fe05cf4801ba6ae056acb5dcf",
    "stereo/metrics.txt": "c31be926f3d1592555b2f446e7721c1a069bfab6d1e3dc3abcd11e6c277ea6c7",
    "stereo/metrics_disparity.txt": "ca9068bb8f70e704441c302b9b371e157d6f9524c1f906c8c8c8c0a5ff020016",
    "stereo/planes.txt": "0d6bafdd971c4385ab3d4081b7d54f28a0f25f50898331c31976b9d1a0cb9d3c",
    "stereo/stdout": "c9bfacaa7bde0546c23d45d97b9a445453ad1ef67df4153b41ccdba2374fddca",
    "stereo/ties.txt": "d9e18c449d22650824721ac2999d17a2df257244a0636710b5e6706750b5de86",
    "stereo/ties_disparity.txt": "e0640208dfbdf98a1cba3e71cd831f1d8e039a1e1b052294baab617ac6194c84",
}


def _steps(path):
    """The walkthrough's argv lists from a disparity source to eval."""
    disparity = "bundle/disparity.txt"
    steps = []
    if path == "stereo":
        disparity = "stereo/matched.txt"
        steps.append(["disparity", "bundle/left.pgm", "bundle/right.pgm", "--out", disparity])
    return steps + [
        ["cloud", disparity, "--out", f"{path}/cloud.ply"],
        ["planes", f"{path}/cloud.ply", "--out", f"{path}/planes.txt"],
        ["mask", f"{path}/cloud.ply", f"{path}/planes.txt", "image.ppm",
         "--mask-out", f"{path}/mask.pgm", "--filtered-out", f"{path}/filtered.ppm"],
        ["nodes", "bundle/labels.txt", f"{path}/planes.txt", "calib.txt",
         "--out", f"{path}/ties.txt"],
        ["nodes", "bundle/labels.txt", "calib.txt", "--out", f"{path}/ties_disparity.txt",
         "--disparity", disparity],
        ["eval", f"{path}/ties.txt", "bundle/gt_nodes.txt", "--out", f"{path}/metrics.txt"],
        ["eval", f"{path}/ties_disparity.txt", "bundle/gt_nodes.txt",
         "--out", f"{path}/metrics_disparity.txt"],
    ]


def _run(argv):
    """main(argv)'s stdout; every step must exit 0 and write no stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue()


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The run's directory: bundle/, rendered/ and stereo/ outputs, plus
    <path>/stdout, each path's stdout (synth's for bundle/)."""
    base = tmp_path_factory.mktemp("walkthrough")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(base)
        (base / "bundle").mkdir()
        (base / "bundle/stdout").write_text(_run(["synth", "--out", "bundle"]))
        identity = RigidTransform(np.eye(3), np.zeros(3), "camera", "base")
        bias = RigidTransform(np.eye(3), np.zeros(3), "base", "base")
        (base / "calib.txt").write_text(format_calibration(CalibrationSet(identity, bias)))
        left = pnm.read_pgm("bundle/left.pgm")
        pnm.write_ppm("image.ppm", np.stack([left] * 3, axis=-1))
        for path in ("rendered", "stereo"):
            (base / path).mkdir()
            stdout = "".join(_run(argv) for argv in _steps(path))
            (base / path / "stdout").write_text(stdout)
    return base


def _digests(base, path):
    return {
        f"{path}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((base / path).iterdir())
    }


@pytest.mark.parametrize("path", ["bundle", "rendered", "stereo"])
def test_outputs_are_the_recorded_bytes(walkthrough, path):
    expected = {k: v for k, v in GOLDEN.items() if k.startswith(path + "/")}
    assert _digests(walkthrough, path) == expected


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: from left.pgm/right.pgm the layer split puts the "
    "far plane on the background and no node matches",
)
def test_stereo_pair_path_meets_the_sai_bound(walkthrough):
    n_gt = len((walkthrough / "bundle/gt_nodes.txt").read_text().splitlines())
    metrics = dict(
        line.split("=") for line in (walkthrough / "stereo/metrics.txt").read_text().splitlines()
    )
    assert int(metrics["matched"]) == n_gt
    assert float(metrics["sai_mm"]) <= SAI_BOUND_MM
