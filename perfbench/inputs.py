"""Seeded inputs for the benchmark.

Everything the program reads comes from here, as files or as plain arrays
handed to a public function: scene-spec files for `rebartie synth`, the
calibration file for `rebartie nodes`, and base-frame tie-target sets for
`frames.sequence_ties`. The same seed gives the same inputs.
"""

import numpy as np

# The simulated controller shared by every workload (sim.py starts it).
# Every scene tie lies well inside this sphere; tie-link places its
# out-of-workspace targets at least 0.5 m outside it.
WORKSPACE_CENTER = (0.0, 0.0, 1.2)
WORKSPACE_RADIUS = 2.5
TIE_FAILURE_RATE = 0.05

# Scene k's grid size is fixed by k, so every seed runs the same mix of
# sizes in the same order and a run's median compares like with like; the
# seed draws the tilt, the standoff and the scene's own texture seed.
# Scene 0 is the default scene.
GRID_SIZES = ((5, 5), (4, 4), (6, 6), (4, 6), (6, 4), (5, 4), (4, 5), (6, 5), (5, 6))
MAX_TILT_DEG = 5.0
STANDOFF_M = (1.1, 1.25)
# GridSpec defaults: rod spacing and the center-to-center layer gap
SPACING = 0.2
LAYER_GAP = 0.012

# Identity camera-to-base transform and no tool bias: tie targets stay in
# the camera frame, so `rebartie eval` can score them against gt_nodes.txt.
CALIBRATION = (
    "T_base_cam\n1 0 0 0\n0 1 0 0\n0 0 1 0\n"
    "bias\n1 0 0 0\n0 1 0 0\n0 0 1 0\n"
)

# tie-link: a jittered grid in the base-frame plane through the workspace
# center. Rows sit TIE_SPACING apart and jitter at most TIE_JITTER, so the
# gap between rows stays above the default row_tolerance of 0.05 m.
TIE_GRID = 40
TIE_SPACING = 0.07
TIE_JITTER = 0.008
TIE_OUTSIDE_FRAC = 0.02
TIE_OUTSIDE_LIFT = 3.0  # along z, which sequencing ignores


def _rotation(axis, angle):
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * k @ k


def scene_spec(seed, k):
    """Key = value scene file text for scene k of the given seed."""
    if k == 0:
        return "rows = 5\ncols = 5\n"
    rows, cols = GRID_SIZES[k % len(GRID_SIZES)]
    rng = np.random.default_rng([seed, k])
    tilt = np.radians(rng.uniform(0.0, MAX_TILT_DEG))
    phi = rng.uniform(0.0, 2.0 * np.pi)
    standoff = rng.uniform(*STANDOFF_M)
    scene_seed = int(rng.integers(0, 2**31))
    # the default pose (grid +y toward the camera, mid-plane centered at the
    # standoff), then tilted about an in-image axis through the grid center
    rot = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    center = np.array([(rows - 1) * SPACING / 2.0, LAYER_GAP / 2.0, (cols - 1) * SPACING / 2.0])
    pivot = np.array([0.0, 0.0, standoff])
    tilt_rot = _rotation(np.array([np.cos(phi), np.sin(phi), 0.0]), tilt)
    rotation = tilt_rot @ rot
    translation = pivot + tilt_rot @ (-(rot @ center))
    pose = np.hstack([rotation, translation[:, None]])
    # Full precision: at 9 digits (rebartie's own write_grid_spec format)
    # about 1 pose in 300 misses read_grid_spec's 1e-9 orthonormality check.
    return (
        f"rows = {rows}\ncols = {cols}\nseed = {scene_seed}\n"
        "grid_pose = " + " ".join(repr(float(v)) for v in pose.ravel()) + "\n"
    )


def tie_targets(seed, i):
    """Target set i of the given seed: (points, outside) in a shuffled order.

    About TIE_OUTSIDE_FRAC of the points are lifted out of the workspace;
    `outside` marks them.
    """
    rng = np.random.default_rng([seed, i, TIE_GRID])
    g = (np.arange(TIE_GRID) - (TIE_GRID - 1) / 2.0) * TIE_SPACING
    xx, yy = np.meshgrid(g, g)
    n = xx.size
    pts = np.stack([xx.ravel(), yy.ravel(), np.zeros(n)], axis=1) + WORKSPACE_CENTER
    pts += rng.uniform(-TIE_JITTER, TIE_JITTER, pts.shape)
    outside = rng.random(n) < TIE_OUTSIDE_FRAC
    pts[outside, 2] += TIE_OUTSIDE_LIFT
    order = rng.permutation(n)
    return pts[order], outside[order]
