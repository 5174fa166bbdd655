"""Evaluation metrics: task completion efficiency (TCE), spatial accuracy
index (SAI), and detection recall at an IoU threshold."""

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, NoAttempts, NoMatches


@dataclass
class RunMetrics:
    sai_mm: float | None = None
    matched: int = 0
    unmatched_predictions: int = 0
    unmatched_ground_truth: int = 0


def compute_tce(successes, attempts):
    """Successful over attempted tasks, as a percentage."""
    if attempts == 0:
        raise NoAttempts("cannot compute TCE with zero attempts")
    if not 0 <= successes <= attempts:
        raise ValueError("successes must lie in [0, attempts]")
    return 100.0 * successes / attempts


def _one_to_one(candidates):
    """Greedy one-to-one selection from (key, i, j) candidates: the lowest
    key first, ties broken on the lowest (i, j); a pair whose i or j is
    already taken is passed over. Returns the (i, j) pairs in that order."""
    used_i, used_j = set(), set()
    pairs = []
    for _, i, j in sorted(candidates):
        if i not in used_i and j not in used_j:
            used_i.add(i)
            used_j.add(j)
            pairs.append((i, j))
    return pairs


def match_nodes(predicted, actual, cutoff=0.05):
    """Greedy one-to-one matching of 3-D points within a distance cutoff.

    Repeatedly pairs the globally closest unmatched (prediction, actual)
    within the cutoff; ties break on the lowest index pair. Returns a list
    of (pred_index, actual_index) pairs.
    """
    if cutoff <= 0:
        raise BadParameter("cutoff must be positive")
    pred = np.asarray(predicted, dtype=float).reshape(-1, 3)
    act = np.asarray(actual, dtype=float).reshape(-1, 3)
    if pred.shape[0] == 0 or act.shape[0] == 0:
        return []
    dists = np.linalg.norm(pred[:, None, :] - act[None, :, :], axis=2)
    pi, ai = np.nonzero(dists <= cutoff)
    return _one_to_one(zip(dists[pi, ai].tolist(), pi.tolist(), ai.tolist()))


def compute_sai(matching, predicted, actual):
    """Mean Euclidean deviation over matched pairs, in millimeters."""
    if not matching:
        raise NoMatches("SAI needs at least one matched pair")
    pred = np.asarray(predicted, dtype=float).reshape(-1, 3)
    act = np.asarray(actual, dtype=float).reshape(-1, 3)
    dists = [np.linalg.norm(pred[i] - act[j]) for i, j in matching]
    return float(np.mean(dists)) * 1000.0


def _box_corners(box):
    return (
        box.cx - box.w / 2.0,
        box.cy - box.h / 2.0,
        box.cx + box.w / 2.0,
        box.cy + box.h / 2.0,
    )


def box_iou(a, b):
    ax0, ay0, ax1, ay1 = _box_corners(a)
    bx0, by0, bx1, by1 = _box_corners(b)
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return inter / union


def detection_accuracy(predicted_boxes, gt_boxes, iou_threshold=0.5):
    """Recall at IoU: fraction of ground-truth boxes matched one-to-one by
    a prediction with IoU >= threshold (greedy, by descending IoU)."""
    if not 0 < iou_threshold < 1:
        raise BadParameter("iou_threshold must be in (0, 1)")
    if not gt_boxes:
        return 0.0
    candidates = []
    for gi, g in enumerate(gt_boxes):
        for pi, p in enumerate(predicted_boxes):
            iou = box_iou(p, g)
            if iou >= iou_threshold:
                candidates.append((-iou, gi, pi))
    return len(_one_to_one(candidates)) / len(gt_boxes)


def node_metrics(predicted, actual, cutoff=0.05):
    """Match two point sets and fill a RunMetrics record."""
    matching = match_nodes(predicted, actual, cutoff)
    pred_count = np.asarray(predicted, dtype=float).reshape(-1, 3).shape[0]
    act_count = np.asarray(actual, dtype=float).reshape(-1, 3).shape[0]
    rm = RunMetrics(
        matched=len(matching),
        unmatched_predictions=pred_count - len(matching),
        unmatched_ground_truth=act_count - len(matching),
    )
    if matching:
        rm.sai_mm = compute_sai(matching, predicted, actual)
    return rm


def format_metrics(rm):
    """key=value report; absent metrics are omitted."""
    lines = []
    if rm.sai_mm is not None:
        lines.append(f"sai_mm={rm.sai_mm!r}")
    lines.append(f"matched={rm.matched}")
    lines.append(f"unmatched_predictions={rm.unmatched_predictions}")
    lines.append(f"unmatched_ground_truth={rm.unmatched_ground_truth}")
    return "".join(line + "\n" for line in lines)


def write_metrics(path, rm):
    with open(path, "w") as f:
        f.write(format_metrics(rm))
