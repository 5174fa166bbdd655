import socket

import numpy as np
import pytest

from rebartie import robot
from rebartie.cli import main
from rebartie.errors import NoAttempts, NoMatches
from rebartie.metrics import (
    RunMetrics,
    compute_sai,
    compute_tce,
    detection_accuracy,
    format_metrics,
    match_nodes,
    node_metrics,
)
from rebartie.nodes import DetectionBox


class TestComputeTce:
    def test_nine_of_ten(self):
        assert compute_tce(9, 10) == 90.0

    def test_zero_successes(self):
        assert compute_tce(0, 7) == 0.0

    def test_all_successes(self):
        assert compute_tce(7, 7) == 100.0

    def test_no_attempts(self):
        with pytest.raises(NoAttempts):
            compute_tce(0, 0)

    def test_linear_and_bounded(self):
        values = [compute_tce(s, 20) for s in range(21)]
        assert values[0] == 0.0 and values[-1] == 100.0
        diffs = np.diff(values)
        assert np.allclose(diffs, diffs[0])


class TestMatchNodes:
    def test_identical_lists(self, rng):
        pts = rng.normal(size=(8, 3))
        matching = match_nodes(pts, pts, cutoff=0.01)
        assert matching == [(i, i) for i in range(8)]

    def test_greedy_takes_closest(self):
        pred = [[0.0, 0, 0]]
        actual = [[0.001, 0, 0], [0.005, 0, 0.0]]
        assert match_nodes(pred, actual, cutoff=0.01) == [(0, 0)]

    def test_beyond_cutoff_unmatched(self):
        assert match_nodes([[0.0, 0, 0]], [[0.03, 0, 0.0]], cutoff=0.01) == []

    def test_one_to_one(self, rng):
        pred = rng.normal(size=(10, 3))
        actual = pred + rng.normal(0, 0.001, (10, 3))
        matching = match_nodes(pred, actual, cutoff=0.1)
        assert len({i for i, _ in matching}) == len(matching)
        assert len({j for _, j in matching}) == len(matching)

    def test_equal_distances_pair_on_the_lowest_index(self):
        # every distance below is exactly 0.25 m
        assert match_nodes([[0.0, 0, 0]], [[0.25, 0, 0], [-0.25, 0, 0]], cutoff=0.5) == [(0, 0)]
        assert match_nodes([[0.25, 0, 0], [-0.25, 0, 0]], [[0.0, 0, 0]], cutoff=0.5) == [(0, 0)]
        # lowest (prediction, truth) first: (0, 1) before (1, 0)
        pred = [[0.25, 0, 0], [4.25, 0, 0]]
        actual = [[4.0, 0, 0], [0.0, 0, 0]]
        assert match_nodes(pred, actual, cutoff=0.5) == [(0, 1), (1, 0)]

    def test_never_matches_beyond_cutoff(self, rng):
        pred = rng.normal(size=(15, 3))
        actual = rng.normal(size=(12, 3))
        for i, j in match_nodes(pred, actual, cutoff=0.3):
            assert np.linalg.norm(pred[i] - actual[j]) <= 0.3


class TestComputeSai:
    def test_constant_offset(self, rng):
        actual = rng.normal(size=(9, 3))
        pred = actual + [0.003, 0.0, 0.0]
        matching = match_nodes(pred, actual, cutoff=0.01)
        assert compute_sai(matching, pred, actual) == pytest.approx(3.0)

    def test_perfect_predictions(self, rng):
        pts = rng.normal(size=(5, 3))
        matching = match_nodes(pts, pts, cutoff=0.01)
        assert compute_sai(matching, pts, pts) == 0.0

    def test_no_matches_raises(self):
        with pytest.raises(NoMatches):
            compute_sai([], [[0, 0, 0.0]], [[1, 1, 1.0]])

    def test_translation_invariant(self, rng):
        actual = rng.normal(size=(6, 3))
        pred = actual + rng.normal(0, 0.002, (6, 3))
        shift = rng.normal(size=3)
        m1 = match_nodes(pred, actual, cutoff=0.1)
        m2 = match_nodes(pred + shift, actual + shift, cutoff=0.1)
        assert compute_sai(m1, pred, actual) == pytest.approx(
            compute_sai(m2, pred + shift, actual + shift)
        )


def grid_boxes(n, size=0.08):
    out = []
    for i in range(n):
        cx = 0.1 + 0.8 * (i % 4) / 3.0
        cy = 0.1 + 0.8 * (i // 4) / 3.0
        out.append(DetectionBox(0, cx, cy, size, size))
    return out


class TestDetectionAccuracy:
    def test_perfect_predictions(self):
        gt = grid_boxes(8)
        assert detection_accuracy(gt, gt, 0.5) == 1.0

    def test_no_predictions(self):
        assert detection_accuracy([], grid_boxes(5), 0.5) == 0.0

    def test_fraction_detected(self):
        gt = grid_boxes(10)
        assert detection_accuracy(gt[:4], gt, 0.5) == pytest.approx(0.4)

    def test_monotone_in_threshold(self, rng):
        gt = grid_boxes(12)
        jittered = [
            DetectionBox(
                0,
                min(max(b.cx + rng.normal(0, 0.01), 0), 1),
                min(max(b.cy + rng.normal(0, 0.01), 0), 1),
                b.w,
                b.h,
            )
            for b in gt
        ]
        prev = 1.1
        for thr in (0.3, 0.5, 0.7, 0.9):
            acc = detection_accuracy(jittered, gt, thr)
            assert acc <= prev
            prev = acc

    def test_one_to_one_matching(self):
        gt = grid_boxes(2)
        # two predictions on the same ground-truth box: only one counts
        preds = [gt[0], gt[0]]
        assert detection_accuracy(preds, gt, 0.5) == pytest.approx(0.5)

    def test_equal_ious_pair_on_the_lowest_index(self):
        # truth 0 overlaps predictions 0 and 1, truth 1 only prediction 0,
        # all at an IoU of exactly 0.6: the lowest (truth, prediction) pair
        # (0, 0) goes first and leaves truth 1 unmatched, where taking
        # (1, 0) and (0, 1) would match both
        gt = [DetectionBox(0, 0.5, 0.5, 0.25, 0.25), DetectionBox(0, 0.375, 0.5, 0.25, 0.25)]
        preds = [DetectionBox(0, 0.4375, 0.5, 0.25, 0.25), DetectionBox(0, 0.5625, 0.5, 0.25, 0.25)]
        assert detection_accuracy(preds, gt, 0.5) == 0.5


class TestMetricsReport:
    def test_format_omits_absent(self):
        rm = RunMetrics(matched=3, unmatched_predictions=1, unmatched_ground_truth=0)
        text = format_metrics(rm)
        assert "tce_percent" not in text
        assert "sai_mm" not in text
        assert "matched=3" in text

    def test_node_metrics_counts(self, rng):
        actual = rng.normal(size=(10, 3))
        pred = np.vstack([actual[:7] + 0.001, rng.normal(size=(2, 3)) + 50])
        rm = node_metrics(pred, actual, cutoff=0.05)
        assert rm.matched == 7
        assert rm.unmatched_predictions == 2
        assert rm.unmatched_ground_truth == 3
        assert rm.matched + rm.unmatched_predictions == len(pred)

    def test_tce_line_repr(self, tmp_path, monkeypatch, capsys):
        # tie writes the TCE line itself, and nothing else, into --metrics-out
        ties = tmp_path / "ties.txt"
        ties.write_text("0 0 0 0.1\n")
        report = robot.SequenceReport(
            [robot.TieOutcome(i, True) for i in range(24)] + [robot.TieOutcome(24, False, "tie", 4)]
        )
        monkeypatch.setattr(robot, "execute_sequence", lambda *a, **k: report)
        with socket.socket() as listener:  # connect() needs only the backlog
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            port = listener.getsockname()[1]
            assert main([
                "tie", str(ties), f"127.0.0.1:{port}",
                "--report-out", str(tmp_path / "r.txt"), "--metrics-out", str(tmp_path / "tce.txt"),
            ]) == 0
        capsys.readouterr()
        assert (tmp_path / "tce.txt").read_text() == "tce_percent=96.0\n"
