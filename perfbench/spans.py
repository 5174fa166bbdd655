"""Spans for the benchmark's traced run, recorded from outside the program.

A Tracer wraps the public functions of the rebartie modules by replacing
the module (or class) attribute that their callers look up at call time:
`cli` reaches stages as `stereo.…`, `cloudmod.…` and `planesmod.…`,
`detect_parallel_planes` finds `ransac_dominant_plane` in the planes
module, and `masking` binds `read_pgm`/`write_pgm` itself, so those two are
wrapped in masking as well as in pnm. The wrappers exist only between
`install()` and `remove()`.

Each span holds its name, start, end, parent span and item (scene or tie
sequence) id, plus the counts its counter reads from the call. Spans stay in
memory until `write()`. A span's self time is its duration minus the
durations of its child spans.
"""

import functools
import json
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from rebartie import cloud, frames, masking, metrics, nodes, planes, pnm, robot, scene, stereo

MARK = "perfbench_span"


def _bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _window_kept(args, result):
    before = np.count_nonzero(np.asarray(args[0]) >= 0)
    return {"kept_frac": np.count_nonzero(result >= 0) / max(before, 1)}


def _send(args, result):
    return {
        "ok_frac": int(result.ok),
        "err_unreachable": int(result.code == robot.ERR_UNREACHABLE),
        "err_tie_failed": int(result.code == robot.ERR_TIE_FAILED),
    }


# (owner, attribute, span name, counter(args, result) -> {stat: value})
TARGETS = (
    (scene, "render_disparity", "scene.render_disparity", None),
    (scene, "synth_stereo_pair", "scene.synth_stereo_pair", None),
    (scene, "generate_grid_cloud", "scene.generate_grid_cloud", None),
    (stereo, "block_match_disparity", "stereo.block_match_disparity",
     lambda a, r: {"valid_frac": float(np.mean(r >= 0))}),
    (stereo, "window_disparity_filter", "stereo.window_disparity_filter", _window_kept),
    (stereo, "disparity_to_cloud", "stereo.disparity_to_cloud",
     lambda a, r: {"points_out": len(r)}),
    (stereo, "write_disparity", "stereo.write_disparity", _bytes),
    (stereo, "read_disparity", "stereo.read_disparity", None),
    (cloud, "statistical_outlier_removal", "cloud.statistical_outlier_removal",
     lambda a, r: {"points_in": len(a[0]), "kept_frac": len(r) / len(a[0])}),
    (cloud, "voxel_downsample", "cloud.voxel_downsample",
     lambda a, r: {"points_out": len(r)}),
    (cloud, "write_ply", "cloud.write_ply", _bytes),
    (cloud, "read_ply", "cloud.read_ply", None),
    (planes, "ransac_dominant_plane", "planes.ransac_dominant_plane",
     lambda a, r: {"inlier_frac": len(r[1]) / len(a[0])}),
    (planes, "kmeans_split_offsets", "planes.kmeans_split_offsets", None),
    (planes, "detect_parallel_planes", "planes.detect_parallel_planes",
     lambda a, r: {"layer_gap_mm": 1000.0 * abs(r.offset_near - r.offset_far)}),
    (masking, "select_near_plane", "masking.select_near_plane", None),
    (masking, "attach_projected_provenance", "masking.attach_projected_provenance", None),
    (masking, "rasterize_mask", "masking.rasterize_mask",
     lambda a, r: {"pixels_set": int(np.count_nonzero(r))}),
    (masking, "apply_mask", "masking.apply_mask", None),
    (masking, "read_pgm", "pnm.read_pgm", _bytes),
    (masking, "write_pgm", "pnm.write_pgm", _bytes),
    (pnm, "read_pgm", "pnm.read_pgm", _bytes),
    (pnm, "write_pgm", "pnm.write_pgm", _bytes),
    (pnm, "read_ppm", "pnm.read_ppm", _bytes),
    (pnm, "write_ppm", "pnm.write_ppm", _bytes),
    (nodes, "locate_nodes", "nodes.locate_nodes", lambda a, r: {"skipped": len(r[1])}),
    (frames, "sequence_ties", "frames.sequence_ties", lambda a, r: {"ties": len(r)}),
    (metrics, "node_metrics", "metrics.node_metrics", None),
    (robot.RobotClient, "send", "robot.send", _send),
    (robot, "execute_sequence", "robot.execute_sequence", None),
)

CLI_COMMANDS = ("synth", "disparity", "cloud", "planes", "mask", "nodes", "tie", "eval")

# Per-layer metrics, per item (scene or tie sequence), as the median over a
# run's items; a layer the workload does not reach reads 0.
#   <span>.s        self time summed over the item (cli.<cmd>.s: the
#                   subcommand's whole wall time)
#   <span>.calls    spans in the item
#   <span>.<count>  the counter summed over the item; a *_frac or *_mm
#                   counter is averaged over the item's calls instead
#   cli.self.s      self time of all cli spans: what no wrapped layer covers
#   trace.*         set by run.py, see there
PER_LAYER = (
    *((f"cli.{c}.s", "s") for c in CLI_COMMANDS),
    ("cli.self.s", "s"),
    ("scene.render_disparity.calls", "count"),
    ("scene.render_disparity.s", "s"),
    ("scene.synth_stereo_pair.s", "s"),
    ("scene.generate_grid_cloud.s", "s"),
    ("stereo.block_match_disparity.s", "s"),
    ("stereo.block_match_disparity.valid_frac", "frac"),
    ("stereo.window_disparity_filter.s", "s"),
    ("stereo.window_disparity_filter.kept_frac", "frac"),
    ("stereo.disparity_to_cloud.s", "s"),
    ("stereo.disparity_to_cloud.points_out", "count"),
    ("stereo.write_disparity.s", "s"),
    ("stereo.write_disparity.bytes", "B"),
    ("stereo.read_disparity.s", "s"),
    ("cloud.statistical_outlier_removal.s", "s"),
    ("cloud.statistical_outlier_removal.points_in", "count"),
    ("cloud.statistical_outlier_removal.kept_frac", "frac"),
    ("cloud.voxel_downsample.s", "s"),
    ("cloud.voxel_downsample.points_out", "count"),
    ("cloud.write_ply.s", "s"),
    ("cloud.write_ply.bytes", "B"),
    ("cloud.read_ply.s", "s"),
    ("cloud.read_ply.calls", "count"),
    ("planes.ransac_dominant_plane.s", "s"),
    ("planes.ransac_dominant_plane.inlier_frac", "frac"),
    ("planes.kmeans_split_offsets.s", "s"),
    ("planes.detect_parallel_planes.s", "s"),
    ("planes.detect_parallel_planes.layer_gap_mm", "mm"),
    ("masking.select_near_plane.s", "s"),
    ("masking.attach_projected_provenance.s", "s"),
    ("masking.rasterize_mask.s", "s"),
    ("masking.rasterize_mask.pixels_set", "count"),
    ("masking.apply_mask.s", "s"),
    ("pnm.read_pgm.s", "s"),
    ("pnm.read_pgm.bytes", "B"),
    ("pnm.write_pgm.s", "s"),
    ("pnm.write_pgm.bytes", "B"),
    ("pnm.read_ppm.s", "s"),
    ("pnm.read_ppm.bytes", "B"),
    ("pnm.write_ppm.s", "s"),
    ("pnm.write_ppm.bytes", "B"),
    ("nodes.locate_nodes.s", "s"),
    ("nodes.locate_nodes.skipped", "count"),
    ("frames.sequence_ties.s", "s"),
    ("frames.sequence_ties.ties", "count"),
    ("metrics.node_metrics.s", "s"),
    ("robot.send.calls", "count"),
    ("robot.send.s", "s"),
    ("robot.send.err_unreachable", "count"),
    ("robot.send.err_tie_failed", "count"),
    ("robot.send.ok_frac", "frac"),
    ("robot.execute_sequence.s", "s"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
)


class Span:
    __slots__ = ("index", "name", "item", "parent", "start", "end", "counts")

    def __init__(self, index, name, item, parent):
        self.index = index
        self.name = name
        self.item = item
        self.parent = parent
        self.start = self.end = None
        self.counts = None

    @property
    def duration(self):
        return self.end - self.start


def wrapped_targets():
    """Names of the targets that currently hold a tracing wrapper."""
    return [name for owner, attr, name, _ in TARGETS if hasattr(getattr(owner, attr), MARK)]


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []
        self._saved = []

    def install(self):
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name):
        span = Span(len(self.spans), name, self.item, self._stack[-1] if self._stack else None)
        self._stack.append(span.index)
        self.spans.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Run the body with the original functions in place."""
        self.remove()
        try:
            yield
        finally:
            self.install()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        setattr(traced, MARK, name)
        return traced

    def self_time(self, span):
        later = self.spans[span.index + 1:]
        return span.duration - sum(s.duration for s in later if s.parent == span.index)

    def self_times(self):
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def write(self, path):
        """One JSON array per line: name, item, parent index, start, end, counts."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s.name, s.item, s.parent, s.start, s.end, s.counts]) + "\n")


def layer_metrics(tracer, extra):
    """Median over items of every PER_LAYER metric: {name: (value, n)}.

    `extra` maps item id to the trace.* values run.py measured for it.
    """
    per_item = defaultdict(lambda: defaultdict(float))
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        rec = per_item[span.item]
        is_cli = span.name.startswith("cli.")
        rec[span.name + ".s"] += span.duration if is_cli else self_s
        if is_cli:
            rec["cli.self.s"] += self_s
        rec[span.name + ".calls"] += 1
        rec["trace.spans"] += 1
        for stat, value in (span.counts or {}).items():
            rec[f"{span.name}.{stat}"] += value
    for rec in per_item.values():
        for key in list(rec):
            span_name, _, stat = key.rpartition(".")
            if stat.endswith(("_frac", "_mm")):
                rec[key] /= rec[span_name + ".calls"]
    for item, values in extra.items():
        per_item[item].update(values)
    return {
        name: (statistics.median(rec.get(name, 0.0) for rec in per_item.values()), len(per_item))
        for name, _ in PER_LAYER
    }
