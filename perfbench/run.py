"""Walkthrough benchmark for rebartie.

    python3 perfbench/run.py --workload rendered --seed 1 --seconds 30 --trace 0

Run from the root of a rebartie checkout; the program is imported from
src/. Each run starts one simulated controller process (sim.py) and then,
from this single client process and with one scene or one command in flight
at a time, works through items until --seconds is used up:

  rendered  scenes through the README walkthrough, `synth` to `eval`, by
            `rebartie.cli.main(argv)` in a scratch directory, with
            perception reading the rendered bundle/disparity.txt
  stereo    the same scenes, with perception starting at `disparity` on
            left.pgm/right.pgm and reading matched.txt
  tie-link  seeded base-frame target sets through `frames.sequence_ties`
            and `robot.execute_sequence(skip_on_error)`

Every named metric is printed with its unit and sample count, and the last
line is one JSON object for the harness: the end-to-end metrics with
--trace 0, the per-layer metrics (spans.PER_LAYER) with --trace 1.
See perfbench/README.md for the metrics, checks and seeds.
"""

import argparse
import io
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("rendered", "stereo", "tie-link")
SETUP_REPEATS = 3
MAX_SCENES = 64  # the number of scene-spec files set-up writes
SIM_START_TIMEOUT_S = 60.0
SAI_BOUND_MM = 10.0  # acceptance criterion 5
STEREO_1PX_MIN = 0.90  # acceptance criterion 4
ROW_TOLERANCE = 0.05  # PipelineConfig default

# Scene checks that fail on the stereo path because of a known, open
# defect (ROADMAP item 1: from the matched disparity the layer split puts
# the far layer on the background plane, and no node matches). They are
# counted in error_frac and named in the report, but they do not count as a
# failed operation in the result line. Make them hard checks once item 1
# is fixed.
KNOWN_DEFECTS = {"stereo": ("criterion 5",)}

# The metrics of the result line: the ones every workload measures, and
# never 0. The rest of REPORT_ORDER is printed by name above it.
END_TO_END = (
    ("setup_s", "s"),
    ("item_s", "s"),
    ("peak_rss_mb", "MB"),
)


class StepFailed(Exception):
    pass


class TimedClient:
    """RobotClient stand-in for execute_sequence that times each send."""

    def __init__(self, client):
        self.client = client
        self.rtts = []

    def send(self, cmd):
        t0 = perf_counter()
        resp = self.client.send(cmd)
        self.rtts.append(perf_counter() - t0)
        return resp

    def close(self):
        self.client.close()


class Item:
    """One scene or tie sequence: timings, quality numbers, failed checks."""

    def __init__(self, ident):
        self.id = ident
        self.wall_s = None
        self.times = {}
        self.quality = {}
        self.hard = []  # failed operations and checks: the item failed
        self.known = []  # checks failing by a known defect (KNOWN_DEFECTS)
        self.trace = {}


def keep_going(elapsed, durations, seconds):
    """Start another item when it should end nearer the deadline than the
    last one did: the item count rounds seconds / item time."""
    if not durations:
        return True
    est = statistics.median(durations)
    return elapsed + est <= seconds + est / 2.0


def tail(values):
    """(percentile, value) for the highest of p99.9/p99/p95/p90 with at
    least ten samples beyond it, or None."""
    for p in (99.9, 99.0, 95.0, 90.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(values, p))
    return None


def read_disparity_text(path):
    with open(path) as f:
        w, h = (int(v) for v in f.readline().split())
        return np.fromstring(f.read(), sep=" ").reshape(h, w)


def read_planes_text(path):
    fields = {}
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if parts:
            fields[parts[0]] = parts[1:]
    normal = np.array([float(v) for v in fields["normal"]])
    scale = np.linalg.norm(normal)
    return (
        normal / scale,
        float(fields["offset_near"][0]) / scale,
        float(fields["offset_far"][0]) / scale,
    )


def read_keyvalues(path):
    return dict(line.split("=", 1) for line in Path(path).read_text().split())


def pgm_to_ppm(src, dst):
    """Gray P5 (as rebartie writes it) to the binary P6 that `mask` reads."""
    _magic, size, _maxval, pixels = Path(src).read_bytes().split(b"\n", 3)
    w, h = (int(v) for v in size.split())
    gray = np.frombuffer(pixels, dtype=np.uint8, count=w * h)
    Path(dst).write_bytes(f"P6\n{w} {h}\n255\n".encode() + np.repeat(gray, 3).tobytes())


class Run:
    def __init__(self, args, import_s):
        from rebartie import cli, frames, robot

        import spans

        self.cli, self.frames, self.robot, self.spans = cli, frames, robot, spans
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.import_s = import_s
        self.tracer = spans.Tracer() if args.trace else None
        self.work = WORK / f"run-{args.workload}-{args.seed}-{id(self):x}"
        self.inputs = self.work / "inputs"
        self.sim = None
        self.port = None
        self.items = []
        self.rtts = array("d")  # every send's wait on tie-link, in seconds
        self.setup_times = []

    # -- set-up --------------------------------------------------------------

    def setup(self):
        """Write the input files and start the controller, SETUP_REPEATS
        times; the last controller serves the run."""
        if self.workload == "tie-link":
            # Client and controller share one CPU, so a round trip is the
            # two processes' own work. Across CPUs it also waits for a
            # cross-CPU wake-up, which on a shared 2-CPU machine varied 5x
            # from run to run. The scene workloads keep every CPU.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        for _ in range(SETUP_REPEATS):
            self._stop_sim()
            shutil.rmtree(self.inputs, ignore_errors=True)
            t0 = perf_counter()
            self.inputs.mkdir(parents=True)
            (self.inputs / "calibration.txt").write_text(inputs.CALIBRATION)
            if self.workload != "tie-link":
                for k in range(MAX_SCENES):
                    (self.inputs / f"scene{k}.txt").write_text(inputs.scene_spec(self.seed, k))
            self._start_sim()
            self.setup_times.append(perf_counter() - t0)

    def _start_sim(self):
        self.sim = subprocess.Popen(
            [sys.executable, str(HERE / "sim.py"), "--seed", str(self.seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        ready, _, _ = select.select([self.sim.stdout], [], [], SIM_START_TIMEOUT_S)
        line = self.sim.stdout.readline() if ready else ""
        if not line.startswith("port "):
            raise RuntimeError(f"simulated controller did not start: {line!r}")
        self.port = int(line.split()[1])

    def _stop_sim(self):
        if self.sim is None:
            return
        self.sim.stdin.close()  # the controller exits at end of input
        try:
            self.sim.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.sim.kill()
            self.sim.wait()
        self.sim.stdout.close()
        self.sim = None

    def close(self):
        self._stop_sim()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- measurement ---------------------------------------------------------

    def measure(self):
        if self.tracer is None and self.spans.wrapped_targets():
            raise RuntimeError("tracing wrappers installed in an untraced run")
        run_item = self._tie_item if self.workload == "tie-link" else self._scene_item
        if self.tracer is not None:
            self.tracer.install()
        try:
            start = perf_counter()
            durations = []
            limit = float("inf") if self.workload == "tie-link" else MAX_SCENES
            while len(durations) < limit and keep_going(
                perf_counter() - start, durations, self.seconds
            ):
                item = Item(len(self.items))
                self.items.append(item)
                if self.tracer is not None:
                    self.tracer.item = item.id
                t0 = perf_counter()
                try:
                    run_item(item)
                except StepFailed as e:
                    item.hard.append(str(e))
                except Exception as e:  # an escaped traceback is a failed item
                    item.hard.append(f"{type(e).__name__}: {e}")
                durations.append(perf_counter() - t0)
                item.wall_s = sum(item.times.values())
        finally:
            if self.tracer is not None:
                self.tracer.remove()
        if self.tracer is None and self.spans.wrapped_targets():
            raise RuntimeError("tracing wrappers installed in an untraced run")

    def _cli(self, argv, traced=True):
        """One subcommand in-process, its output captured; returns seconds."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            if self.tracer is not None and traced:
                with self.tracer.span("cli." + argv[0]):
                    rc = self.cli.main(argv)
            else:
                rc = self.cli.main(argv)
            secs = perf_counter() - t0
        if rc != 0:
            raise StepFailed(f"{argv[0]} exited {rc}: {err.getvalue().strip()}")
        return secs

    def _timed(self, item, name, region):
        """(seconds, result) of region(traced).

        A traced run calls it twice on the same input, under a span `name`
        and with the wrappers lifted, in alternating order from item to
        item, so that trace.overhead_s is a paired difference; the traced
        call's seconds and result are returned.
        """
        if self.tracer is None:
            t0 = perf_counter()
            result = region(False)
            return perf_counter() - t0, result
        for traced in (True, False) if item.id % 2 == 0 else (False, True):
            if traced:
                with self.tracer.span(name) as root:
                    result = region(True)
                item.trace["trace.traced_s"] = root.duration
                item.trace["trace.unattributed_s"] = self.tracer.self_time(root)
            else:
                with self.tracer.paused():
                    t0 = perf_counter()
                    region(False)
                    item.trace["trace.untraced_s"] = perf_counter() - t0
        t = item.trace
        t["trace.overhead_s"] = t["trace.traced_s"] - t["trace.untraced_s"]
        return t["trace.traced_s"], result

    def _scene_item(self, item):
        d = self.work / f"scene{item.id}"
        bundle = d / "bundle"
        for sub in ("traced", "plain"):
            (d / sub).mkdir(parents=True)
        try:
            item.times["synth"] = self._cli(
                ["synth", self.inputs / f"scene{item.id}.txt", "--out", bundle]
            )
            pgm_to_ppm(bundle / "left.pgm", d / "image.ppm")

            def perception(traced):
                out = d / ("traced" if traced else "plain")
                self._perception(bundle, d / "image.ppm", out, traced)
                return out

            item.times["perception"], out = self._timed(item, "perception", perception)
            ties = out / "ties.txt"
            item.times["tie"] = self._cli([
                "tie", ties, f"127.0.0.1:{self.port}",
                "--report-out", out / "report.txt",
                "--metrics-out", out / "tce.txt",
                "--tie-policy", "skip_on_error",
            ])
            item.times["eval"] = self._cli(
                ["eval", ties, bundle / "gt_nodes.txt", "--out", out / "metrics.txt"]
            )
            self._check_scene(item, bundle, out)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _perception(self, bundle, image, out, traced):
        disparity = bundle / "disparity.txt"
        steps = []
        if self.workload == "stereo":
            disparity = out / "matched.txt"
            steps.append(["disparity", bundle / "left.pgm", bundle / "right.pgm", "--out", disparity])
        steps += [
            ["cloud", disparity, "--out", out / "cloud.ply"],
            ["planes", out / "cloud.ply", "--out", out / "planes.txt"],
            ["mask", out / "cloud.ply", out / "planes.txt", image,
             "--mask-out", out / "mask.pgm", "--filtered-out", out / "filtered.ppm"],
            ["nodes", bundle / "labels.txt", out / "planes.txt",
             self.inputs / "calibration.txt", "--out", out / "ties.txt"],
        ]
        for argv in steps:
            self._cli(argv, traced)

    def _check_scene(self, item, bundle, out):
        q = item.quality
        n_gt = len(Path(bundle / "gt_nodes.txt").read_text().splitlines())
        m = read_keyvalues(out / "metrics.txt")
        matched = int(m["matched"])
        sai = float(m["sai_mm"]) if "sai_mm" in m else None
        q.update(n_gt=n_gt, matched=matched, sai_mm=sai)
        if not (matched == n_gt and sai is not None and sai <= SAI_BOUND_MM):
            shown = "absent" if sai is None else f"{sai:.3f} mm"
            msg = f"criterion 5: matched {matched}/{n_gt}, SAI {shown}"
            known = "criterion 5" in KNOWN_DEFECTS.get(self.workload, ())
            (item.known if known else item.hard).append(msg)

        n_ties = len((out / "ties.txt").read_text().splitlines())
        outcomes = [
            line.split() for line in (out / "report.txt").read_text().splitlines()
            if line.startswith("tie ")
        ]
        ok = sum(1 for o in outcomes if o[2] == "ok")
        bad = [o for o in outcomes if o[2] != "ok" and o[3:5] != ["tie", "4"]]
        if len(outcomes) != n_ties or bad:
            item.hard.append(f"tie report: {len(outcomes)}/{n_ties} outcomes, unexpected {bad[:3]}")
        q.update(ties=len(outcomes), tie_ok=ok, ties_per_s=len(outcomes) / item.times["tie"])

        n_det, near_det, far_det = read_planes_text(out / "planes.txt")
        n_gt_plane, near_gt, far_gt = read_planes_text(bundle / "planes.txt")
        sign = 1.0 if n_det @ n_gt_plane >= 0 else -1.0
        q["plane_angle_deg"] = float(np.degrees(np.arccos(min(1.0, abs(n_det @ n_gt_plane)))))
        q["plane_offset_mm"] = 1000.0 * max(
            abs(sign * near_det - near_gt), abs(sign * far_det - far_gt)
        )

        if self.workload == "stereo":
            pred = read_disparity_text(out / "matched.txt")
            gt = read_disparity_text(bundle / "disparity.txt")
            valid = gt >= 0
            good = valid & (pred >= 0) & (np.abs(pred - gt) <= 1.0)
            q["stereo_1px_frac"] = float(good.sum() / valid.sum())
            if q["stereo_1px_frac"] < STEREO_1PX_MIN:
                item.hard.append(f"criterion 4: stereo_1px_frac {q['stereo_1px_frac']:.4f}")

    def _tie_item(self, item):
        pts, outside = inputs.tie_targets(self.seed, item.id)

        def dispatch(traced):
            ties = self.frames.sequence_ties(pts, ROW_TOLERANCE)
            client = TimedClient(self.robot.RobotClient("127.0.0.1", self.port))
            try:
                report = self.robot.execute_sequence(ties, client, self.robot.SKIP_ON_ERROR)
            finally:
                client.close()
            return ties, report, client.rtts

        item.times["dispatch"], (ties, report, rtts) = self._timed(item, "tie-link", dispatch)
        if self.tracer is None:
            self.rtts.extend(rtts)
        self._check_ties(item, pts, outside, ties, report)

    def _check_ties(self, item, pts, outside, ties, report):
        n = len(pts)
        got = np.array([t.position for t in ties]).reshape(-1, 3)
        if [t.sequence_index for t in ties] != list(range(n)) or not np.array_equal(
            got[np.lexsort(got.T)], pts[np.lexsort(pts.T)]
        ):
            item.hard.append("sequence_ties: not a sequenced permutation of the targets")
            return
        center = np.asarray(inputs.WORKSPACE_CENTER)
        out_of_reach = np.linalg.norm(got - center, axis=1) > inputs.WORKSPACE_RADIUS
        if report.attempted != n or out_of_reach.sum() != outside.sum():
            item.hard.append(f"execute_sequence: {report.attempted}/{n} attempted")
        wrong = 0
        for o in report.outcomes:
            if out_of_reach[o.sequence_index]:
                wrong += not (not o.success and o.stage == "move" and o.code == 2)
            else:
                wrong += not (o.success or (o.stage == "tie" and o.code == 4))
        if wrong:
            item.hard.append(f"execute_sequence: {wrong} outcomes break the workspace rules")
        item.quality.update(
            ties=report.attempted,
            tie_ok=report.successes,
            ties_per_s=report.attempted / item.times["dispatch"],
        )

    # -- results -------------------------------------------------------------

    def end_to_end(self):
        """{name: (value or None, unit, n, note)} for every reported metric."""
        items = self.items

        def q(key):
            return [i.quality[key] for i in items if i.quality.get(key) is not None]

        def med(xs):
            return statistics.median(xs) if xs else None

        walls = [i.wall_s for i in items]
        ties = sum(q("ties"))
        rows = {
            "setup_s": (
                self.import_s + statistics.median(self.setup_times), "s", len(self.setup_times),
                f"client import {self.import_s:.3f} s once + median of set-ups",
            ),
            "item_s": (med(walls), "s", len(walls), "wall time per "
                       + ("target set" if self.workload == "tie-link" else "scene, synth to eval")),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1,
                "client process high-water mark",
            ),
            "ties_per_s": (med(q("ties_per_s")), "1/s", len(q("ties_per_s")), "ties attempted per "
                           "second of " + ("sequencing + dispatch" if self.workload == "tie-link"
                                           else "the tie subcommand")),
            "tce_percent": (100.0 * sum(q("tie_ok")) / ties if ties else None, "%", ties, "ties"),
        }
        for step, name in (("synth", "synth_s"), ("perception", "perception_s")):
            xs = [i.times[step] for i in items if step in i.times]
            rows[name] = (med(xs), "s", len(xs), _tail_note(xs))
        ms = np.asarray(self.rtts) * 1000.0
        rows["cmd_rtt_ms_p50"] = (
            float(np.median(ms)) if len(ms) else None, "ms", len(ms),
            _tail_note(ms) if len(ms) else "tie-link only",
        )
        failed_any = [i for i in items if i.hard or i.known]
        rows["error_frac"] = (len(failed_any) / len(items), "frac", len(items), "")
        n_gt = sum(q("n_gt"))
        rows["sai_mm"] = (med(q("sai_mm")), "mm", len(q("sai_mm")), "median over scenes with a match")
        rows["nodes_matched_frac"] = (sum(q("matched")) / n_gt if n_gt else None, "frac", n_gt, "nodes")
        rows["stereo_1px_frac"] = (med(q("stereo_1px_frac")), "frac", len(q("stereo_1px_frac")), "")
        for name, unit in (("plane_angle_deg", "deg"), ("plane_offset_mm", "mm")):
            rows[name] = (max(q(name)) if q(name) else None, unit, len(q(name)), "max over scenes and layers")
        return rows

    def result(self):
        failed = sum(1 for i in self.items if i.hard)
        if self.tracer is None:
            rows = self.end_to_end()
            self._print_rows(rows, REPORT_ORDER)
            metrics = {name: {"value": rows[name][0], "unit": unit} for name, unit in END_TO_END}
        else:
            per_layer = self.spans.layer_metrics(self.tracer, {i.id: i.trace for i in self.items})
            units = dict(self.spans.PER_LAYER)
            self._print_rows(
                {k: (v, units[k], n, "") for k, (v, n) in per_layer.items()}, list(units)
            )
            WORK.mkdir(exist_ok=True)
            self.tracer.write(WORK / f"spans-{self.workload}.jsonl")
            metrics = {name: {"value": per_layer[name][0], "unit": units[name]} for name in units}
        print("  item wall s: " + " ".join(f"{i.wall_s:.3f}" for i in self.items))
        for item in self.items:
            for msg in item.hard:
                print(f"  FAILED item {item.id}: {msg}")
            for msg in item.known:
                print(f"  known defect, item {item.id}: {msg}")
        return {
            "correct": failed == 0,
            "attempted": len(self.items),
            "failed": failed,
            "metrics": metrics,
        }

    def _print_rows(self, rows, order):
        mode = "traced" if self.tracer is not None else "untraced"
        print(f"perfbench {self.workload} seed={self.seed} {mode}: {len(self.items)} items")
        for name in order:
            value, unit, n, note = rows[name]
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"  {name:<45} {shown:>12} {unit:<6} n={n:<7} {note}")


REPORT_ORDER = (
    "setup_s", "item_s", "synth_s", "perception_s", "ties_per_s", "cmd_rtt_ms_p50",
    "peak_rss_mb", "error_frac", "sai_mm", "nodes_matched_frac",
    "stereo_1px_frac", "plane_angle_deg", "plane_offset_mm", "tce_percent",
)


def _tail_note(values):
    t = tail(values)
    return "no tail (fewer than 20 samples)" if t is None else f"p{t[0]:g} {t[1]:.6g}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rebartie" / "__init__.py").is_file():
        print(f"perfbench: no rebartie sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated run still stops its controller and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    t0 = perf_counter()
    import rebartie.cli  # noqa: F401  (the client's import is part of set-up)

    import_s = perf_counter() - t0
    run = Run(args, import_s)
    try:
        run.setup()
        run.measure()
        result = run.result()
    finally:
        run.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
