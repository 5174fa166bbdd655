"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

1. Tracing wrappers: installing replaces every target, removing restores
   the original objects, and an untraced run calls the originals at every
   subcommand while a traced run calls them only in its untraced passes.
2. A short run of each workload, untraced and traced, prints every named
   metric with its unit and sample count; the result line holds exactly
   the metrics BENCHMARK.json lists.
3. On each scene workload the layers' self times add up to the untraced
   perception_s within the tracing overhead plus the untraced remainder of
   cli.

Exits 0 when every check holds.
"""

import json
import subprocess
import sys
from argparse import Namespace

import run

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402

FAILURES = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def targets_are(objects):
    return all(
        getattr(owner, attr) is obj for (owner, attr, _, _), obj in zip(spans.TARGETS, objects)
    )


def test_wrappers():
    originals = [getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS]
    check(not spans.wrapped_targets(), "no wrappers before tracing")
    tracer = spans.Tracer()
    tracer.install()
    try:
        check(len(spans.wrapped_targets()) == len(spans.TARGETS), "install wraps every target")
        with tracer.paused():
            check(targets_are(originals), "paused tracer restores the originals")
    finally:
        tracer.remove()
    check(targets_are(originals), "remove restores the original objects")

    seen = []

    class CheckedRun(run.Run):
        def _cli(self, argv, traced=True):
            tracing = self.tracer is not None and bool(spans.wrapped_targets())
            seen.append((self.tracer is not None, tracing, targets_are(originals)))
            return super()._cli(argv, traced)

    for trace in (0, 1):
        r = CheckedRun(Namespace(workload="rendered", seed=1, seconds=0.0, trace=trace), 0.0)
        try:
            r.setup()
            r.measure()
        finally:
            r.close()
        check(not any(i.hard for i in r.items), f"in-process rendered item, trace={trace}")
    untraced = [s for s in seen if not s[0]]
    traced = [s for s in seen if s[0]]
    check(untraced and all(orig for _, _, orig in untraced),
          f"untraced run: originals at all {len(untraced)} subcommands")
    check(any(tracing for _, tracing, _ in traced) and all(
        orig != tracing for _, tracing, orig in traced),
        "traced run: wrapped in traced passes, originals in untraced passes")
    check(targets_are(originals), "originals restored after the traced run")


def run_workload(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=run.ROOT,
    )
    print(proc.stdout, end="")
    print(proc.stderr, end="", file=sys.stderr)
    check(proc.returncode == 0, f"{workload} trace={trace} exits 0")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def closure(workload):
    """Self times under the perception span of item 0, from the spans file."""
    rows = [json.loads(line) for line in open(run.WORK / f"spans-{workload}.jsonl")]
    child = [0.0] * len(rows)
    for name, item, parent, start, end, _ in rows:
        if parent is not None:
            child[parent] += end - start
    root = next(i for i, r in enumerate(rows) if r[0] == "perception" and r[1] == 0)
    under = {root}
    layers = cli_self = 0.0
    for i, (name, item, parent, start, end, _) in enumerate(rows):
        if parent in under:
            under.add(i)
            self_s = end - start - child[i]
            if name.startswith("cli."):
                cli_self += self_s
            else:
                layers += self_s
    traced = rows[root][4] - rows[root][3]
    return traced, traced - child[root], layers, cli_self


def main():
    test_wrappers()
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            report, result = run_workload(workload, trace)
            names = [m["name"] for m in declared[key]]
            label = f"{workload} trace={trace}"
            check(list(result["metrics"]) == names, f"{label}: result metrics = BENCHMARK.json {key}")
            check(result["correct"] and result["failed"] == 0, f"{label}: no failed item")
            printed = {line.split()[0] for line in report if line.startswith("  ")}
            wanted = set(run.REPORT_ORDER) if trace == 0 else {n for n, _ in spans.PER_LAYER}
            check(wanted <= printed, f"{label}: every named metric printed")
            if trace == 1 and workload != "tie-link":
                m = {k: v["value"] for k, v in result["metrics"].items()}
                traced, unattributed, layers, cli_self = closure(workload)
                untraced = m["trace.untraced_s"]
                overhead = traced - untraced
                print(f"      perception_s untraced {untraced:.4f} s = layer self times "
                      f"{layers:.4f} + cli remainder {cli_self:.4f} + unattributed "
                      f"{unattributed:.6f} - overhead {overhead:.4f}")
                check(abs(untraced - layers) <= abs(overhead) + cli_self + unattributed + 1e-9,
                      f"{workload}: layer self times add up to perception_s")
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
