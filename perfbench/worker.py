"""One workload process: set-up, then items, then one JSON line on stdout.

Started by run.py in a fresh interpreter.  Modes:

- ``timed``: set up, then run whole rounds of items until --seconds of item
  time have passed (at least one round), timing each item and counting its
  reduction steps;
- ``setup``: set up only, to time set-up once more;
- ``traced``: wrap the layers' public functions, set up, run one round and
  report the per-layer span metrics;
- ``profiled``: set up, then run the workload's profiled items under
  cProfile and report the self time of poly.py and fractions.py.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def run_round(workload, on_item=None):
    """Run one round; returns (item names, item seconds, results by name,
    failures).

    The collector runs before each item, outside its time, so that no item
    pays for garbage an earlier one left.
    """
    names, times, results, failures = [], [], {}, []
    for item in workload.items():
        names.append(item.name)
        gc.collect()
        start = time.perf_counter()
        try:
            results[item.name] = item.run()
        except Exception:  # a failed operation is counted, not fatal
            failures.append(f"{item.name}: {traceback.format_exc(limit=3)}")
        times.append(time.perf_counter() - start)
        if on_item is not None:
            on_item(item)
    return names, times, results, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=["timed", "setup", "traced", "profiled"],
                        required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    import difftrace  # noqa: F401  (imports every layer)
    import tracing
    import workloads

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    recorder = tracing.StepRecorder()

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.quick, Path(workdir))
        setup_s = time.monotonic() - args.spawned_at
        report = {"setup_s": setup_s}
        if args.mode == "timed":
            report.update(_timed(workload, recorder, args.seconds))
        elif args.mode == "traced":
            report.update(_traced(workload, tracer, args.trace_file))
        elif args.mode == "profiled":
            report.update(_profiled(workload, tracing))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


def _timed(workload, recorder, seconds: float) -> dict:
    rounds, problems, failures = [], [], []
    timed = 0.0
    while not rounds or timed < seconds:
        recorder.take()
        steps = []
        names, times, results, failed = run_round(
            workload, on_item=lambda item: steps.append(recorder.take()))
        problems += workload.check(results)
        failures += failed
        rounds.append({"item_s": times, "steps": sum(steps)})
        timed += sum(times)
    return {"items": names, "rounds": rounds, "problems": problems, "failures": failures}


def _traced(workload, tracer, trace_file) -> dict:
    spans_before = len(tracer.spans)
    with tracer.root("round"):
        _, times, results, failures = run_round(workload)
    with tracer.paused():
        problems = workload.check(results)
    if trace_file is not None:
        tracer.dump(trace_file)
    metrics = tracer.metrics()
    metrics["traced.wall_s"] = (sum(times), "s")
    metrics["traced.spans"] = (len(tracer.spans) - spans_before, "count")
    return {"metrics": metrics, "items": len(times),
            "problems": problems, "failures": failures}


def _profiled(workload, tracing) -> dict:
    profile = cProfile.Profile()
    items = workload.profiled_items()
    failures = []
    for item in items:
        gc.collect()
        profile.enable()
        try:
            item.run()
        except Exception:
            failures.append(f"{item.name}: {traceback.format_exc(limit=3)}")
        finally:
            profile.disable()
    return {"profile": tracing.profile_by_file(profile), "items": len(items),
            "failures": failures}


if __name__ == "__main__":
    sys.exit(main())
