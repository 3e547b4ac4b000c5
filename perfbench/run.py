#!/usr/bin/env python3
"""Benchmark for difftrace: one workload per run, every metric printed by name.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

Workloads: census, hard_traces, cli_corpus (see perfbench/README.md).  With
--trace 0 the workload runs untraced in a fresh interpreter, and more fresh
interpreters, before and after it, time its set-up again (at least three
set-ups in all, up to 15 until they add up to 2 s); the last line of stdout
is one JSON object with the end-to-end metrics.  With --trace 1 one
interpreter runs a round with spans on the layers' public functions and
another runs the profiled pass; the metrics are the per-layer ones.  --quick
runs each workload's checks on a tiny input in seconds.

Exit code 0 when the run finished; the result's "correct" says whether every
check passed.  Exit code 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Fresh set-ups per run: at least SETUP_MIN, then more until SETUP_TOTAL_S of
# set-up time, at most SETUP_MAX.  A set-up of 0.2 s is mostly interpreter
# start-up and imports; only a median over many set-ups, spread over the run,
# evens out the machine's drift.
SETUP_MIN, SETUP_MAX, SETUP_TOTAL_S = 3, 15, 2.0
DEADLINE_S = 170  # a run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile keeps at least this many items beyond it


def spawn(args, mode: str, deadline: float, extra=()) -> dict:
    """Run worker.py in a fresh single-threaded interpreter; its last stdout line."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--mode", mode, *extra]
    if args.quick:
        argv.append("--quick")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError(f"no time left for the {mode} process")
    spawned_at = time.monotonic()
    proc = subprocess.run(argv + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """The item time at the highest percentile with TAIL_BEYOND items beyond
    it, and that percentile.  With fewer items, the slowest item (100)."""
    ordered = sorted(times)
    last = len(ordered) - 1
    rank = last - TAIL_BEYOND if last >= TAIL_BEYOND else last
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def setups_until(args, deadline: float, setups: list[float], least: int,
                 total_s: float, most: int) -> None:
    """Time fresh set-ups into setups until it holds `least` and adds up to
    `total_s`, or holds `most`."""
    while len(setups) < least or (sum(setups) < total_s and len(setups) < most):
        setups.append(spawn(args, "setup", deadline)["setup_s"])


def untraced(args, deadline: float) -> dict:
    # Half the set-ups before the timed process and half after it: the
    # machine's speed drifts over seconds, and set-ups taken back to back
    # all land in one slow or fast spell.
    setups: list[float] = []
    setups_until(args, deadline, setups, 1, SETUP_TOTAL_S / 2, SETUP_MAX // 2)
    main = spawn(args, "timed", deadline)
    OUT.mkdir(exist_ok=True)
    (OUT / f"raw-{args.workload}-seed{args.seed}.json").write_text(json.dumps(main))
    setups.append(main["setup_s"])
    setups_until(args, deadline, setups, SETUP_MIN, SETUP_TOTAL_S, SETUP_MAX)
    rounds = main["rounds"]
    # each item's median over the rounds: a slow spell of the machine during
    # one round moves no item
    per_item = [statistics.median(times) for times in zip(*(r["item_s"] for r in rounds))]
    tail_s, tail_pct = tail(per_item)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(per_item), "s"),
        "item_p50_ms": (1000 * statistics.median(per_item), "ms"),
        "item_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "steps": (statistics.median_low(r["steps"] for r in rounds), "count"),
    }
    notes = {"rounds": len(rounds), "items_per_round": len(per_item),
             "tail_percentile": tail_pct, "setups_s": setups,
             "round_wall_s": [sum(r["item_s"]) for r in rounds],
             "distinct_steps_per_round": sorted({r["steps"] for r in rounds})}
    return _result(attempted=len(per_item) * len(rounds), main=main,
                   metrics=metrics, notes=notes)


def traced(args, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    spans = spawn(args, "traced", deadline, ["--trace-file", str(trace_file)])
    prof = spawn(args, "profiled", deadline)
    metrics = {name: tuple(value) for name, value in spans["metrics"].items()}
    for key, seconds in prof["profile"]["by_file"].items():
        metrics[f"{key}.self_s"] = (seconds, "s")
    metrics["profiled.total_s"] = (prof["profile"]["total"], "s")
    notes = {"trace_file": str(trace_file.relative_to(ROOT)),
             "profiled_items": prof["items"]}
    for line in prof["failures"]:
        print(f"FAILED in the profiled pass: {line}", file=sys.stderr)
    return _result(attempted=spans["items"], main=spans, metrics=metrics, notes=notes)


def _result(attempted: int, main: dict, metrics: dict, notes: dict) -> dict:
    for line in main["problems"]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    for line in main["failures"]:
        print(f"FAILED: {line}", file=sys.stderr)
    return {
        "correct": not main["problems"],
        "attempted": attempted,
        "failed": len(main["failures"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "notes": notes,
    }


def main(argv=None) -> int:
    missing = [p for p in ("src/difftrace/__init__.py", "rings", "tests/oracles.py")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: the source tree is incomplete, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.dont_write_bytecode = True  # as in the workers, whose set-up is timed
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="least item time a run measures; it repeats whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs: checks only, in seconds")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 0.0
    deadline = time.monotonic() + DEADLINE_S
    try:
        result = traced(args, deadline) if args.trace else untraced(args, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    notes = result.pop("notes")
    print(json.dumps(notes), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
