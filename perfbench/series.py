#!/usr/bin/env python3
"""Run one workload over several seeds and summarise each metric.

    python3 perfbench/series.py --workload census --seeds 1-10
    python3 perfbench/series.py --compare perfbench/out/a.jsonl perfbench/out/b.jsonl

Each run's result line is appended to perfbench/out/series-<workload>-<time>.jsonl.
The summary gives, per metric, the median, the quartiles
(statistics.quantiles, n=4), the spread (interquartile distance over the
median) and the failed share.  --compare reads two such files and gives, per
workload and metric, the drift of the second median from the first as a share
of the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out += range(int(low), int(high or low) + 1)
    return out


def summary(rows: list[dict]) -> dict:
    out = {}
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None}
    return out


def load(path: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        row = json.loads(line)
        by_workload.setdefault(row["workload"], []).append(row)
    return by_workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)

    if args.compare:
        first, second = (load(p) for p in args.compare)
        if set(first) != set(second):
            parser.error(f"the files hold different workloads: {sorted(first)} "
                         f"and {sorted(second)}")
        for workload in first:
            a, b = summary(first[workload]), summary(second[workload])
            for name in a:
                base = a[name]["median"]
                drift = (f"{(b[name]['median'] - base) / base:+.3f}" if base else "n/a")
                print(f"{workload:12s} {name:14s} {base:12.4f} "
                      f"{b[name]['median']:12.4f} drift {drift}")
        return 0

    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    seconds = str(json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"series-{args.workload}-{time.strftime('%Y%m%dT%H%M%S')}.jsonl"
    rows = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds", seconds,
                               "--trace", "0"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        row.update(workload=args.workload, seed=seed)
        rows.append(row)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row) + "\n")
        print(f"seed {seed}: correct={row['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in row["metrics"].items()), flush=True)
    failed = {r["failed"] / r["attempted"] for r in rows}
    print(f"{path.relative_to(HERE.parent)}: {len(rows)} runs, "
          f"correct={all(r['correct'] for r in rows)}, failed shares {sorted(failed)}")
    for name, s in summary(rows).items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
        print(f"{name:40s} median {s['median']:12.4f}  q1 {s['q1']:12.4f}  "
              f"q3 {s['q3']:12.4f}  spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
