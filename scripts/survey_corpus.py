#!/usr/bin/env python3
"""Survey a corpus of graded rings: dimension, trace chain, classification.

Loads every .ring file in a directory and prints one block per ring with the
full chain of trace ideals, nearly-regularity, regularity (when the reduced
flag is present), and the polynomial rank.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from difftrace.groebner import BudgetExceededError, step_budget
from difftrace.ringfile import RingFileError, load_ring
from difftrace.traces import (
    diff_trace,
    is_nearly_regular,
    is_regular_via_trace,
    polynomial_rank,
)


@dataclass
class SurveyConfig:
    ring_dir: Path
    max_steps: int = 2_000_000


def parse_config(argv: list[str]) -> SurveyConfig:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("ring_dir", nargs="?", default="rings", type=Path,
                        help="directory of .ring files (default: rings/)")
    parser.add_argument("--max-steps", type=int, default=2_000_000)
    args = parser.parse_args(argv)
    return SurveyConfig(ring_dir=args.ring_dir, max_steps=args.max_steps)


def ideal_text(algebra, handle) -> str:
    gens = [str(g) for g in algebra.presented_generators(handle)]
    return "(" + (", ".join(gens) if gens else "0") + ")"


def survey_one(path: Path, config: SurveyConfig) -> None:
    description = load_ring(str(path))
    algebra = description.algebra
    sig = algebra.sig
    variables = ", ".join(
        name if weight == 1 else f"{name}({weight})"
        for name, weight in zip(sig.names, sig.weights))
    print(f"== {path.name}: Q[{variables}] / "
          f"({', '.join(map(str, algebra.defining.gens)) or '0'})")
    with step_budget(config.max_steps):
        dim = algebra.dimension
        print(f"   dimension {dim}")
        for k in range(dim + 2):
            print(f"   trace of wedge^{k}: {ideal_text(algebra, diff_trace(algebra, k))}")
        print(f"   nearly regular: {is_nearly_regular(algebra)}")
        if algebra.asserted_reduced:
            print(f"   regular: {is_regular_via_trace(algebra)}")
        print(f"   polynomial rank: {polynomial_rank(algebra)}")


def main(argv: list[str]) -> int:
    config = parse_config(argv)
    paths = sorted(config.ring_dir.glob("*.ring"))
    if not paths:
        print(f"no .ring files under {config.ring_dir}", file=sys.stderr)
        return 1
    for path in paths:
        try:
            survey_one(path, config)
        except RingFileError as exc:
            print(f"== {path.name}: skipped ({exc})", file=sys.stderr)
        except BudgetExceededError:
            print("   step budget exhausted; rerun with a larger --max-steps",
                  file=sys.stderr)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
