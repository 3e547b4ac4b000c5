#!/usr/bin/env python3
"""Census of small simplicial complexes: combinatorics against algebra.

For every isomorphism class of complexes on at most --vertices vertices whose
components are all pure, decide nearly-regularity twice: once from the facet
structure, once from the trace ideal chain of the face ring.  Reports any
disagreement (exit code 1) plus a summary table.
"""

from __future__ import annotations

import argparse
import sys
import time

from difftrace.simplicial import (
    combinatorial_nearly_regular,
    iso_classes,
    stanley_reisner_algebra,
)
from difftrace.traces import is_nearly_regular


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=5,
                        help="largest vertex count to sweep (default 5)")
    parser.add_argument("--verbose", action="store_true",
                        help="print every complex, not only disagreements")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    disagreements = 0
    checked = 0
    positives = 0
    for delta in iso_classes(args.vertices):
        if not all(piece.is_pure for piece in delta.components):
            continue
        checked += 1
        combinatorial = combinatorial_nearly_regular(delta)
        algebraic = is_nearly_regular(stanley_reisner_algebra(delta))
        positives += combinatorial
        if combinatorial != algebraic:
            disagreements += 1
            print(f"DISAGREE {delta.describe()}: "
                  f"combinatorial={combinatorial} algebraic={algebraic}")
        elif args.verbose:
            print(f"ok {delta.describe()}: nearly regular = {combinatorial}")
    elapsed = time.perf_counter() - started
    print(f"checked {checked} classes on <= {args.vertices} vertices "
          f"({positives} nearly regular) in {elapsed:.1f}s; "
          f"{disagreements} disagreement(s)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
