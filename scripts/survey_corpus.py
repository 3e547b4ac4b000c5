#!/usr/bin/env python3
"""Survey a corpus of graded rings: dimension, trace chain, classification.

Loads every .ring file in a directory and prints one block per ring: a header
naming the ring, then the report of `difftrace classify` with the full chain
of trace ideals, nearly-regularity, regularity (when the reduced flag is
present), and the polynomial rank.  A file that cannot be read, or that runs
out of its step budget, shows its error on stderr and the sweep goes on.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from difftrace import cli
from difftrace.ringfile import RingFileError, load_ring
from difftrace.rings import HomogeneityError


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("ring_dir", nargs="?", default="rings", type=Path,
                        help="directory of .ring files (default: rings/)")
    parser.add_argument("--max-steps", type=int, default=2_000_000)
    args = parser.parse_args(argv)
    paths = sorted(args.ring_dir.glob("*.ring"))
    if not paths:
        print(f"no .ring files under {args.ring_dir}", file=sys.stderr)
        return 1
    for path in paths:
        try:
            ring = load_ring(str(path)).algebra.describe()
        except (RingFileError, HomogeneityError) as exc:
            print(f"== {path.name}: skipped ({exc})", file=sys.stderr)
            continue
        print(f"== {path.name}: {ring}")
        cli.main(["classify", "--ring", str(path), "--max-steps", str(args.max_steps)])
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
