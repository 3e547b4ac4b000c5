"""The CLI's human-mode stdout and exit codes on a fixed list of calls.

Every call below runs in process without `--json`; its exit code and stdout,
with the `elapsed:` line dropped, must equal those stored in
`tests/data/cli_human.json`.  The list reaches every branch of the human
renderer: each subcommand, the optional cross-checks of `singular`, `tensor`,
`fiber` and `sr`, an empty ideal, a complex with no minimal non-faces, and
`classify` on a ring without `assume: reduced`.  To write the file again from
the code on the path (only from code whose output is trusted):

    PYTHONPATH=src python tests/test_cli_human.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
from pathlib import Path

import pytest

from difftrace.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data" / "cli_human.json"
UNREDUCED = "tests/data/unreduced.ring"

CALLS = [
    ["trace", "--ring", "rings/cross.ring", "--power", "2"],
    ["trace", "--ring", "rings/cross.ring", "--power", "3"],
    ["trace", "--ring", "rings/cross.ring", "--power", "-1"],
    ["classify", "--ring", "rings/cross.ring"],
    ["classify", "--ring", "rings/whitney.ring"],
    ["classify", "--ring", UNREDUCED],
    ["singular", "--ring", "rings/whitney.ring"],
    ["singular", "--ring", "rings/whitney.ring", "--cross-check"],
    ["singular", "--ring", UNREDUCED],
    ["prank", "--ring", "rings/quadric.ring"],
    ["tensor", "rings/node.ring", "rings/cusp.ring"],
    ["tensor", "rings/node.ring", "rings/cusp.ring", "--verify-formula"],
    ["fiber", "rings/node.ring", "rings/node.ring"],
    ["fiber", "rings/node.ring", "rings/node.ring", "--verify-formula"],
    ["fiber", "rings/cross.ring", "rings/node.ring", "--verify-formula"],
    ["sr", "--facets", "1 2; 2 3"],
    ["sr", "--facets", "1 2; 3 4", "--verify-algebraic"],
    ["sr", "--facets", "1 2 3"],
    ["veronese", "--ring", "rings/plane.ring", "--degree", "2"],
    ["veronese", "--ring", "rings/node.ring", "--degree", "2"],
]


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout, less its `elapsed:` line, of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    lines = out.getvalue().splitlines(keepends=True)
    return code, "".join(line for line in lines if not line.startswith("elapsed: "))


@functools.cache
def _stored() -> dict[str, dict]:
    return {" ".join(entry["argv"]): entry
            for entry in json.loads(DATA.read_text(encoding="utf-8"))}


def test_stored_calls_are_the_listed_calls():
    assert sorted(_stored()) == sorted(" ".join(argv) for argv in CALLS)


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_human_stdout_and_exit_code(argv):
    expected = _stored()[" ".join(argv)]
    code, stdout = run(argv)
    assert code == expected["exit"]
    assert stdout == expected["stdout"]


if __name__ == "__main__":
    entries = []
    for argv in CALLS:
        code, stdout = run(argv)
        entries.append({"argv": argv, "exit": code, "stdout": stdout})
        print(code, " ".join(argv), file=sys.stderr, flush=True)
    DATA.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
