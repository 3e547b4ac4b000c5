"""The CLI's --json stdout and exit codes, byte for byte, on the sample rings.

Every call below runs in process with `--json`; its exit code and stdout must
equal those stored in `tests/data/cli_bytes.json`.  The stored file was made
before the module Groebner engine lost its syzygy tag columns and its
all-pairs bookkeeping, so the test pins down that engine rewrites change no
answer.  The calls on the ring files with fractional coefficients under
`tests/data/rings/` were stored before the reduction loops moved to integer
coefficients, and the fiber products in more than 4 variables before the
tensor and fiber commands shared one body.  To write the file again from the
code on the path (only from code whose output is trusted):

    PYTHONPATH=src python tests/test_cli_bytes.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
import sys
from pathlib import Path

import pytest

from conftest import RING_FILES
from difftrace.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data" / "cli_bytes.json"
RINGS = [p.stem for p in RING_FILES]
# fractional coefficients; kept out of rings/, whose files the benchmark reads
RATIONAL_RINGS = sorted(
    (Path(__file__).resolve().parent / "data" / "rings").glob("*.ring"))
SR_FACETS = ("1 2; 3 4", "1 2; 2 3", "1 2 3; 4", "1 2; 2 3; 3 1")


def _ring(stem: str) -> str:
    return f"rings/{stem}.ring"


def calls() -> list[list[str]]:
    out = []
    for stem in RINGS:
        out.append(["classify", "--ring", _ring(stem)])
        out.append(["prank", "--ring", _ring(stem)])
        out += [["trace", "--ring", _ring(stem), "--power", str(k)] for k in range(4)]
        out.append(["singular", "--ring", _ring(stem), "--cross-check"])
        out.append(["veronese", "--ring", _ring(stem), "--degree", "2"])
    out += [["sr", "--facets", facets, "--verify-algebraic"] for facets in SR_FACETS]
    for a, b in itertools.combinations_with_replacement(RINGS, 2):
        out.append(["tensor", _ring(a), _ring(b), "--verify-formula"])
        out.append(["fiber", _ring(a), _ring(b), "--verify-formula"])
    for path in RATIONAL_RINGS:
        ring = path.relative_to(ROOT).as_posix()
        out.append(["classify", "--ring", ring])
        out.append(["prank", "--ring", ring])
        out += [["trace", "--ring", ring, "--power", str(k)] for k in range(4)]
        out.append(["singular", "--ring", ring, "--cross-check"])
        out.append(["tensor", _ring("node"), ring, "--verify-formula"])
    return out


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process call, run from the repo root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--json"])
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@functools.cache
def _stored() -> dict[str, dict]:
    return {" ".join(entry["argv"]): entry
            for entry in json.loads(DATA.read_text(encoding="utf-8"))}


def test_stored_calls_are_the_listed_calls():
    assert sorted(_stored()) == sorted(" ".join(argv) for argv in calls())


@pytest.mark.parametrize("argv", calls(), ids=" ".join)
def test_json_bytes_and_exit_code(argv):
    expected = _stored()[" ".join(argv)]
    code, stdout = run(argv)
    assert code == expected["exit"]
    assert stdout == expected["stdout"]


def test_no_state_between_calls():
    """The parser is built once per process; a budget given to one call is
    gone in the next."""
    assert run(["classify", "--ring", "rings/node.ring", "--max-steps", "3"]) == (3, "")
    code, stdout = run(["classify", "--ring", "rings/node.ring"])
    assert '"maxSteps": 1000000' in stdout
    expected = _stored()["classify --ring rings/node.ring"]
    assert (code, stdout) == (expected["exit"], expected["stdout"])


if __name__ == "__main__":
    entries = []
    for argv in calls():
        code, stdout = run(argv)
        entries.append({"argv": argv, "exit": code, "stdout": stdout})
        print(code, " ".join(argv), file=sys.stderr, flush=True)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
