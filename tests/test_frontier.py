"""Exact step counts and generators of top traces at the frontier.

The 2x4 Segre cone (the 2x2 minors of a generic 2x4 matrix, variables in
row-major order) is the smallest cone whose top trace is a real module
Groebner basis of the frontier kind: 8 variables, target rank 56.  The 3x3
Segre cone is the next one up: 9 variables, target rank 126, about 0.3 s.
The Veronese of P^3 in degree 2 and the Veronese of P^2 in degree 3 (10
variables each) are the largest top traces pinned.
Each pin counts only the trace ("trace only": `diff_trace`, without
`presented_generators`): the defining ideal's basis and the dimension are
computed before the budget opens.  The stored generator strings are the
trace entries `trace_ideal` returns, in its order.  A rewrite of the
reduction kernel that makes the same reductions leaves both as they are.
`tests/data/presented.json` pins what `presented_generators` prints for the
same top traces: the minimal generators and the steps of that call alone.
`tests/data/frontier.json` only gets entries appended; a stored step count
moves only when the engine's pairs or reductions change, and the generator
strings never do.  To print the entries of both files from the code on the
path (only from code whose output is trusted):

    PYTHONPATH=src python tests/test_frontier.py
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from difftrace.constructions import veronese_algebra
from difftrace.groebner import step_budget
from difftrace.modsyz import matrix_minors
from difftrace.poly import Polynomial, RingSignature
from difftrace.rings import GradedAlgebra
from difftrace.traces import diff_trace

DATA = Path(__file__).resolve().parent / "data" / "frontier.json"
PRESENTED = DATA.with_name("presented.json")


def segre(p: int, q: int) -> GradedAlgebra:
    """The cone over P^(p-1) x P^(q-1): 2x2 minors of a generic p x q matrix."""
    sig = RingSignature.standard(*(f"x{i}{j}" for i in range(p) for j in range(q)))
    rows = [[Polynomial.variable(sig, i * q + j) for j in range(q)] for i in range(p)]
    return GradedAlgebra(sig, matrix_minors(rows, 2, sig))


def veronese(names: str, degree: int) -> GradedAlgebra:
    """The degree-c Veronese subring of the polynomial ring on the names."""
    return veronese_algebra(GradedAlgebra(RingSignature.standard(*names), []), degree)


CONES = {"top trace segre 2x4": lambda: segre(2, 4),
         "top trace segre 3x3": lambda: segre(3, 3),
         "top trace veronese P3": lambda: veronese("stuv", 2),
         "top trace veronese P2 degree 3": lambda: veronese("stu", 3)}


@functools.cache
def _cone(name: str):
    """The cone, its top trace and the steps of that trace alone."""
    algebra = CONES[name]()
    algebra.defining.groebner_basis
    dimension = algebra.dimension
    with step_budget(10 ** 12) as budget:
        handle = diff_trace(algebra, dimension)
    return algebra, handle, budget.used


def top_trace(name: str) -> dict:
    _, handle, steps = _cone(name)
    return {"steps": steps, "generators": [str(g) for g in handle.gens]}


def presented(name: str) -> dict:
    """The printed generators of the top trace, and the steps of
    `presented_generators` alone."""
    algebra, handle, _ = _cone(name)
    with step_budget(10 ** 12) as budget:
        gens = algebra.presented_generators(handle)
    return {"steps": budget.used, "generators": [str(g) for g in gens]}


@pytest.mark.parametrize("name", sorted(CONES))
def test_top_trace(name):
    stored = json.loads(DATA.read_text(encoding="utf-8"))[name]
    assert top_trace(name) == stored


@pytest.mark.parametrize("name", sorted(CONES))
def test_presented_generators(name):
    stored = json.loads(PRESENTED.read_text(encoding="utf-8"))[name]
    assert presented(name) == stored


if __name__ == "__main__":
    print(json.dumps({DATA.name: {name: top_trace(name) for name in sorted(CONES)},
                      PRESENTED.name: {name: presented(name) for name in sorted(CONES)}},
                     indent=1))
