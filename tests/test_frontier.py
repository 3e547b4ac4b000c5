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
moves only when the engine's pairs or reductions change, and a generator
list only when `trace_ideal` keeps other copies of the same entries (it
keeps one of each p and -p).  The graded solver, which shares no code with
the kernel's signature loop, checks the pinned generators degree by degree.
To print the entries of both files from the code on the path (only from
code whose output is trusted):

    PYTHONPATH=src python tests/test_frontier.py
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from conftest import wedge_shifts
from oracles import QuotientSlices, oracle_span_dimension
from difftrace import graded
from difftrace.constructions import veronese_algebra
from difftrace.groebner import StepBudget, step_budget
from difftrace.modsyz import exterior_power_presentation, matrix_minors
from difftrace.poly import Polynomial, RingSignature, parse_polynomial
from difftrace.rings import GradedAlgebra
from difftrace.traces import diff_trace, kaehler_presentation

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


def graded_dimensions(algebra: GradedAlgebra, k: int, degrees) -> list[int]:
    """Degree by degree, the dimension over Q of the trace of the k-th
    wedge of the differentials as the graded solver finds it, with no
    Groebner basis of a module, under the default budget."""
    P = exterior_power_presentation(kaehler_presentation(algebra), k)
    shifts = wedge_shifts(algebra.sig, k)
    solver = graded._Quotient(algebra, StepBudget())
    entries = graded._relation_entries(P, shifts)
    return [len(graded._trace_piece(entries, shifts, solver, d)) for d in degrees]


def span_dimensions(algebra: GradedAlgebra, gens, degrees) -> list[int]:
    """Degree by degree, the dimension over Q of the ideal that gens
    generate, read in the quotient."""
    quotient = QuotientSlices(algebra.defining.gens, algebra.sig)
    return [oracle_span_dimension([(g,) for g in gens], [0], quotient, d) for d in degrees]


@pytest.mark.parametrize("name", sorted(CONES))
def test_pinned_generators_span_the_graded_trace(name):
    """The pinned top trace and the graded solver's agree in every degree up
    to one above the largest generator degree: a minimal generator lost
    from the pins shows as a smaller span."""
    algebra = CONES[name]()
    stored = json.loads(DATA.read_text(encoding="utf-8"))[name]["generators"]
    gens = [parse_polynomial(g, algebra.sig) for g in stored]
    degrees = range(max(g.homogeneous_degree() for g in gens) + 2)
    assert span_dimensions(algebra, gens, degrees) == \
        graded_dimensions(algebra, algebra.dimension, degrees)


@pytest.mark.parametrize("p, q", [(2, 4), (3, 3)])
def test_segre_trace_above_the_top(p, q):
    """One power above the dimension the trace of a Segre cone is zero in
    degrees 0 to 3 on both paths.  (The Veronese cones are left out: their
    graded solve there runs past the default budget in degree 4.)"""
    algebra = segre(p, q)
    k = algebra.dimension + 1
    degrees = range(4)
    assert graded_dimensions(algebra, k, degrees) == [0] * 4
    assert span_dimensions(algebra, diff_trace(algebra, k).gens, degrees) == [0] * 4


if __name__ == "__main__":
    print(json.dumps({DATA.name: {name: top_trace(name) for name in sorted(CONES)},
                      PRESENTED.name: {name: presented(name) for name in sorted(CONES)}},
                     indent=1))
