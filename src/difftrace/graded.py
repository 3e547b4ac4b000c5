"""Graded pieces of trace ideals, solved by linear algebra over Q.

R = Q[x]/I is graded by the weights of the variables, and so is the dual
Hom(M, R) of a module M presented on generators e_t of degrees shifts[t]: a
homomorphism of degree delta sends e_t into R_(delta + shifts[t]), and the
values v_t define one exactly when every relation column c pairs with them
to zero, sum_t c[t] v_t = 0 in R.  In one degree that is a finite linear
system over Q.  The degree-D piece of the trace ideal is the span of entry t
of the solutions of degree D - shifts[t], so a question about a few graded
pieces of a trace (does it hold the variables, does it hold 1) is settled by
Gaussian elimination, without a module Groebner basis of the whole trace.

Each R_d has the standard monomials of degree d as its basis: those that
lead no row of the echelon form of I_d, the span of the products m * g of
degree d with g a defining generator.  Every row subtraction ticks the
ambient step budget.  Nothing is kept between calls.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Sequence

from .groebner import StepBudget, current_budget
from .modsyz import ModulePresentation
from .poly import Exponents, Polynomial, RingSignature, mono_mul
from .rings import GradedAlgebra

Row = dict[Hashable, Fraction]


def monomials_of_weighted_degree(sig: RingSignature, degree: int) -> list[Exponents]:
    """All exponent tuples of exact weighted degree, in ascending lex order."""
    if degree < 0:
        return []
    out: list[Exponents] = []
    acc: list[int] = []

    def rec(i: int, left: int):
        if i == sig.nvars:
            if left == 0:
                out.append(tuple(acc))
            return
        w = sig.weights[i]
        for e in range(left // w + 1):
            acc.append(e)
            rec(i + 1, left - e * w)
            acc.pop()

    rec(0, degree)
    return out


def _reduce(pivots: dict, vec: Row, budget: StepBudget) -> Row:
    """vec less multiples of pivot rows until its largest key leads none."""
    vec = dict(vec)
    while vec:
        lead = max(vec)
        row = pivots.get(lead)
        if row is None:
            return vec
        budget.tick()
        c = vec[lead]
        for key, a in row.items():
            v = vec.get(key, 0) - c * a
            if v:
                vec[key] = v
            else:
                del vec[key]
    return vec


def _insert(pivots: dict, vec: Row, budget: StepBudget) -> None:
    """Add vec to the echelon form, as a monic row led by its largest key."""
    vec = _reduce(pivots, vec, budget)
    if vec:
        lead = max(vec)
        c = vec[lead]
        pivots[lead] = {key: a / c for key, a in vec.items()}


class _Quotient:
    """The graded pieces of R met during one call, each stored once complete."""

    def __init__(self, algebra: GradedAlgebra, budget: StepBudget):
        self.sig = algebra.sig
        self.gens = [(g, g.homogeneous_degree()) for g in algebra.defining.gens]
        self.budget = budget
        self._pivots: dict[int, dict[Exponents, Row]] = {}
        self._bases: dict[int, list[Exponents]] = {}

    def pivots(self, degree: int) -> dict[Exponents, Row]:
        """Echelon form of I_degree, each row led by its largest monomial."""
        got = self._pivots.get(degree)
        if got is None:
            got = {}
            for g, g_degree in self.gens:
                for m in monomials_of_weighted_degree(self.sig, degree - g_degree):
                    _insert(got, dict(g.mul_monomial(m).terms), self.budget)
            self._pivots[degree] = got
        return got

    def basis(self, degree: int) -> list[Exponents]:
        """The standard monomials of degree `degree`: a basis of R_degree."""
        got = self._bases.get(degree)
        if got is None:
            pivots = self.pivots(degree)
            got = [m for m in monomials_of_weighted_degree(self.sig, degree)
                   if m not in pivots]
            self._bases[degree] = got
        return got

    def coordinates(self, terms: dict[Exponents, Fraction], degree: int) -> Row:
        """The terms of a homogeneous element of R_degree, on the standard
        monomials."""
        pivots = self.pivots(degree)
        vec: Row = terms
        out: Row = {}
        while vec:
            vec = _reduce(pivots, vec, self.budget)
            if vec:
                lead = max(vec)
                out[lead] = vec.pop(lead)
        return out


def _kernel(entries: Sequence[list], shifts: Sequence[int], quotient: _Quotient,
            delta: int) -> list[dict[tuple[int, Exponents], Fraction]]:
    """A Q-basis of the degree-delta homomorphisms, each keyed by (t, m)
    for m a standard monomial of degree delta + shifts[t].

    entries[t] lists (relation index, terms, degree) of the entry at t of
    each relation nonzero at t.  The unknowns are the pairs (t, m).  Each one's
    row holds its image under the relations, keyed (1, relation index,
    monomial), and a tag (0, its index); tags sort below image keys, so the
    rows whose image eliminates to zero end led by a tag, and their tag
    parts span the kernel.
    """
    unknowns = [(t, m) for t, shift in enumerate(shifts)
                for m in quotient.basis(delta + shift)]
    pivots: dict = {}
    for i, (t, m) in enumerate(unknowns):
        row: Row = {(0, i): Fraction(1)}
        for index, terms, degree in entries[t]:
            image = {mono_mul(e, m): c for e, c in terms.items()}
            for e, c in quotient.coordinates(image, degree + delta + shifts[t]).items():
                row[(1, index, e)] = c
        _insert(pivots, row, quotient.budget)
    return [{unknowns[key[1]]: c for key, c in row.items()}
            for lead, row in pivots.items() if lead[0] == 0]


def _trace_piece(entries: Sequence[list], shifts: Sequence[int],
                 quotient: _Quotient, degree: int) -> dict[Exponents, Row]:
    """Echelon form of the degree-`degree` piece of the trace ideal in R:
    entry t of the kernel vectors of degree degree - shifts[t]."""
    pivots: dict[Exponents, Row] = {}
    for shift in sorted(set(shifts), reverse=True):
        for vector in _kernel(entries, shifts, quotient, degree - shift):
            for t, t_shift in enumerate(shifts):
                if t_shift != shift:
                    continue
                entry = {m: c for (u, m), c in vector.items() if u == t}
                if entry:
                    _insert(pivots, entry, quotient.budget)
    return pivots


def trace_contains(P: ModulePresentation, shifts: Sequence[int],
                   elements: Sequence[Polynomial]) -> bool:
    """Whether the trace ideal of a graded module holds every element.

    The module is presented by P on generators of degrees `shifts`; the
    elements are homogeneous.  Only the graded pieces of the trace in the
    degrees of the elements that are nonzero in R are solved, one piece per
    degree.
    """
    budget = current_budget()
    quotient = _Quotient(P.algebra, budget)
    wanted: dict[int, list[Row]] = {}
    for p in elements:
        degree = p.homogeneous_degree()
        if degree is None:
            raise ValueError(f"trace_contains needs homogeneous elements, got {p}")
        coordinates = quotient.coordinates(p.terms, degree)
        if coordinates:
            wanted.setdefault(degree, []).append(coordinates)
    entries: list[list] = [[] for _ in shifts]
    for index, relation in enumerate(P.columns):
        for t, entry in enumerate(relation):
            if not entry.is_zero:
                entries[t].append((index, entry.terms, entry.homogeneous_degree()))
    for degree, targets in sorted(wanted.items()):
        piece = _trace_piece(entries, shifts, quotient, degree)
        if any(_reduce(piece, target, budget) for target in targets):
            return False
    return True
