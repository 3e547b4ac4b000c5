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
lead no row of the reduced echelon form of I_d, the span of the products
m * g of degree d with g a defining generator.  Reduced, each lead equals
minus its row's tail in R, and the tail lies on standard monomials, so an
element's coordinates take one pass over its terms.

Every value held in a row is exact: an `int` where it is integral and no
division has touched it, a `Fraction` where a division forces one, and
never a float.  The generators of I, the relation entries and the
elements asked about enter as ints when their denominators are 1, and a
row is divided only to make its lead 1 (`_insert`), so on a ring with
integer coefficients most rows stay on ints.

One step of the ambient budget is one row subtraction: in building a
piece of I, a kernel or a trace piece, and for each term of an element
that leads a row of I_d.  A piece is built once per call, when first met;
nothing is kept between calls.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Sequence

from .groebner import StepBudget, current_budget
from .modsyz import ModulePresentation
from .poly import Exponents, Polynomial, RingSignature, Scalar, mono_mul
from .rings import GradedAlgebra

Row = dict[Hashable, Scalar]


def _exact(terms: dict[Exponents, Fraction]) -> dict[Exponents, Scalar]:
    """The terms with every integral coefficient as an int."""
    return {e: c.numerator if c.denominator == 1 else c for e, c in terms.items()}


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
    """Add vec to the echelon form, as a monic row led by its largest key.

    Values stay exact and keep their types where they can: a row led by 1
    is stored as it is, one led by -1 is negated, and any other row is
    multiplied by 1 / Fraction(lead), so its values become Fractions.  (A
    plain a / c on two ints would give a float.)
    """
    vec = _reduce(pivots, vec, budget)
    if vec:
        lead = max(vec)
        c = vec[lead]
        if c == 1:
            pivots[lead] = vec
        elif c == -1:
            pivots[lead] = {key: -a for key, a in vec.items()}
        else:
            inverse = 1 / Fraction(c)
            pivots[lead] = {key: a * inverse for key, a in vec.items()}


def _add(row: dict, key: Hashable, c: Scalar) -> None:
    """row[key] += c, dropping the key once it reaches zero."""
    v = row.pop(key, None)
    if v is None:
        row[key] = c
    else:
        v += c
        if v:
            row[key] = v


class _Quotient:
    """The graded pieces of R met during one call: each degree's monomials
    and each piece of I in reduced echelon form, made once, when first met,
    and stored once complete."""

    def __init__(self, algebra: GradedAlgebra, budget: StepBudget):
        self.sig = algebra.sig
        self.gens = [(_exact(g.terms), g.homogeneous_degree())
                     for g in algebra.defining.gens]
        self.budget = budget
        self._monomials: dict[int, list[Exponents]] = {}
        self._tails: dict[int, dict[Exponents, Row]] = {}
        self._bases: dict[int, list[Exponents]] = {}

    def monomials(self, degree: int) -> list[Exponents]:
        """The monomials of degree `degree`, made once per call."""
        got = self._monomials.get(degree)
        if got is None:
            got = self._monomials[degree] = monomials_of_weighted_degree(self.sig, degree)
        return got

    def tails(self, degree: int) -> dict[Exponents, Row]:
        """I_degree in reduced echelon form: each lead monomial maps to the
        tail of its monic row, which lies on the standard monomials, so the
        lead is minus its tail in R.

        The echelon form is built first, then back-substituted in ascending
        lead order: each row less its tail's multiples of the rows below.
        """
        got = self._tails.get(degree)
        if got is None:
            pivots: dict[Exponents, Row] = {}
            for g, g_degree in self.gens:
                for m in self.monomials(degree - g_degree):
                    _insert(pivots, {mono_mul(e, m): c for e, c in g.items()},
                            self.budget)
            got = {}
            for lead in sorted(pivots):
                tail: Row = {}
                for key, a in pivots[lead].items():
                    if key == lead:
                        continue
                    below = got.get(key)
                    if below is None:
                        _add(tail, key, a)
                    else:
                        self.budget.tick()
                        for e, b in below.items():
                            _add(tail, e, -a * b)
                got[lead] = tail
            self._tails[degree] = got
        return got

    def basis(self, degree: int) -> list[Exponents]:
        """The standard monomials of degree `degree`: a basis of R_degree."""
        got = self._bases.get(degree)
        if got is None:
            tails = self.tails(degree)
            got = self._bases[degree] = [m for m in self.monomials(degree)
                                         if m not in tails]
        return got

    def coordinates(self, terms: dict[Exponents, Scalar], degree: int) -> Row:
        """The terms of a homogeneous element of R_degree, on the standard
        monomials: a standard term is kept, and a lead term of I_degree is
        replaced by minus its tail, one tick each."""
        tails = self.tails(degree)
        out: Row = {}
        for e, c in terms.items():
            tail = tails.get(e)
            if tail is None:
                _add(out, e, c)
            else:
                self.budget.tick()
                for key, a in tail.items():
                    _add(out, key, -c * a)
        return out


def _kernel(entries: Sequence[list], shifts: Sequence[int], quotient: _Quotient,
            delta: int) -> list[dict[tuple[int, Exponents], Scalar]]:
    """A Q-basis of the degree-delta homomorphisms, each keyed by (t, m)
    for m a standard monomial of degree delta + shifts[t].

    entries[t] lists (relation index, terms, degree) of the entry at t of
    each relation nonzero at t.  The unknowns are the pairs (t, m).  Each one's
    row holds its image under the relations, keyed (1, relation index,
    monomial), and a tag (0, its index); tags sort below image keys, so the
    rows whose image eliminates to zero end led by a tag, and their tag
    parts span the kernel.  Each image term is written into the row on the
    standard monomials as it is made, as in `_Quotient.coordinates`.
    """
    budget = quotient.budget
    unknowns: list[tuple[int, Exponents]] = []
    pivots: dict = {}
    for t, shift in enumerate(shifts):
        basis = quotient.basis(delta + shift)
        if not basis:
            continue
        images = [(index, terms, quotient.tails(degree + delta + shift))
                  for index, terms, degree in entries[t]]
        for m in basis:
            row: Row = {(0, len(unknowns)): 1}
            unknowns.append((t, m))
            for index, terms, tails in images:
                for e, c in terms.items():
                    e = mono_mul(e, m)
                    tail = tails.get(e)
                    if tail is None:
                        _add(row, (1, index, e), c)
                    else:
                        budget.tick()
                        for key, a in tail.items():
                            _add(row, (1, index, key), -c * a)
            _insert(pivots, row, budget)
    return [{unknowns[key[1]]: c for key, c in row.items()}
            for lead, row in pivots.items() if lead[0] == 0]


def _relation_entries(P: ModulePresentation, shifts: Sequence[int]) -> list[list]:
    """For each generator t, (relation index, terms, degree) of the entry
    at t of each relation nonzero at t, its terms exact (`_exact`).

    Each relation is homogeneous: entry t has degree D - shifts[t] for one
    D per relation, read off one term of its first nonzero entry.
    """
    degree_of = P.algebra.sig.degree_of
    # each entry's exact terms by the id of its terms: a wedge repeats one
    # entry object across relations, and P keeps every one alive
    exact: dict[int, dict[Exponents, Scalar]] = {}
    entries: list[list] = [[] for _ in range(P.target_rank)]
    for index, relation in enumerate(P.columns):
        total = None
        for t, entry in relation.items():
            terms = entry.terms
            if total is None:
                total = degree_of(next(iter(terms))) + shifts[t]
            got = exact.get(id(terms))
            if got is None:
                got = exact[id(terms)] = _exact(terms)
            entries[t].append((index, got, total - shifts[t]))
    return entries


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
        coordinates = quotient.coordinates(_exact(p.terms), degree)
        if coordinates:
            wanted.setdefault(degree, []).append(coordinates)
    entries = _relation_entries(P, shifts)
    for degree, targets in sorted(wanted.items()):
        piece = _trace_piece(entries, shifts, quotient, degree)
        if any(_reduce(piece, target, budget) for target in targets):
            return False
    return True
