"""Finitely presented modules: syzygies, exterior powers, trace and Fitting ideals.

A ModulePresentation is a cokernel presentation over a GradedAlgebra: a free
target of fixed rank and a list of relation columns, each (as each kernel
column) a map from an index to its nonzero entry there.  The kernel of a p x q
matrix B over the quotient R = Q[x]/I is computed in the ambient polynomial
ring as Singular's `modulo` does: the module generated by the columns
(B e_j, e_j) and the vectors (f e_r, 0), for f in I and r < p, meets the last
q coordinates in exactly the v with Bv in I*R^p, and a module Groebner basis
under a position-over-term order eliminates the first p coordinates.

syzygies builds that module on integers and runs it through a
signature-based loop in groebner.py (`_syzygy_basis`).  The tag part of an
element, its last q coordinates, is the v it holds; its signature is the
lead of that part.  The (f e_r), for f in the reduced Groebner basis of I
and r < p, are a reduced basis of I*S^p: they reduce the values with a
signature below every tag, and no pair among them is made.  The module
also holds the (0, f e_j), since the kernel holds I*S^q: their leads are
the first known syzygy leads, and a pair whose signature one of them
divides is never taken.  Nor is a pair that an element of smaller value
lead at a dividing signature covers.  So almost no pair reduces to zero:
a value that does leaves a kernel element whose lead is its signature.
Those and the I*S^q seed are a Groebner basis of the kernel.  The seed is
zero over R, so the found elements alone generate the kernel there: the
engine's one final sweep reduces them with the seed as fixed reducers, and
Fractions are formed only for the kernel columns.  At each tag position
the lead module holds every lead of I, and no found lead is divisible by
one, so each column is already in normal form modulo I.
Inside, an element is its primitive integer vector on packed monomials
(see groebner.py): this module converts only through groebner's
`_integers`, `_fractions` and `_poly_element`, handing each the order's
`_packing`, and never reads the layout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .groebner import (
    IdealHandle,
    Order,
    _Element,
    _fractions,
    _integers,
    _poly_element,
    _primitive,
    _syzygy_basis,
    current_budget,
    default_order,
    leading_monomial,
)
from .poly import Polynomial, RingSignature
from .rings import GradedAlgebra


# -- kernels over the quotient -------------------------------------------------

def syzygies(rows: Sequence[Mapping[int, Polynomial]], algebra: GradedAlgebra,
             width: int) -> list[dict[int, Polynomial]]:
    """Generators of the kernel of the matrix over the quotient ring.

    The p x q matrix, q = width, is given by its rows, each a map from a
    column index j < q to the row's nonzero entry there.  The result is a
    list of distinct nonzero column maps v with rows * v = 0 modulo the
    defining ideal I, with entries in normal form, in the order below; they
    generate every such v over the quotient.
    They are read off the module generated by (B e_j, e_j) and the (f e_r),
    for f in the reduced Groebner basis of I and r < p, by the signature
    loop of `groebner._syzygy_basis`: the signature of an element is the
    lead of its part at the tag positions p + j.  The (f e_r) for r < p are
    the base, a reduced basis of I*S^p that reduces values below every
    signature and makes no pair.  The (f e_(p+j)) lie in the module, as
    the kernel holds I*S^q, and seed H, the leads of the known syzygies;
    each (B e_j, e_j) enters with signature e_(p+j).  A J-pair is dropped
    when a lead in H divides its signature, or when an element at a
    dividing signature has a smaller multiplied value lead; a value lead is
    reduced only below the element's signature.  Each value reduced to zero
    leaves a kernel element whose lead is its signature, and those with the
    seed are a Groebner basis of the kernel (the loop's docstring gives the
    argument).  The seed is zero over the quotient, so the columns are the
    found elements alone, swept into the reduced basis with the seed as
    fixed reducers: the elements of the kernel's reduced basis whose leads
    no lead of I*S^q divides.  The lead module holds each lead of I at each tag position, and
    no found lead is divisible by one, so each column is in normal form.

    The columns are in (position, lead) order: by the index of their first
    entry, then by that entry's lead monomial, both increasing, and no two
    share both.  With no rows they are the unit columns e_j, in index order.
    """
    sig = algebra.sig
    order = default_order(sig)
    p = len(rows)
    q = width
    # each (B e_j, e_j) at the row positions, from the nonzero entries
    comps: list[dict] = [{} for _ in range(q)]
    for i, row in enumerate(rows):
        for j, entry in row.items():
            if j not in range(q):
                raise ValueError(f"matrix entry in column {j}, outside width {q}")
            comps[j][i] = entry.terms
    if q == 0:
        return []
    if p == 0:
        return [{j: Polynomial.one(sig)} for j in range(q)]

    budget = current_budget()
    packing = order._packing
    tagged = _quotient_block(algebra, order, range(p, p + q))
    one = Polynomial.one(sig).terms
    inputs = []
    for j, comp in enumerate(comps):
        comp[p + j] = one
        inputs.append(_primitive(_integers(comp, packing)[0]))
    kernel = _syzygy_basis(_quotient_block(algebra, order, range(p)), inputs, tagged,
                           p, order, budget)
    return [{i - p: Polynomial._of(sig, _fractions(ints[i], den, packing))
             for i in sorted(ints)}
            for _, _, ints, den in kernel]


def _quotient_block(algebra: GradedAlgebra, order: Order,
                    positions: range) -> list[_Element]:
    """The (f e_r, 0), for f in the reduced Groebner basis of the defining
    ideal and r in positions, ordered by position: a reduced basis of the
    ideal times the free module on those positions.  Each f's integer map
    is shared by its copies."""
    elements = [_poly_element(f, order) for f in algebra.defining.groebner_basis]
    return [(r, lm, {r: ints[0]}, lead) for r in positions
            for _, lm, ints, lead in elements]


# -- presentations --------------------------------------------------------------

@dataclass
class ModulePresentation:
    """Cokernel presentation: free target of given rank modulo column relations,
    each a map from a target row to its nonzero entry there."""

    algebra: GradedAlgebra
    target_rank: int
    columns: tuple[dict[int, Polynomial], ...]

    def __post_init__(self):
        if self.target_rank < 0:
            raise ValueError("target rank cannot be negative")
        sig = self.algebra.sig
        rows = range(self.target_rank)
        for col in self.columns:
            for t, entry in col.items():
                if t not in rows:
                    raise ValueError(f"relation entry in row {t}, outside the target")
                if not entry.terms:
                    raise ValueError("relation column holds a zero entry")
                # entries nearly always share the algebra's signature object
                if entry.sig is not sig and entry.sig != sig:
                    raise ValueError("relation entry over a different signature")


def free_presentation(algebra: GradedAlgebra, rank: int) -> ModulePresentation:
    return ModulePresentation(algebra, rank, ())


def exterior_power_presentation(P: ModulePresentation, k: int) -> ModulePresentation:
    """Presentation of the k-th exterior power of the presented module.

    Basis of the new target: k-subsets of the old basis in lexicographic
    order.  Each old relation column wedged against a (k-1)-subset gives a new
    relation; the sign of moving e_i past e_T' is (-1)^(number of t in T'
    with t > i).  Each i outside T' gives its own subset, so every entry of
    the new relation is one old entry or its negative; one with none is left out.
    """
    if k < 0:
        raise ValueError("exterior power degree cannot be negative")
    algebra = P.algebra
    m = P.target_rank
    if k == 0:
        return free_presentation(algebra, 1)
    if k > m:
        return ModulePresentation(algebra, 0, ())
    subsets = list(itertools.combinations(range(m), k))
    index = {s: t for t, s in enumerate(subsets)}
    new_columns = []
    # each column beside its negative, made once for all prefixes
    signed = [(col, {i: -entry for i, entry in col.items()}) for col in P.columns]
    for prefix in itertools.combinations(range(m), k - 1):
        # where e_i lands in e_i ^ e_T', and its sign, for each i outside T'
        places = {i: (index[tuple(sorted(prefix + (i,)))],
                      sum(1 for t in prefix if t > i) % 2)
                  for i in range(m) if i not in prefix}
        for col, negated in signed:
            wedged = {target: negated[i] if odd else col[i]
                      for i, (target, odd) in places.items() if i in col}
            if wedged:
                new_columns.append(wedged)
    return ModulePresentation(algebra, len(subsets), tuple(new_columns))


def kernel_columns(P: ModulePresentation) -> list[dict[int, Polynomial]]:
    """Column maps generating the kernel of the transposed relation matrix.

    Each column corresponds to a homomorphism from the presented module to
    the ring, evaluated on the target generators.
    """
    # row j of the transposed matrix is the j-th relation column
    return syzygies(P.columns, P.algebra, P.target_rank)


def trace_ideal(P: ModulePresentation) -> IdealHandle:
    """Sum of the images of all maps from the presented module to the ring.

    Generated by every entry of every kernel column of the transposed
    relation matrix, lifted together with the defining ideal; of p and -p
    (a wedge's sign copies), only the first in (lead, string) order.  The
    kernel depends only on the span of the relation columns, so a presentation
    reduced to a Q-basis of its columns gives the same generators, in the
    same order, from a smaller module (`traces.diff_trace` passes one).
    """
    algebra = P.algebra
    order = default_order(algebra.sig)
    first: dict[frozenset[Polynomial], Polynomial] = {}
    for g in sorted({entry for col in kernel_columns(P) for entry in col.values()},
                    key=lambda g: (order.key(leading_monomial(g, order)), str(g))):
        first.setdefault(frozenset((g, -g)), g)
    return algebra.s_ideal(tuple(first.values()))


# -- determinantal ideals --------------------------------------------------------

def _determinant(rows: Sequence[Sequence[Polynomial]], row_idx: tuple[int, ...],
                 col_idx: tuple[int, ...], sig: RingSignature,
                 memo: dict) -> Polynomial:
    if not row_idx:
        return Polynomial.one(sig)
    key = (row_idx, col_idx)
    cached = memo.get(key)
    if cached is not None:
        return cached
    r0 = row_idx[0]
    rest = row_idx[1:]
    total = Polynomial.zero(sig)
    for k, c in enumerate(col_idx):
        entry = rows[r0][c]
        if entry.is_zero:
            continue
        minor = _determinant(rows, rest, col_idx[:k] + col_idx[k + 1:], sig, memo)
        term = entry * minor
        total = total + (term if k % 2 == 0 else -term)
    memo[key] = total
    return total


def matrix_minors(rows: Sequence[Sequence[Polynomial]], t: int,
                  sig: RingSignature) -> list[Polynomial]:
    """All t x t minors, via Laplace expansion with shared sub-minor memoization."""
    if t < 0:
        raise ValueError("minor size cannot be negative")
    p = len(rows)
    q = len(rows[0]) if rows else 0
    if any(len(r) != q for r in rows):
        raise ValueError("ragged matrix")
    if t == 0:
        return [Polynomial.one(sig)]
    if t > p or t > q:
        return []
    memo: dict = {}
    out = []
    for row_idx in itertools.combinations(range(p), t):
        for col_idx in itertools.combinations(range(q), t):
            d = _determinant(rows, row_idx, col_idx, sig, memo)
            if not d.is_zero:
                out.append(d)
    return out


def fitting_ideal(rows: Sequence[Sequence[Polynomial]], t: int,
                  sig: RingSignature) -> IdealHandle:
    """Ideal of t x t minors of a matrix over the polynomial ring."""
    return IdealHandle(sig, matrix_minors(rows, t, sig))
