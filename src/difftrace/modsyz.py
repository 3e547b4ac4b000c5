"""Finitely presented modules: syzygies, exterior powers, trace and Fitting ideals.

A ModulePresentation is a cokernel presentation over a GradedAlgebra: a free
target of fixed rank and a list of relation columns.  The kernel of a p x q
matrix B over the quotient R = Q[x]/I is computed in the ambient polynomial
ring as Singular's `modulo` does: the module generated by the columns
(B e_j, e_j) and the vectors (f e_r, 0), for f in I and r < p, meets the last
q coordinates in exactly the v with Bv in I*R^p, and a module Groebner basis
under a position-over-term order eliminates the first p coordinates.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .groebner import (
    IdealHandle,
    Order,
    StepBudget,
    current_budget,
    default_order,
    leading_monomial,
    normal_form_raw,
)
from .poly import (
    Exponents,
    Polynomial,
    RingSignature,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)
from .rings import GradedAlgebra

Column = tuple[Polynomial, ...]


class Vector:
    """Sparse vector of polynomials, indexed by position."""

    __slots__ = ("sig", "comps", "_lead")

    def __init__(self, sig: RingSignature, comps: dict[int, Polynomial]):
        self.sig = sig
        self.comps = {i: p for i, p in comps.items() if not p.is_zero}
        self._lead: tuple[Order, tuple[int, Exponents]] | None = None

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def lead(self, order: Order) -> tuple[int, Exponents]:
        """Largest module term: smallest position wins, then the poly order."""
        got = self._lead
        if got is not None and got[0] is order:
            return got[1]
        pos = min(self.comps)
        val = (pos, leading_monomial(self.comps[pos], order))
        self._lead = (order, val)
        return val

    def lead_coefficient(self, order: Order) -> Fraction:
        pos, mono = self.lead(order)
        return self.comps[pos].terms[mono]

    def scale(self, c) -> "Vector":
        return Vector(self.sig, {i: p.scale(c) for i, p in self.comps.items()})

    def sub_scaled(self, other: "Vector", shift: Exponents, factor) -> "Vector":
        comps = dict(self.comps)
        for i, p in other.comps.items():
            moved = p.mul_monomial(shift, factor)
            cur = comps.get(i)
            acc = cur - moved if cur is not None else -moved
            if acc.is_zero:
                comps.pop(i, None)
            else:
                comps[i] = acc
        return Vector(self.sig, comps)

    def __repr__(self) -> str:
        inside = ", ".join(f"{i}: {p}" for i, p in sorted(self.comps.items()))
        return f"Vector({{{inside}}})"


def _vector_monic(v: Vector, order: Order) -> Vector:
    lc = v.lead_coefficient(order)
    return v if lc == 1 else v.scale(1 / lc)


def _vector_reduce(v: Vector, by_position: dict[int, list[tuple[Exponents, Vector]]],
                   order: Order, budget: StepBudget) -> Vector:
    """Full normal form of a vector against basis vectors bucketed by lead position.

    Positions are finished in increasing order: a reducer's lead sits at its
    smallest position, so the cross-terms it drags in land strictly later and
    each position is visited once.
    """
    sig = v.sig
    key = order.key
    remainder: dict[int, Polynomial] = {}
    carry: dict[int, Polynomial] = dict(v.comps)
    while carry:
        pos = min(carry)
        bucket = by_position.get(pos, ())
        work = dict(carry.pop(pos).terms)
        leftover: dict[Exponents, Fraction] = {}
        quotients: dict[int, dict[Exponents, Fraction]] = {}
        while work:
            mono = max(work, key=key)
            coef = work[mono]
            hit = None
            for idx, (lm, g) in enumerate(bucket):
                if mono_divides(lm, mono):
                    hit = (idx, lm, g)
                    break
            if hit is None:
                leftover[mono] = coef
                del work[mono]
                continue
            budget.tick()
            idx, lm, g = hit
            divisor = g.comps[pos].terms
            shift = mono_div(mono, lm)
            factor = coef / divisor[lm]
            q = quotients.setdefault(idx, {})
            q[shift] = q.get(shift, Fraction(0)) + factor
            for e, c in divisor.items():
                target = mono_mul(e, shift)
                acc = work.get(target, Fraction(0)) - factor * c
                if acc:
                    work[target] = acc
                else:
                    work.pop(target, None)
        if leftover:
            remainder[pos] = Polynomial(sig, leftover)
        for idx, q in quotients.items():
            g = bucket[idx][1]
            q_poly = Polynomial(sig, q)
            for i, comp in g.comps.items():
                if i == pos:
                    continue
                dragged = comp * q_poly
                cur = carry.get(i)
                acc = cur - dragged if cur is not None else -dragged
                if acc.is_zero:
                    carry.pop(i, None)
                else:
                    carry[i] = acc
    return Vector(sig, remainder)


def module_groebner(gens: Sequence[Vector], order: Order,
                    budget: StepBudget | None = None) -> list[Vector]:
    """Reduced Groebner basis of the submodule generated by gens, under the
    position-over-term refinement of the given monomial order.

    Only the chain criterion is applied; the coprime-lead shortcut is not
    valid for module pairs.
    """
    if budget is None:
        budget = current_budget()
    basis: list[Vector] = []
    leads: list[tuple[int, Exponents]] = []
    by_position: dict[int, list[tuple[Exponents, Vector]]] = {}
    # basis indices by lead position, increasing: pairs across two positions
    # have no S-vector, so pairs and the chain test stay inside one list
    members: dict[int, list[int]] = {}

    def install(v: Vector):
        v = _vector_monic(v, order)
        pos, mono = v.lead(order)
        members.setdefault(pos, []).append(len(basis))
        basis.append(v)
        leads.append((pos, mono))
        by_position.setdefault(pos, []).append((mono, v))

    for g in gens:
        if not g.is_zero:
            install(g)
    if not basis:
        return []

    pending: set[tuple[int, int]] = set()
    heap: list = []
    counter = itertools.count()

    def push_pair(i: int, j: int):
        lcm = mono_lcm(leads[i][1], leads[j][1])
        heapq.heappush(heap, (order.key(lcm), next(counter), i, j, lcm))
        pending.add((i, j))

    for i, j in sorted(pair for group in members.values()
                       for pair in itertools.combinations(group, 2)):
        push_pair(i, j)

    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))
        budget.tick()
        pos = leads[i][0]
        skip = False
        for k in members[pos]:
            if k in (i, j) or not mono_divides(leads[k][1], lcm):
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik not in pending and pjk not in pending:
                skip = True
                break
        if skip:
            continue
        gi, gj = basis[i], basis[j]
        shift_i = mono_div(lcm, leads[i][1])
        shift_j = mono_div(lcm, leads[j][1])
        s = _shifted(gi, shift_i).sub_scaled(gj, shift_j, Fraction(1))
        remainder = _vector_reduce(s, by_position, order, budget)
        if not remainder.is_zero:
            install(remainder)
            group = members[remainder.lead(order)[0]]
            for t in group[:-1]:
                push_pair(t, group[-1])
    return _reduce_module_basis(basis, order, budget)


def _reduce_module_basis(basis: list[Vector], order: Order,
                         budget: StepBudget) -> list[Vector]:
    """The unique reduced basis: minimal leads, tails fully inter-reduced."""
    groups: dict[int, list[tuple[int, Exponents]]] = {}
    for j, w in enumerate(basis):
        pos, mono = w.lead(order)
        groups.setdefault(pos, []).append((j, mono))

    def dominated(i: int, v: Vector) -> bool:
        pos, mono = v.lead(order)
        return any(j != i and mono_divides(mj, mono) and (mj != mono or j < i)
                   for j, mj in groups[pos])

    kept = [v for i, v in enumerate(basis) if not dominated(i, v)]
    # tails in increasing lead order: every reducer a tail can see is final,
    # so one sweep reaches the fixpoint, and the reducers grow as it goes
    def ascending(v: Vector):
        pos, mono = v.lead(order)
        return (-pos, order.key(mono))

    kept.sort(key=ascending)
    reducers: dict[int, list[tuple[Exponents, Vector]]] = {}
    for i, v in enumerate(kept):
        kept[i] = v = _vector_monic(_vector_reduce(v, reducers, order, budget), order)
        pos, mono = v.lead(order)
        reducers.setdefault(pos, []).append((mono, v))
    kept.sort(key=lambda v: (v.lead(order)[0], order.key(v.lead(order)[1])))
    return kept


def _shifted(v: Vector, shift: Exponents) -> Vector:
    if all(e == 0 for e in shift):
        return v
    return Vector(v.sig, {i: p.mul_monomial(shift) for i, p in v.comps.items()})


def vector_normal_form(v: Vector, basis: Sequence[Vector], order: Order,
                       budget: StepBudget | None = None) -> Vector:
    if budget is None:
        budget = current_budget()
    by_position: dict[int, list[tuple[Exponents, Vector]]] = {}
    for g in basis:
        if g.is_zero:
            continue
        pos, mono = g.lead(order)
        by_position.setdefault(pos, []).append((mono, g))
    return _vector_reduce(v, by_position, order, budget)


# -- kernels over the quotient -------------------------------------------------

def syzygies(rows: Sequence[Sequence[Polynomial]], algebra: GradedAlgebra,
             width: int | None = None) -> list[Column]:
    """Generators of the kernel of the matrix over the quotient ring.

    The matrix is given by rows (p of them, each of length q); the result is a
    list of length-q columns v with rows * v = 0 modulo the defining ideal.
    The kernel is read off the basis elements that vanish in the first p
    coordinates of the module generated by (B e_j, e_j) and (f e_r, 0), for
    f in the defining Groebner basis and r < p.
    """
    sig = algebra.sig
    order = default_order(sig)
    p = len(rows)
    if width is None:
        if p == 0:
            raise ValueError("pass width explicitly for a matrix with no rows")
        width = len(rows[0])
    q = width
    if any(len(r) != q for r in rows):
        raise ValueError("ragged matrix")
    if q == 0:
        return []
    if p == 0:
        return [_unit_column(sig, q, j) for j in range(q)]

    defining = algebra.defining.groebner_basis
    gens = []
    for j in range(q):
        comps = {i: normal_form_raw(rows[i][j], defining, order) for i in range(p)}
        comps[p + j] = Polynomial.one(sig)
        gens.append(Vector(sig, comps))
    gens += [Vector(sig, {r: f}) for f in defining for r in range(p)]

    basis = module_groebner(gens, order)
    seen: list[Column] = []
    for g in basis:
        if any(pos < p for pos in g.comps):
            continue
        column = []
        for j in range(q):
            entry = g.comps.get(p + j, Polynomial.zero(sig))
            column.append(normal_form_raw(entry, defining, order))
        if all(e.is_zero for e in column):
            continue
        column = tuple(column)
        if column not in seen:
            seen.append(column)
    seen.sort(key=lambda col: tuple(str(e) for e in col))
    return seen


def _unit_column(sig: RingSignature, q: int, j: int) -> Column:
    return tuple(Polynomial.one(sig) if i == j else Polynomial.zero(sig)
                 for i in range(q))


def kernel_membership(column: Column, generators: Sequence[Column],
                      algebra: GradedAlgebra) -> bool:
    """Whether a column lies in the span of the generators over the quotient."""
    sig = algebra.sig
    order = default_order(sig)
    q = len(column)
    gens = [Vector(sig, dict(enumerate(c))) for c in generators]
    for f in algebra.defining.gens:
        for r in range(q):
            gens.append(Vector(sig, {r: f}))
    basis = module_groebner([g for g in gens if not g.is_zero], order)
    target = Vector(sig, dict(enumerate(column)))
    return vector_normal_form(target, basis, order).is_zero


# -- presentations --------------------------------------------------------------

@dataclass
class ModulePresentation:
    """Cokernel presentation: free target of given rank modulo column relations."""

    algebra: GradedAlgebra
    target_rank: int
    columns: tuple[Column, ...]

    def __post_init__(self):
        if self.target_rank < 0:
            raise ValueError("target rank cannot be negative")
        for col in self.columns:
            if len(col) != self.target_rank:
                raise ValueError("relation column length differs from target rank")
            for entry in col:
                if entry.sig != self.algebra.sig:
                    raise ValueError("relation entry over a different signature")

    @property
    def is_zero_module(self) -> bool:
        return self.target_rank == 0


def free_presentation(algebra: GradedAlgebra, rank: int) -> ModulePresentation:
    return ModulePresentation(algebra, rank, ())


def direct_sum(P: ModulePresentation, Q: ModulePresentation) -> ModulePresentation:
    """Block-diagonal presentation of the direct sum."""
    if P.algebra is not Q.algebra and P.algebra.sig != Q.algebra.sig:
        raise ValueError("direct sum needs presentations over one algebra")
    algebra = P.algebra
    zero = Polynomial.zero(algebra.sig)
    m1, m2 = P.target_rank, Q.target_rank
    cols = [col + (zero,) * m2 for col in P.columns]
    cols += [(zero,) * m1 + col for col in Q.columns]
    return ModulePresentation(algebra, m1 + m2, tuple(cols))


def exterior_power_presentation(P: ModulePresentation, k: int) -> ModulePresentation:
    """Presentation of the k-th exterior power of the presented module.

    Basis of the new target: k-subsets of the old basis in lexicographic
    order.  Each old relation column wedged against a (k-1)-subset gives a new
    relation; the sign of moving e_i past e_T' is (-1)^(number of t in T'
    with t > i).
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
    zero = Polynomial.zero(algebra.sig)
    new_columns: list[Column] = []
    for prefix in itertools.combinations(range(m), k - 1):
        inside = set(prefix)
        for col in P.columns:
            out = [zero] * len(subsets)
            touched = False
            for i in range(m):
                if i in inside:
                    continue
                entry = col[i]
                if entry.is_zero:
                    continue
                sign = -1 if sum(1 for t in prefix if t > i) % 2 else 1
                target = index[tuple(sorted(prefix + (i,)))]
                out[target] = out[target] + (entry if sign > 0 else -entry)
                touched = True
            if touched and any(not e.is_zero for e in out):
                new_columns.append(tuple(out))
    return ModulePresentation(algebra, len(subsets), tuple(new_columns))


def kernel_columns(P: ModulePresentation) -> list[Column]:
    """Generators of the kernel of the transposed relation matrix.

    Each column corresponds to a homomorphism from the presented module to
    the ring, evaluated on the target generators.
    """
    algebra = P.algebra
    m = P.target_rank
    if m == 0:
        return []
    if not P.columns:
        return [_unit_column(algebra.sig, m, j) for j in range(m)]
    transposed_rows = list(P.columns)  # row j of B is the j-th relation column
    return syzygies(transposed_rows, algebra, width=m)


def trace_ideal(P: ModulePresentation) -> IdealHandle:
    """Sum of the images of all maps from the presented module to the ring.

    Generated by every entry of every kernel column of the transposed
    relation matrix, lifted together with the defining ideal.
    """
    algebra = P.algebra
    entries: list[Polynomial] = []
    for col in kernel_columns(P):
        for entry in col:
            if not entry.is_zero and entry not in entries:
                entries.append(entry)
    order = default_order(algebra.sig)
    entries.sort(key=lambda g: (order.key(leading_monomial(g, order)), str(g)))
    return algebra.s_ideal(tuple(entries))


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
    if t == 0:
        return [Polynomial.one(sig)]
    p = len(rows)
    q = len(rows[0]) if rows else 0
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
