"""Independent checkers the tests use to cross-examine the engine.

Membership of a homogeneous polynomial in a homogeneous ideal is decided
degree by degree: the degree-d slice of (g_1, ..., g_s) is spanned by the
products m * g_i with deg(m * g_i) = d, so plain Gaussian elimination over
Fraction settles the question exactly.  The same slices give each graded
piece R_d of a quotient R = Q[x]/I as a Q-vector space, and so the graded
pieces of a kernel over R as the solutions of a finite linear system, the
entries of those solutions as the graded pieces of a trace ideal, and the
graded pieces of the R-span of given columns, so whether a column lies in
that span.  Nothing here touches the Groebner engine, which is the point.
The census of simplicial complexes has a reference here too: the canonical
facet list under all vertex permutations, computed for every family.  So
has division with remainder: the engine's reduction loop as it was on
Fraction coefficients, which its integer loop must match remainder for
remainder and step for step.  The S-polynomials and S-vectors of the
Buchberger certificates live here too, so the certificates share no code
with the engine they check, and so does a plain Buchberger on them that
gives the reduced Groebner basis of a module: the reference for kernels.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from difftrace.poly import Polynomial, RingSignature
from difftrace.simplicial import SimplicialComplex

Exps = tuple[int, ...]
Row = dict[Exps, Fraction]


def monomials_of_weighted_degree(sig: RingSignature, degree: int) -> list[Exps]:
    """All exponent tuples of exact weighted degree, ordered deterministically."""
    if degree < 0:
        return []
    out: list[Exps] = []
    acc: list[int] = []

    def rec(i: int, left: int):
        if i == sig.nvars:
            if left == 0:
                out.append(tuple(acc))
            return
        w = sig.weights[i]
        e = 0
        while e * w <= left:
            acc.append(e)
            rec(i + 1, left - e * w)
            acc.pop()
            e += 1

    rec(0, degree)
    return out


def _reduce(pivots: dict[Exps, Row], vec: Row) -> Row:
    vec = dict(vec)
    while vec:
        lead = max(vec)
        row = pivots.get(lead)
        if row is None:
            return vec
        c = vec[lead]
        for e, a in row.items():
            nv = vec.get(e, Fraction(0)) - c * a
            if nv:
                vec[e] = nv
            else:
                vec.pop(e, None)
    return vec


def _insert(pivots: dict[Exps, Row], vec: Row) -> None:
    vec = _reduce(pivots, vec)
    if not vec:
        return
    lead = max(vec)
    c = vec[lead]
    pivots[lead] = {e: a / c for e, a in vec.items()}


def _degree_slice_pivots(gens, sig: RingSignature, degree: int) -> dict[Exps, Row]:
    pivots: dict[Exps, Row] = {}
    for g in gens:
        if g.is_zero:
            continue
        gd = g.homogeneous_degree()
        if gd is None:
            raise ValueError("oracle needs homogeneous generators")
        if gd > degree:
            continue
        for m in monomials_of_weighted_degree(sig, degree - gd):
            prod = g.mul_monomial(m)
            _insert(pivots, dict(prod.terms))
    return pivots


def oracle_membership(p: Polynomial, gens, sig: RingSignature) -> bool:
    """p in (gens)?  Exact for homogeneous gens; p may be inhomogeneous."""
    if p.is_zero:
        return True
    by_degree: dict[int, Row] = {}
    for exps, coef in p.terms.items():
        by_degree.setdefault(sig.degree_of(exps), {})[exps] = coef
    for degree, component in by_degree.items():
        pivots = _degree_slice_pivots(gens, sig, degree)
        if _reduce(pivots, component):
            return False
    return True


def oracle_ideal_equal(gens_a, gens_b, sig: RingSignature) -> bool:
    """Equality of the two homogeneous ideals, generator by generator."""
    return all(oracle_membership(g, gens_b, sig) for g in gens_a) and all(
        oracle_membership(g, gens_a, sig) for g in gens_b
    )


def oracle_radical_membership(p: Polynomial, gens, sig: RingSignature,
                              max_power: int = 6) -> bool:
    """p^k in (gens) for some k <= max_power.  One-sided: False only says
    no witness below the bound, so tests use it on cases where a small
    exponent is known to suffice."""
    q = Polynomial.one(sig)
    for _ in range(max_power):
        q = q * p
        if oracle_membership(q, gens, sig):
            return True
    return False


# -- kernels over a quotient, one degree at a time ------------------------------

def _normal_form(pivots: dict[Exps, Row], vec: Row) -> Row:
    """Full reduction: no key of the result leads a pivot row."""
    vec = dict(vec)
    out: Row = {}
    while vec:
        lead = max(vec)
        c = vec.pop(lead)
        row = pivots.get(lead)
        if row is None:
            out[lead] = c
            continue
        for e, a in row.items():
            if e == lead:
                continue
            nv = vec.get(e, Fraction(0)) - c * a
            if nv:
                vec[e] = nv
            else:
                vec.pop(e, None)
    return out


def _rank(rows) -> int:
    pivots: dict = {}
    for row in rows:
        _insert(pivots, row)
    return len(pivots)


def oracle_column_rank(columns) -> int:
    """The dimension over Q of the span of relation columns, each column
    read as its coefficients {(t, monomial): c}."""
    return _rank({(t, e): c for t, entry in enumerate(column)
                  for e, c in entry.terms.items()} for column in columns)


class QuotientSlices:
    """The graded pieces R_d of R = Q[x]/(gens), with standard monomials as
    bases: the monomials of degree d that lead no pivot row of I_d."""

    def __init__(self, gens, sig: RingSignature):
        self.gens = list(gens)
        self.sig = sig
        self._pivots: dict[int, dict[Exps, Row]] = {}

    def pivots(self, degree: int) -> dict[Exps, Row]:
        if degree not in self._pivots:
            self._pivots[degree] = _degree_slice_pivots(self.gens, self.sig, degree)
        return self._pivots[degree]

    def basis(self, degree: int) -> list[Exps]:
        pivots = self.pivots(degree)
        return [m for m in monomials_of_weighted_degree(self.sig, degree)
                if m not in pivots]

    def reduce(self, p: Polynomial) -> Row:
        """Coordinates of p in R on the standard monomials of every degree."""
        by_degree: dict[int, Row] = {}
        for exps, coef in p.terms.items():
            by_degree.setdefault(self.sig.degree_of(exps), {})[exps] = coef
        out: Row = {}
        for degree, component in by_degree.items():
            out.update(_normal_form(self.pivots(degree), component))
        return out


def column_degree(column, shifts) -> int:
    """The degree delta of a homogeneous column: entry t has degree
    delta + shifts[t].  Raises if the entries disagree."""
    degrees = set()
    for entry, shift in zip(column, shifts):
        if entry.is_zero:
            continue
        d = entry.homogeneous_degree()
        if d is None:
            raise ValueError(f"column entry {entry} is not homogeneous")
        degrees.add(d - shift)
    if len(degrees) != 1:
        raise ValueError(f"column of degrees {sorted(degrees)} is not homogeneous")
    return degrees.pop()


def _kernel_images(relations, shifts, quotient: QuotientSlices, delta: int):
    """The unknowns (t, m) of the degree-delta kernel, with m a standard
    monomial of degree delta + shifts[t], and the image of each under the
    relations, keyed by (relation index, standard monomial)."""
    unknowns = [(t, m) for t, shift in enumerate(shifts)
                for m in quotient.basis(delta + shift)]
    images = []
    for t, m in unknowns:
        image: dict = {}
        for index, relation in enumerate(relations):
            if relation[t].is_zero:
                continue
            reduced = quotient.reduce(relation[t].mul_monomial(m))
            image.update(((index, e), c) for e, c in reduced.items())
        images.append(image)
    return unknowns, images


def oracle_kernel_dimension(relations, shifts, quotient: QuotientSlices,
                            delta: int) -> int:
    """dim over Q of the degree-delta part of {v in R^m : sum_t c[t] v_t = 0
    in R for every relation column c}, where v_t lies in R_(delta + shifts[t])."""
    unknowns, images = _kernel_images(relations, shifts, quotient, delta)
    return len(unknowns) - _rank(images)


def oracle_kernel_basis(relations, shifts, quotient: QuotientSlices,
                        delta: int) -> list[dict[tuple[int, Exps], Fraction]]:
    """A Q-basis of the degree-delta kernel of oracle_kernel_dimension, each
    vector keyed by (t, standard monomial of R_(delta + shifts[t])).

    Each unknown's image row is extended by a tag for the unknown; tags sort
    below image keys, so the rows whose image part eliminates to zero end as
    pivots led by a tag, and their tag parts span the kernel.
    """
    unknowns, images = _kernel_images(relations, shifts, quotient, delta)
    pivots: dict = {}
    for i, image in enumerate(images):
        row = {(1,) + key: c for key, c in image.items()}
        row[(0, i)] = Fraction(1)
        _insert(pivots, row)
    return [{unknowns[key[1]]: c for key, c in row.items()}
            for lead, row in pivots.items() if lead[0] == 0]


def oracle_trace_dimension(relations, shifts, quotient: QuotientSlices,
                           degree: int) -> int:
    """dim over Q of the degree-`degree` part of the trace ideal in R: the
    span of entry t of the kernel vectors of degree degree - shifts[t]."""
    rows = []
    for delta in sorted({degree - shift for shift in shifts}):
        for vector in oracle_kernel_basis(relations, shifts, quotient, delta):
            for t, shift in enumerate(shifts):
                if delta + shift == degree:
                    entry = {m: c for (u, m), c in vector.items() if u == t}
                    if entry:
                        rows.append(entry)
    return _rank(rows)


def oracle_span_dimension(generators, shifts, quotient: QuotientSlices,
                          delta: int) -> int:
    """dim over Q of the degree-delta part of the R-span of homogeneous
    columns: the span of m * g over generators g and monomials m of
    degree delta - deg(g), read in R."""
    rows = []
    for g in generators:
        for m in monomials_of_weighted_degree(quotient.sig,
                                             delta - column_degree(g, shifts)):
            row: dict = {}
            for t, entry in enumerate(g):
                if not entry.is_zero:
                    reduced = quotient.reduce(entry.mul_monomial(m))
                    row.update(((t, e), c) for e, c in reduced.items())
            rows.append(row)
    return _rank(rows)


def oracle_in_span(column, generators, shifts, quotient: QuotientSlices) -> bool:
    """Whether a column lies in the R-span of homogeneous columns.

    The column splits into homogeneous components, entry t of degree
    delta + shifts[t]; the span is graded, so the column lies in it exactly
    when each component does, that is, when adding the component to the
    generators leaves the span's dimension in degree delta unchanged.
    """
    sig = quotient.sig
    components: dict[int, list[Row]] = {}
    for t, (entry, shift) in enumerate(zip(column, shifts)):
        for exps, coef in entry.terms.items():
            parts = components.setdefault(sig.degree_of(exps) - shift,
                                          [{} for _ in shifts])
            parts[t][exps] = coef
    generators = list(generators)
    return all(
        oracle_span_dimension(generators + [tuple(Polynomial(sig, p) for p in parts)],
                              shifts, quotient, delta)
        == oracle_span_dimension(generators, shifts, quotient, delta)
        for delta, parts in components.items())


def oracle_in_kernel(column, relations, gens, sig: RingSignature) -> bool:
    """Whether every relation pairs with the column to an element of (gens)."""
    for relation in relations:
        acc = Polynomial.zero(sig)
        for a, v in zip(relation, column):
            acc = acc + a * v
        if not oracle_membership(acc, gens, sig):
            return False
    return True


# -- isomorphism classes of simplicial complexes --------------------------------

def canonical_facets(facets, vertices) -> tuple:
    """The smallest sorted facet list over all permutations of the vertices."""
    verts = tuple(vertices)
    return min(
        tuple(sorted(tuple(sorted(pm[v] for v in f)) for f in facets))
        for pm in (dict(zip(verts, p)) for p in itertools.permutations(verts)))


def oracle_iso_classes(max_vertices: int) -> list[SimplicialComplex]:
    """The reference census: covering antichains of nonempty subsets of
    1..n in depth-first order, the first of each canonical_facets form kept."""
    out: list[SimplicialComplex] = []
    for n in range(1, max_vertices + 1):
        verts = tuple(range(1, n + 1))
        subsets = [frozenset(c) for k in range(1, n + 1)
                   for c in itertools.combinations(verts, k)]
        seen: set[tuple] = set()
        stack: list[tuple[int, tuple[frozenset[int], ...]]] = [(0, ())]
        while stack:
            start, chosen = stack.pop()
            for j in range(start, len(subsets)):
                s = subsets[j]
                if any(s <= c or c <= s for c in chosen):
                    continue
                family = chosen + (s,)
                stack.append((j + 1, family))
                if frozenset().union(*family) != frozenset(verts):
                    continue
                canon = canonical_facets(family, verts)
                if canon not in seen:
                    seen.add(canon)
                    out.append(SimplicialComplex.from_facets(
                        [sorted(f) for f in family]))
    return out


# -- division with remainder on Fraction coefficients -----------------------------

def oracle_vector_reduce(vector: dict[int, Polynomial],
                         basis: list[dict[int, Polynomial]],
                         key) -> tuple[dict[int, Polynomial], int]:
    """Full remainder of a vector of polynomials, and the number of reduction
    steps, under division by the basis vectors in list order.

    The module term order is position over term: a smaller position is
    larger, then `key` orders the monomials.  Each step takes the largest
    remaining term and the first basis vector, in list order, whose leading
    term divides it; a position is finished before the next one is visited.
    A rank-1 vector is division by polynomials.
    """
    buckets: dict[int, list[tuple[Exps, dict[int, Polynomial]]]] = {}
    for g in basis:
        comps = {i: p for i, p in g.items() if not p.is_zero}
        if comps:
            pos = min(comps)
            buckets.setdefault(pos, []).append((max(comps[pos].terms, key=key), comps))
    steps = 0
    remainder: dict[int, Polynomial] = {}
    carry = {i: p for i, p in vector.items() if not p.is_zero}
    while carry:
        pos = min(carry)
        bucket = buckets.get(pos, ())
        sig = carry[pos].sig
        work = dict(carry.pop(pos).terms)
        leftover: dict[Exps, Fraction] = {}
        quotients: dict[int, dict[Exps, Fraction]] = {}
        while work:
            mono = max(work, key=key)
            coef = work[mono]
            hit = None
            for idx, (lm, g) in enumerate(bucket):
                if all(x <= y for x, y in zip(lm, mono)):
                    hit = (idx, lm, g)
                    break
            if hit is None:
                leftover[mono] = coef
                del work[mono]
                continue
            steps += 1
            idx, lm, g = hit
            divisor = g[pos].terms
            shift = tuple(x - y for x, y in zip(mono, lm))
            factor = coef / divisor[lm]
            q = quotients.setdefault(idx, {})
            q[shift] = q.get(shift, Fraction(0)) + factor
            for e, c in divisor.items():
                target = tuple(x + y for x, y in zip(e, shift))
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
            for i, comp in g.items():
                if i == pos:
                    continue
                acc = carry.get(i, Polynomial.zero(sig)) - comp * q_poly
                if acc.is_zero:
                    carry.pop(i, None)
                else:
                    carry[i] = acc
    return remainder, steps


# -- S-polynomials and S-vectors ----------------------------------------------------

def _vector_lead(v: dict[int, Polynomial], key) -> tuple[int, Exps]:
    pos = min(i for i, p in v.items() if not p.is_zero)
    return pos, max(v[pos].terms, key=key)


def oracle_s_vector(f: dict[int, Polynomial], g: dict[int, Polynomial],
                    key) -> dict[int, Polynomial]:
    """The S-vector of two vectors of polynomials that lead in one position,
    with leading terms taken position over term and then under `key`.  Zero
    components are left out."""
    (pf, lf), (pg, lg) = _vector_lead(f, key), _vector_lead(g, key)
    if pf != pg:
        raise ValueError("vectors leading in different positions have no S-vector")
    lcm = tuple(map(max, lf, lg))
    left = tuple(a - b for a, b in zip(lcm, lf)), 1 / f[pf].terms[lf]
    right = tuple(a - b for a, b in zip(lcm, lg)), 1 / g[pg].terms[lg]
    sig = f[pf].sig
    out = {}
    for i in sorted(set(f) | set(g)):
        comp = (f.get(i, Polynomial.zero(sig)).mul_monomial(*left)
                - g.get(i, Polynomial.zero(sig)).mul_monomial(*right))
        if not comp.is_zero:
            out[i] = comp
    return out


def s_polynomial(f: Polynomial, g: Polynomial, key) -> Polynomial:
    """The S-polynomial of f and g, with leading terms taken under `key`."""
    return oracle_s_vector({0: f}, {0: g}, key).get(0, Polynomial.zero(f.sig))


# -- module Groebner bases ------------------------------------------------------

def oracle_module_groebner(gens, key) -> list[dict[int, Polynomial]]:
    """The reduced Groebner basis of the submodule that the vectors of
    polynomials generate, under position over term with `key` on the
    monomials, sorted by (position, lead).

    Plain Buchberger: every pair of two elements that lead in one position
    is taken, in the order made, with no criterion, and each nonzero
    remainder of its S-vector joins the basis.  Then an element whose lead
    another lead divides is dropped (the later of two equal leads), and each
    other is reduced against the rest and made monic.
    """
    basis = [{i: p for i, p in g.items() if not p.is_zero} for g in gens]
    basis = [g for g in basis if g]
    leads = [_vector_lead(g, key) for g in basis]
    pairs = list(itertools.combinations(range(len(basis)), 2))
    for i, j in pairs:  # also the pairs appended on the way
        if leads[i][0] == leads[j][0]:
            remainder, _ = oracle_vector_reduce(oracle_s_vector(basis[i], basis[j], key),
                                                basis, key)
            if remainder:
                pairs += [(k, len(basis)) for k in range(len(basis))]
                basis.append(remainder)
                leads.append(_vector_lead(remainder, key))

    def redundant(k: int) -> bool:
        pos, lead = leads[k]
        return any(j != k and leads[j][0] == pos
                   and all(x <= y for x, y in zip(leads[j][1], lead))
                   and (leads[j][1] != lead or j < k)
                   for j in range(len(basis)))

    kept = [k for k in range(len(basis)) if not redundant(k)]
    out = []
    for k in kept:
        remainder, _ = oracle_vector_reduce(basis[k], [basis[j] for j in kept if j != k],
                                            key)
        pos, lead = leads[k]
        scale = 1 / remainder[pos].terms[lead]
        out.append(((pos, key(lead)), {i: p.scale(scale) for i, p in remainder.items()}))
    return [v for _, v in sorted(out, key=lambda item: item[0])]
