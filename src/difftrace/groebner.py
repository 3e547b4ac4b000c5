"""Buchberger's algorithm and ideal arithmetic over Q.

All computations are exact.  Polynomials in and out carry Fraction
coefficients.  One Buchberger engine (`_Engine`, built by `_seeded_engine`)
computes the Groebner bases of ideals.  Kernels of module maps
(modsyz.syzygies) run a signature-based loop (`_syzygy_basis`) on vectors
of the same integer elements, with the same final sweep.  Division
with remainder of polynomials and vectors runs in one kernel (`_reduce`) on
integer coefficients over one common denominator, and forms Fractions only
for the remainder or basis it returns.  Inside the engine each monomial is
one packed int, whose order is the monomial order; monomials are packed and
unpacked only where Fractions are read or made.  Packing holds weighted
degrees up to 16383 in each block of the order (and so every exponent up to
16383); past that limit the engine raises DegreeLimitError, a ValueError.
Monomial orders are weighted graded reverse lexicographic (the default
everywhere) and a two-block elimination order used by
eliminate/intersection.  Every S-pair or J-pair taken for reduction and
every reduction step ticks a step budget, so runaway computations surface
as BudgetExceededError instead of hanging.
"""

from __future__ import annotations

import heapq
import itertools
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .poly import (
    Exponents,
    Polynomial,
    RingSignature,
    grevlex_key,
)

DEFAULT_MAX_STEPS = 1_000_000


class BudgetExceededError(RuntimeError):
    """The step budget ran out before the computation finished."""


class DegreeLimitError(ValueError):
    """A monomial past the packing's limit of weighted degree 16383 in one
    block of the order: the input is beyond a documented limit of the
    engine, and no answer is given for it."""


class StepBudget:
    """Counts steps; tick() raises once the limit is exhausted.

    A step is one S-pair or J-pair taken for reduction, one reduction step,
    or one row subtraction of the graded solver (graded.py).  A pair that a
    criterion drops costs nothing, the signature criteria of a kernel
    (`_syzygy_basis`) included, and so does a pair that the scan for the
    presented generators of a quotient ideal (`_minimal_scan`) leaves
    pending above its largest candidate degree: it is never taken.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_MAX_STEPS):
        if limit < 1:
            raise ValueError("step budget must be positive")
        self.limit = limit
        self.used = 0

    def tick(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(
                f"step budget of {self.limit} exceeded; raise --max-steps to continue")


_budget_var: ContextVar[StepBudget | None] = ContextVar("difftrace_budget", default=None)


@contextmanager
def step_budget(limit: int):
    """Run the enclosed computations under one shared step budget."""
    token = _budget_var.set(StepBudget(limit))
    try:
        yield _budget_var.get()
    finally:
        _budget_var.reset(token)


def current_budget() -> StepBudget:
    """The ambient budget, or a fresh default-sized one.

    Outside `step_budget`, each engine entry (each `buchberger`,
    `normal_form_raw`, `groebner_basis`, `presented_generators`,
    `syzygies` or `trace_contains`) gets its own budget.
    `step_budget` is the only way to bound or count a library computation
    as a whole.
    """
    budget = _budget_var.get()
    return budget if budget is not None else StepBudget()


# -- monomial orders ----------------------------------------------------------

@dataclass(frozen=True)
class WeightedGrevlex:
    """Graded reverse lexicographic order refined by weighted total degree."""

    weights: tuple[int, ...]

    def key(self, exps: Exponents):
        return grevlex_key(exps, self.weights)

    @cached_property
    def _packing(self) -> _Packing:
        return _Packing(self.weights, 0)


@dataclass(frozen=True)
class BlockOrder:
    """Eliminates the first `cut` variables: block-wise grevlex comparison."""

    weights: tuple[int, ...]
    cut: int

    def key(self, exps: Exponents):
        c = self.cut
        return (grevlex_key(exps[:c], self.weights[:c]),
                grevlex_key(exps[c:], self.weights[c:]))

    @cached_property
    def _packing(self) -> _Packing:
        return _Packing(self.weights, self.cut)


Order = WeightedGrevlex | BlockOrder


def default_order(sig: RingSignature) -> WeightedGrevlex:
    return _grevlex(sig.weights)


_grevlex = cache(WeightedGrevlex)  # one order, so one packing, per weight tuple


def leading_monomial(p: Polynomial, order: Order) -> Exponents:
    if p.is_zero:
        raise ValueError("the zero polynomial has no leading monomial")
    return max(p.terms, key=order.key)


def monic(p: Polynomial, order: Order) -> Polynomial:
    lc = p.terms[leading_monomial(p, order)]
    return p if lc == 1 else p.scale(1 / lc)


# -- packed monomials ------------------------------------------------------------
#
# Inside the kernel a monomial is one int (Monagan and Pearce, CASC 2007).
# An order's variables fall into blocks compared one after another: one for
# weighted grevlex, two for the elimination order.  From the top, each block
# has one field holding its weighted degree and then one field per variable,
# last variable first, holding _BIAS - exponent.  Every field is _FIELD bits
# wide and its top bit is a guard, clear in every packed monomial.  So:
#
# - comparing ints compares the order's keys;
# - packing is affine, so a + b - base packs the product of a and b;
# - a divides b exactly when ((a | guards) - b) keeps every variable guard
#   bit: no field borrows from the next.
#
# Each block's weighted degree must stay at most _MAX_DEGREE, so every
# exponent does too.  Then the product of two packed monomials still packs
# without a borrow, and the bit below its degree fields' guards shows
# whether it went over.

_FIELD = 16  # bits per field, read back as little-endian unsigned shorts
_BIAS = (1 << (_FIELD - 1)) - 1
_MAX_DEGREE = (1 << (_FIELD - 2)) - 1
_WHOLE = (1 << _FIELD) - 1  # every bit of one field


class _Packing:
    """The packed encoding of one order: its weights, and the number of
    variables in its first block if it has two (0 for weighted grevlex)."""

    __slots__ = ("layout", "base", "guards", "dividing", "over", "top",
                 "_cut", "_back", "_blocks", "_weight_masks", "_fields", "_size")

    def __init__(self, weights: tuple[int, ...], cut: int):
        n = len(weights)
        # fields from the bottom, as (variables, weights) per block, each
        # block followed by its degree field
        blocks = ([(n - cut, weights[cut:]), (cut, weights[:cut])] if cut
                  else [(n, weights)])
        self._blocks = []
        # per block: its degree field's offset and, for each distinct weight,
        # a mask of the block's variable fields of that weight
        self._weight_masks = []
        self.base = self.dividing = self.over = 0
        start = field = 0
        for count, block_weights in blocks:
            masks: dict[int, int] = {}
            for k, w in zip(range(field, field + count), block_weights):
                self.base |= _BIAS << (_FIELD * k)
                self.dividing |= 1 << (_FIELD * k + _FIELD - 1)
                masks[w] = masks.get(w, 0) | (_WHOLE << (_FIELD * k))
            degree = _FIELD * (field + count)
            self.over |= 1 << (degree + _FIELD - 2)
            self._blocks.append((slice(start, start + count), block_weights, degree))
            self._weight_masks.append((degree, tuple(masks.items())))
            start += count
            field += count + 1
        self.top = degree  # the first block's degree field
        self.guards = sum(1 << (_FIELD * k + _FIELD - 1) for k in range(field))
        self.layout = (weights, cut)
        self._cut, self._back = cut, n - cut if cut else 0
        self._fields = struct.Struct("<" + "".join(f"{count}H2x" for count, _ in blocks))
        self._size = self._fields.size

    def _degrees(self, fields: Exponents) -> int:
        """The degree fields of the exponents in field order;
        DegreeLimitError past the limit."""
        out = 0
        for span, weights, offset in self._blocks:
            degree = sum(map(mul, fields[span], weights))
            if degree > _MAX_DEGREE:
                raise self.overflow()
            out |= degree << offset
        return out

    def pack(self, exps: Exponents) -> int:
        c = self._cut
        fields = exps[c:] + exps[:c] if c else exps
        degrees = self._degrees(fields)
        return degrees | (int.from_bytes(self._fields.pack(*fields), "little") ^ self.base)

    def unpack(self, mono: int) -> Exponents:
        # _BIAS - f == _BIAS ^ f for a field f in [0, _BIAS]
        fields = self._fields.unpack((mono ^ self.base).to_bytes(self._size, "little"))
        c = self._back
        return fields[c:] + fields[:c] if c else fields

    def lcm(self, a: int, b: int) -> int:
        """The lcm of two packed monomials, by the smaller of each pair of
        variable fields.

        Its degree fields are summed from the exponents (low ^ base) without
        unpacking them: 2^_FIELD is 1 modulo _WHOLE, so the remainder of the
        fields under one weight's mask is their sum.  The sum is exact, as
        it is at most the two monomials' block degrees together, at most
        2 * _MAX_DEGREE < _WHOLE.
        """
        ge = ((a | self.guards) - b) & self.dividing  # where a's field is >= b's
        keep = ge - (ge >> (_FIELD - 1))
        low = (b & keep) | (a & self.base & ~keep)
        exps = low ^ self.base
        for offset, masks in self._weight_masks:
            degree = 0
            for w, mask in masks:
                degree += w * ((exps & mask) % _WHOLE)
            if degree > _MAX_DEGREE:
                raise self.overflow()
            low |= degree << offset
        return low

    @staticmethod
    def overflow() -> DegreeLimitError:
        return DegreeLimitError(
            f"a monomial of weighted degree above {_MAX_DEGREE} in one block of "
            f"the monomial order: the Groebner engine holds monomials up to "
            f"weighted degree {_MAX_DEGREE}")


# -- division with remainder on integers ---------------------------------------
#
# The kernel reduces a vector {position: {packed monomial: int}} whose exact
# value is that vector divided by one common denominator; a polynomial is
# the vector at position 0.  A basis element of the Buchberger engine or of
# the signature loop is an _Element: (lead position, lead monomial, integer
# vector, lead coefficient).  A reducer, bucketed by lead position, is
# (guarded lead, lead monomial, integer vector, lead coefficient): the
# guarded lead has every guard bit set, ready for the divisibility test.  A
# reduction step is the same for every nonzero multiple of a reducer, so
# each is kept as its primitive multiple: coprime integers, made once per
# encoding and cached on the Polynomial.  Monomials are packed and unpacked
# only where Fractions are read or made.

_IntVector = dict[int, dict[int, int]]
_Element = tuple[int, int, _IntVector, int]
_Reducer = tuple[int, int, _IntVector, int]
# a reducer of the signature loop: a _Reducer and its signature
_SignedReducer = tuple[int, int, _IntVector, int, int]


def _integers(comps: Mapping[int, Mapping[Exponents, Fraction]],
              packing: _Packing) -> tuple[_IntVector, int]:
    """Integer numerators of Fraction terms over their least common
    denominator, on packed monomials."""
    den = lcm(*(c.denominator for terms in comps.values() for c in terms.values()))
    pack = packing.pack
    return ({i: {pack(e): c.numerator * (den // c.denominator) for e, c in terms.items()}
             for i, terms in comps.items() if terms}, den)


def _primitive(vec: _IntVector) -> _IntVector:
    """The vector divided by the gcd of its coefficients."""
    g = gcd(*(c for comp in vec.values() for c in comp.values()))
    if g == 1:
        return vec
    return {i: {e: c // g for e, c in comp.items()} for i, comp in vec.items()}


def _fractions(comp: dict[int, int], den: int,
               packing: _Packing) -> dict[Exponents, Fraction]:
    unpack = packing.unpack
    return {unpack(e): Fraction(c, den) for e, c in comp.items()}


def _reducer(element: _Element, packing: _Packing) -> _Reducer:
    """The reducer of an element: its lead guarded for the divisibility test."""
    _, lead, ints, coef = element
    return lead | packing.guards, lead, ints, coef


def _buckets(elements: Iterable[_Element], packing: _Packing) -> dict[int, list[_Reducer]]:
    """Reducers by lead position, in list order."""
    out: dict[int, list[_Reducer]] = {}
    for element in elements:
        out.setdefault(element[0], []).append(_reducer(element, packing))
    return out


def _reduce(vec: _IntVector, den: int, buckets: dict[int, list[_Reducer]],
            packing: _Packing, budget: StepBudget) -> tuple[_IntVector, int]:
    """Full remainder of vec / den against reducers bucketed by lead position,
    as (integer vector, denominator); vec is consumed.

    The module order is position over term: a smaller position is larger.
    Each step takes the largest remaining term and the first reducer in its
    bucket whose leading monomial divides it.  A reducer's lead sits at its
    smallest position, so the terms it drags in land strictly later and each
    position is finished once.  To cancel coefficient c against a reducer
    lead a, the vector is multiplied by a/gcd(c, a), which the denominator
    records, so no step leaves the integers.

    Monomials are packed ints: the largest term is max(work), a reducer's
    lead divides it when one subtract-and-mask keeps the variable guards,
    and a dragged-in term is one addition.  Each term taken is checked
    against the degree limit (DegreeLimitError beyond it).  Under weighted
    grevlex a step never raises the degree at its own position, but the
    second block of the elimination order, or a later position of a module,
    can grow.  A term past the limit still packs without a borrow, as both
    of its factors were within it.
    """
    dividing, over = packing.dividing, packing.over
    remainder: _IntVector = {}
    while vec:
        pos = min(vec)
        work = vec.pop(pos)
        bucket = buckets.get(pos, ())
        done: dict[int, int] = {}
        remainder[pos] = done
        while work:
            mono = max(work)
            if mono & over:
                raise packing.overflow()
            coef = work[mono]
            for guarded, lm, red, lead in bucket:
                if (guarded - mono) & dividing == dividing:
                    break
            else:
                done[mono] = work.pop(mono)
                continue
            budget.tick()
            den = _cancel(vec, remainder, pos, work, mono, coef, den, lm, red, lead)
        if not done:
            del remainder[pos]
    return remainder, den


def _cancel(vec: _IntVector, remainder: _IntVector, pos: int, work: dict[int, int],
            mono: int, coef: int, den: int, lm: int, red: _IntVector, lead: int) -> int:
    """One reduction step: cancel the term coef*mono of work, the part of
    the vector at position pos, against a reducer with lead coefficient
    lead at monomial lm; returns the new denominator.  The vector and the
    remainder so far are multiplied by lead/gcd(coef, lead), so no step
    leaves the integers."""
    # g takes the sign of lead, so a lead of -1 rescales nothing
    g = gcd(coef, lead)
    if lead < 0:
        g = -g
    scale = lead // g
    coef //= g
    if scale != 1:
        den *= scale
        for comp in (work, *vec.values(), *remainder.values()):
            for e in comp:
                comp[e] *= scale
    shift = mono - lm
    for i, terms in red.items():
        target = work if i == pos else vec.setdefault(i, {})
        for e, c in terms.items():
            t = e + shift
            v = target.get(t, 0) - coef * c
            if v:
                target[t] = v
            else:
                del target[t]
        if not target and i != pos:
            del vec[i]
    return den


def _poly_element(g: Polynomial, order: Order) -> _Element:
    """The primitive integer element of a nonzero polynomial.  Its lead and
    terms are cached on the polynomial with their encoding, and made again
    under another encoding."""
    packing = order._packing
    cached = g._ints
    if cached is None or cached[0].layout != packing.layout:
        ints = _primitive(_integers({0: g.terms}, packing)[0])[0]
        cached = g._ints = (packing, max(ints), ints)
    _, lead, ints = cached
    return 0, lead, {0: ints}, ints[lead]


def normal_form_raw(p: Polynomial, basis: Sequence[Polynomial],
                    order: Order) -> Polynomial:
    """Full remainder of p under multivariate division by basis.

    No term of the result is divisible by any basis leading monomial.  Each
    step divides the largest remaining term by the first basis element, in
    list order, whose leading monomial divides it.
    """
    if p.is_zero:
        return Polynomial._of(p.sig, {})
    packing = order._packing
    buckets = _buckets([_poly_element(g, order) for g in basis if not g.is_zero], packing)
    vec, den = _integers({0: p.terms}, packing)
    remainder, den = _reduce(vec, den, buckets, packing, current_budget())
    return Polynomial._of(p.sig, _fractions(remainder.get(0, {}), den, packing))


def _element(ints: _IntVector) -> _Element:
    pos = min(ints)
    mono = max(ints[pos])
    return pos, mono, ints, ints[pos][mono]


def _s_vector(a: _Element, b: _Element, lcm: int) -> _IntVector:
    """A nonzero multiple of the S-vector of two elements with one lead position."""
    g = gcd(a[3], b[3])
    out: _IntVector = {}
    for (_, mono, ints, _), factor in ((a, b[3] // g), (b, -(a[3] // g))):
        shift = lcm - mono
        for i, comp in ints.items():
            acc = out.setdefault(i, {})
            for e, c in comp.items():
                t = e + shift
                v = acc.get(t, 0) + factor * c
                if v:
                    acc[t] = v
                else:
                    del acc[t]
    return {i: comp for i, comp in out.items() if comp}


def _monic_polynomial(sig: RingSignature, element: _Element, order: Order) -> Polynomial:
    packing = order._packing
    g = Polynomial._of(sig, _fractions(element[2][0], element[3], packing))
    g._ints = (packing, element[1], element[2][0])
    return g


class _Engine:
    """One Buchberger run on an ideal that can stop and resume: the basis,
    its reducers (all at position 0), the pairing set (indices of the
    elements no later lead divides), the deferred elements (reducers not
    yet paired) and the pending pairs {(i, j): lcm}, with a heap of the
    pairs in ascending (lcm, made) order.  A seed, already a Groebner basis,
    joins the pairing set with no pair.

    Leads and lcms are packed monomials, so the lcm, each divisibility test
    and the coprime test are a few integer operations, and an lcm past the
    degree limit raises DegreeLimitError.  Each element is paired by the
    update of Gebauer and Moeller (J. Symbolic Comput. 6, 1988).  B: a
    pending pair is dropped when the new lead divides its lcm and differs
    from both lcms with the new element.  M and F: of the new pairs, one per
    minimal lcm is kept, and then one whose two leads are coprime is
    dropped.  Elements whose lead the new lead divides leave the pairing set
    and stay reducers.  The budget is ticked once per pair taken for
    reduction and once per reduction step; dropped pairs cost nothing.  An
    abort can leave a popped pair untaken, so no engine is resumed after one.
    """

    __slots__ = ("packing", "budget", "basis", "buckets", "pairing", "deferred",
                 "pending", "heap", "counter")

    def __init__(self, packing: _Packing, budget: StepBudget, seed: Iterable[_Element] = ()):
        self.packing = packing
        self.budget = budget
        self.basis: list[_Element] = list(seed)
        self.buckets: dict[int, list[_Reducer]] = {
            0: [_reducer(e, packing) for e in self.basis]}
        self.pairing: list[int] = list(range(len(self.basis)))
        self.deferred: list[int] = []
        self.pending: dict[tuple[int, int], int] = {}
        self.heap: list = []
        self.counter = itertools.count()

    def install(self, element: _Element, pairs: bool = True):
        """Add the element as a reducer and pair it, or else defer it: no
        pair and no place in the pairing set until a full run."""
        new = len(self.basis)
        self.basis.append(element)
        self.buckets[0].append(_reducer(element, self.packing))
        if pairs:
            self._pair(new)
        else:
            self.deferred.append(new)

    def _pair(self, new: int):
        """Pair the element at index `new`; it joins the pairing set."""
        packing = self.packing
        guards, dividing, lcm_of = packing.guards, packing.dividing, packing.lcm
        basis, pairing, pending = self.basis, self.pairing, self.pending
        lead = basis[new][1]
        guarded = lead | guards
        # B on the pending pairs
        for pair in [pair for pair, lcm in pending.items()
                     if (guarded - lcm) & dividing == dividing
                     and lcm != lcm_of(basis[pair[0]][1], lead)
                     and lcm != lcm_of(basis[pair[1]][1], lead)]:
            del pending[pair]
        # M and F on the new pairs, then the coprime-lead criterion
        kept: list[tuple[int, int]] = []
        minimal: list[int] = []  # the kept lcms, guarded
        for lcm, i in sorted((lcm_of(basis[i][1], lead), i) for i in pairing):
            if not any((other - lcm) & dividing == dividing for other in minimal):
                kept.append((i, lcm))
                minimal.append(lcm | guards)
        for i, lcm in kept:
            if lcm != basis[i][1] + lead - packing.base:
                pending[i, new] = lcm
                heapq.heappush(self.heap, (lcm, next(self.counter), i, new))
        pairing[:] = [i for i in pairing
                      if (guarded - basis[i][1]) & dividing != dividing]
        pairing.append(new)

    def run(self, cap: int | None = None):
        """Take pairs, installing each nonzero remainder of an S-polynomial,
        until no pair is pending or the smallest lcm reaches `cap`.  The heap
        is read before a pair is taken, so a pair at or above the cap stays
        pending for a later run.  A full run (no cap) first pairs the
        deferred elements in install order.

        Homogeneous elements under WeightedGrevlex compare by weighted degree
        first, so a cap of (d + 1) << packing.top takes every pair of lcm
        degree up to d and no other.  The basis is then truncated at d: it
        decides membership of every homogeneous element of degree up to d,
        interreduced or not (Gebauer and Moeller's degree-by-degree
        argument).
        """
        while cap is None and self.deferred:
            self._pair(self.deferred.pop(0))
        heap, pending, basis, buckets = self.heap, self.pending, self.basis, self.buckets
        packing, budget = self.packing, self.budget
        while heap and (cap is None or heap[0][0] < cap):
            lcm, _, i, j = heapq.heappop(heap)
            if pending.pop((i, j), None) is None:
                continue
            budget.tick()
            remainder, _ = _reduce(_s_vector(basis[i], basis[j], lcm), 1, buckets,
                                   packing, budget)
            if remainder:
                self.install(_element(_primitive(remainder)))

    def reduced_basis(self, sig: RingSignature, order: Order) -> tuple[Polynomial, ...]:
        """The reduced Groebner basis of the elements' ideal, monic in
        increasing lead order: a full run, then one sweep (`_interreduce`)
        over the pairing set."""
        self.run()
        return tuple(_monic_polynomial(sig, e, order)
                     for e in _interreduce([self.basis[i] for i in self.pairing],
                                           self.packing, self.budget))


def _interreduce(elements: list[_Element], packing: _Packing,
                 budget: StepBudget) -> list[_Element]:
    """The reduced Groebner basis of the module that a Groebner basis
    generates, in increasing lead order.  One sweep in increasing lead
    order drops each element whose lead a kept lead divides (the later of
    two equal leads) and reduces the tails of the others: every reducer a
    tail can see is final, so the sweep reaches the reduced basis."""
    dividing = packing.dividing
    kept: list[_Element] = []
    reducers: dict[int, list[_Reducer]] = {}
    for pos, lead, ints, _ in sorted(elements, key=lambda e: (-e[0], e[1])):
        bucket = reducers.setdefault(pos, [])
        if any((guarded - lead) & dividing == dividing for guarded, *_ in bucket):
            continue
        remainder, _ = _reduce({p: dict(comp) for p, comp in ints.items()}, 1,
                               reducers, packing, budget)
        kept.append(_element(_primitive(remainder)))
        bucket.append(_reducer(kept[-1], packing))
    kept.sort(key=lambda e: (e[0], e[1]))
    return kept


def _syzygy_basis(base: list[_Element], inputs: list[_IntVector], known: list[_Element],
                  first_tag: int, order: Order, budget: StepBudget) -> list[_Element]:
    """The reduced Groebner basis of the syzygies of the inputs modulo the
    base, by a signature-based loop (Gao, Volny and Wang, Math. Comp. 85,
    2016).

    Positions below `first_tag` hold values and the others tags.  The base
    is a reduced basis of a module at the value positions.  Each input has a
    tag part; `known` are elements at the tag positions only, whose tags are
    syzygies (they send the inputs' values into the base's module).  The
    result is the reduced basis of every tag part with value zero.

    An element's signature is the lead (position, monomial) of its tag
    part, in the module order (a smaller position is larger).  The base
    reduces values with a signature below every tag and makes no pair
    inside it (Eder and Perry, J. Symbolic Comput. 45, 2010).  H holds the
    leads of the syzygies known so far: those of `known`, then each one
    found.  Inputs and J-pairs are taken in increasing (signature, lcm)
    order.  For a new element g and each reducer r leading at g's value
    position, with L the lcm of their leads, the J-pair's signature T is the
    larger of (L/lm g) sig g and (L/lm r) sig r; if the two are equal no
    pair is made.  A pair is dropped when a lead in H divides T (the
    syzygy criterion, checked when the pair is made and when it is taken),
    or when it is covered: some element g' has sig g' | T and
    (T/sig g') lm g' < L.  A taken pair's S-vector has signature T and a
    value lead below L.  Only that lead is reduced, and only by a reducer
    whose multiplied signature is below T, so the tag part keeps its lead
    T.  A reducer with multiplied signature T and the same lead would have
    covered the pair, so none is met.  A value reduced to zero leaves a
    syzygy with lead T, added to H; any other element joins the reducers.

    Nothing is missed.  Take a minimal lead T of the syzygies, not in H at
    the end, and all multiples t g' with t sig g' = T (an input's multiple
    is one).  Choose the one with the smallest value lead t lm g'.  Were
    that lead regular-reducible by r, the J-pair of g' and r would have a
    signature dividing T.  Taking it, or the element that covers it, would
    give a multiple with signature T and a smaller value lead, or put a
    divisor of T in H.  So it is not; then a syzygy with lead T, less a
    multiple of t g', has a smaller signature and the same value lead,
    which the pairs below T make regular-reducible: a contradiction.  So
    the syzygies found and `known` are a Groebner basis of the syzygies;
    the sweep of `_interreduce` makes it reduced, keeping an element of
    `known` over a syzygy found with the same lead.

    One step is one J-pair taken or one reduction step; dropped pairs cost
    nothing.  Signatures are packed monomials keyed by position, so their
    products get the degree-limit check of every lcm.
    """
    packing = order._packing
    guards, dividing, over = packing.guards, packing.dividing, packing.over
    lcm_of = packing.lcm
    width = 8 * packing._size
    mask = (1 << width) - 1
    last = max([max(vec) for vec in inputs] + [pos for pos, _, _, _ in known])

    def key(pos: int, mono: int) -> int:
        """A (position, monomial) as one int in the module order."""
        return (last - pos) << width | mono

    below = -1 << (width + 1)  # the base's signature, under every tag
    buckets: dict[int, list[_SignedReducer]] = {}
    for element in base:
        buckets.setdefault(element[0], []).append((*_reducer(element, packing), below))
    # by signature position: H as guarded leads, and the elements as
    # (guarded signature, signature, value lead key)
    syzygies: dict[int, list[int]] = {}
    for pos, lead, _, _ in known:
        syzygies.setdefault(pos, []).append(lead | guards)
    signed: dict[int, list[tuple[int, int, int]]] = {}
    found: list[_Element] = []
    heap: list = []
    counter = itertools.count()

    def dropped(pos: int, mono: int) -> bool:
        """The syzygy criterion."""
        return any((h - mono) & dividing == dividing for h in syzygies.get(pos, ()))

    for vec in inputs:
        pos = min(i for i in vec if i >= first_tag)
        heapq.heappush(heap, (key(pos, max(vec[pos])), -1, next(counter), vec, None, 0))

    while heap:
        sig, lead_key, _, a, b, lcm = heapq.heappop(heap)
        pos, mono = last - (sig >> width), sig & mask
        if dropped(pos, mono):
            continue
        if b is None:
            vec = {i: dict(comp) for i, comp in a.items()}
        else:
            if any((g - mono) & dividing == dividing and v + mono - m < lead_key
                   for g, m, v in signed.get(pos, ())):
                continue
            budget.tick()
            vec = _s_vector(a[:4], b[:4], lcm)
        element = _element(_primitive(
            _regular_reduce(vec, sig, buckets, first_tag, packing, budget)))
        if element[0] >= first_tag:
            syzygies.setdefault(pos, []).append(mono | guards)
            found.append(element)
            continue
        # a new reducer: its J-pairs with the reducers at its lead position
        at, lead = element[0], element[1]
        new = (*_reducer(element, packing), sig)
        bucket = buckets.setdefault(at, [])
        for r in bucket:
            lcm = lcm_of(lead, r[1])
            mine, theirs = sig + lcm - lead, r[4] + lcm - r[1]
            if mine == theirs:
                continue
            top = max(mine, theirs)
            if top & over:
                raise packing.overflow()
            if not dropped(last - (top >> width), top & mask):
                heapq.heappush(heap, (top, key(at, lcm), next(counter), new, r, lcm))
        bucket.append(new)
        signed.setdefault(pos, []).append((mono | guards, mono, key(at, lead)))
    return _interreduce(known + found, packing, budget)


def _regular_reduce(vec: _IntVector, sig: int,
                    buckets: dict[int, list[_SignedReducer]], first_tag: int,
                    packing: _Packing, budget: StepBudget) -> _IntVector:
    """vec, of signature sig, with its value lead regular-reduced as far as
    it goes (see _syzygy_basis).  The value tails and the positions from
    `first_tag` on stay unreduced; vec is consumed."""
    dividing, over = packing.dividing, packing.over
    while True:
        pos = min(vec)
        if pos >= first_tag:
            return vec
        work = vec.pop(pos)
        mono = max(work)
        if mono & over:
            raise packing.overflow()
        for guarded, lm, red, lead, signature in buckets.get(pos, ()):
            if (guarded - mono) & dividing == dividing and signature + mono - lm < sig:
                break
        else:
            vec[pos] = work
            return vec
        budget.tick()
        _cancel(vec, {}, pos, work, mono, work[mono], 1, lm, red, lead)
        if work:
            vec[pos] = work


def buchberger(gens: Iterable[Polynomial], order: Order) -> tuple[Polynomial, ...]:
    """The unique reduced Groebner basis of the ideal generated by gens.

    Pairs are taken in ascending lcm order; the pair updates of Gebauer
    and Moeller and the coprime-lead criterion drop useless pairs before
    any reduction work happens (see _Engine).
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return ()
    return _seeded_engine((), gens, order).reduced_basis(gens[0].sig, order)


def _seeded_engine(seed: Iterable[Polynomial], gens: Iterable[Polynomial],
                   order: Order) -> _Engine:
    """An `_Engine` under the ambient budget, seeded with `seed`, which must
    already be a Groebner basis, with each generator (nonzero) installed and
    paired."""
    engine = _Engine(order._packing, current_budget(),
                     [_poly_element(f, order) for f in seed])
    for g in gens:
        engine.install(_poly_element(g, order))
    return engine


# -- ideal handles and operations ---------------------------------------------

class IdealHandle:
    """An ideal of a polynomial ring: generators plus a cached reduced basis.

    The basis is computed on first use, from the generators alone unless
    the handle was made with a private `_base`: a handle whose generators
    end this handle's, which makes it an ideal of the quotient by the base.
    Then the computation starts from the base's cached reduced basis and
    makes no pair inside it.  If every generator is homogeneous, the basis
    resumes the engine of the scan that finds the presented generators
    (`_scan`), and then drops it.  A function that already holds the
    reduced basis (`eliminate`, `ideal_intersection`) stores it on the
    handle it returns.  Every handle lives in the default order of its
    signature.
    """

    __slots__ = ("sig", "gens", "order", "_base", "__dict__")

    def __init__(self, sig: RingSignature, gens: Iterable[Polynomial], *,
                 _base: IdealHandle | None = None):
        self.sig = sig
        self.order = default_order(sig)
        gen_list = []
        for g in gens:
            if g.sig != sig:
                raise ValueError("generator signature does not match the handle")
            if not g.is_zero:
                gen_list.append(g)
        if _base is not None:
            gen_list += _base.gens
        self.gens = tuple(gen_list)
        self._base = _base

    @cached_property
    def groebner_basis(self) -> tuple[Polynomial, ...]:
        base = self._base
        if base is None:
            return buchberger(self.gens, self.order)
        if all(g.is_homogeneous() for g in self.gens):
            self._presented  # runs the scan unless it has run
            engine = self._scan[1]
            del self._scan  # an abort in the resume leaves no engine behind
            engine.budget = current_budget()
        else:
            engine = _seeded_engine(base.groebner_basis,
                                    self.gens[:len(self.gens) - len(base.gens)], self.order)
        return engine.reduced_basis(self.sig, self.order)

    @cached_property
    def _presented(self) -> tuple[Polynomial, ...]:
        """See GradedAlgebra.presented_generators."""
        return self._scan[0]

    @cached_property
    def _scan(self) -> tuple[tuple[Polynomial, ...], _Engine]:
        """The scan of the own generators' monic residues modulo the base,
        without duplicates, sorted by degree, then leading monomial
        descending under grevlex, then string."""
        base, order = self._base, self.order
        residues = (normal_form(g, base) for g in self.gens[:len(self.gens) - len(base.gens)])
        candidates = list(dict.fromkeys(monic(r, order) for r in residues if not r.is_zero))
        candidates.sort(key=lambda g: (g.homogeneous_degree() or 0,
                                       tuple(reversed(leading_monomial(g, order))),
                                       str(g)))
        return _minimal_scan(candidates, base, order)

    @property
    def is_trivial(self) -> bool:
        """Whether the ideal is the whole ring.  With homogeneous generators
        no basis is needed: the weights are positive, so such an ideal is the
        unit ideal exactly when a generator is a nonzero constant."""
        if all(g.is_homogeneous() for g in self.gens):
            return any(g.is_constant() for g in self.gens)
        gb = self.groebner_basis
        return len(gb) == 1 and gb[0].is_constant()

    @property
    def is_zero(self) -> bool:
        return not self.groebner_basis

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inside})"


def _check_same_ambient(I: IdealHandle, J: IdealHandle):
    if I.sig != J.sig:
        raise ValueError("ideal operands live over different signatures")


def normal_form(p: Polynomial, I: IdealHandle) -> Polynomial:
    if p.sig != I.sig:
        raise ValueError("polynomial signature does not match the ideal")
    return normal_form_raw(p, I.groebner_basis, I.order)


def ideal_membership(p: Polynomial, I: IdealHandle) -> bool:
    return normal_form(p, I).is_zero


def ideal_equals(I: IdealHandle, J: IdealHandle) -> bool:
    """Literal equality of ideals via their unique reduced bases."""
    _check_same_ambient(I, J)
    return I.groebner_basis == J.groebner_basis


def ideal_contains(I: IdealHandle, J: IdealHandle) -> bool:
    """Whether every generator of J lies in I."""
    _check_same_ambient(I, J)
    return all(ideal_membership(g, I) for g in J.gens)


def _fresh_name(sig: RingSignature, stem: str = "t") -> str:
    if stem not in sig.names:
        return stem
    for k in itertools.count():
        candidate = f"{stem}{k}"
        if candidate not in sig.names:
            return candidate


def _lift(p: Polynomial, target: RingSignature, positions: Sequence[int]) -> Polynomial:
    """Reinterpret p in target, sending variable i to positions[i]."""
    terms = {}
    for exps, coef in p.terms.items():
        out = [0] * target.nvars
        for i, e in enumerate(exps):
            out[positions[i]] = e
        terms[tuple(out)] = coef
    return Polynomial(target, terms)


def _drop_front(p: Polynomial, k: int, target: RingSignature) -> Polynomial:
    return Polynomial(target, {exps[k:]: c for exps, c in p.terms.items()})


def eliminate(I: IdealHandle, k: int) -> IdealHandle:
    """The contraction of I to the last n-k variables.

    Recomputes a basis under the two-block order that puts the k eliminated
    variables first, then keeps the elements free of them.  These form the
    reduced basis of the contraction under the default order of the last
    n-k variables, so the returned handle holds them as its basis.
    """
    n = I.sig.nvars
    if not 0 < k < n:
        raise ValueError("must eliminate at least one and not every variable")
    block = BlockOrder(I.sig.weights, k)
    gb = buchberger(I.gens, block)
    rest = RingSignature(I.sig.names[k:], I.sig.weights[k:])
    kept = [
        _drop_front(g, k, rest)
        for g in gb
        if all(all(e == 0 for e in exps[:k]) for exps in g.terms)
    ]
    handle = IdealHandle(rest, kept)
    handle.groebner_basis = tuple(kept)  # fills the cached_property
    return handle


def ideal_intersection(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """I intersect J, by eliminating t from t*I + (1-t)*J.

    The handle comes back from the elimination holding its reduced basis.
    """
    _check_same_ambient(I, J)
    sig = I.sig
    tname = _fresh_name(sig)
    ext = RingSignature((tname,) + sig.names, (1,) + sig.weights)
    positions = list(range(1, ext.nvars))
    t = Polynomial.variable(ext, 0)
    one = Polynomial.one(ext)
    gens = [t * _lift(f, ext, positions) for f in I.gens]
    gens += [(one - t) * _lift(g, ext, positions) for g in J.gens]
    return eliminate(IdealHandle(ext, gens), 1)


def radical_membership(p: Polynomial, I: IdealHandle) -> bool:
    """Whether some power of p lies in I, by the Rabinowitsch trick."""
    if p.sig != I.sig:
        raise ValueError("polynomial signature does not match the ideal")
    if p.is_zero:
        return True
    sig = I.sig
    tname = _fresh_name(sig)
    ext = RingSignature(sig.names + (tname,), sig.weights + (1,))
    positions = list(range(sig.nvars))
    t = Polynomial.variable(ext, ext.nvars - 1)
    gens = [_lift(g, ext, positions) for g in I.gens]
    gens.append(Polynomial.one(ext) - t * _lift(p, ext, positions))
    gb = buchberger(gens, default_order(ext))
    return len(gb) == 1 and gb[0].is_constant()


def krull_dimension(I: IdealHandle) -> int:
    """Dimension of the quotient by I, read off the initial ideal.

    Equals the largest number of variables no basis leading monomial is
    supported on; the unit ideal has an empty spectrum and is rejected.
    """
    gb = I.groebner_basis
    supports = [frozenset(i for i, e in enumerate(leading_monomial(g, I.order)) if e)
                for g in gb]
    if frozenset() in supports:
        raise ValueError("empty spectrum: the ideal is the unit ideal")
    n = I.sig.nvars
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            chosen = set(subset)
            if all(not s <= chosen for s in supports):
                return size
    raise AssertionError("unreachable: the empty set is always independent")


def _minimal_scan(gens: Sequence[Polynomial], modulo: IdealHandle,
                  order: WeightedGrevlex) -> tuple[tuple[Polynomial, ...], _Engine]:
    """A greedy minimal generating subset of a homogeneous generator list
    modulo `modulo`, a homogeneous ideal, and the `_Engine` the scan ran on,
    seeded with the cached reduced basis of `modulo`.

    The scan goes by ascending weighted degree (ties keep input order) and
    keeps an element only if it is not in the ideal spanned by the kept ones
    together with `modulo`.  The returned tuple holds the kept elements
    themselves.

    Each candidate is packed once and reduced against the live basis; an
    empty remainder makes it a member.  A kept candidate's primitive
    remainder generates the same ideal with the basis, and is installed
    with its pairs.  Before a candidate of degree d is reduced, the engine
    takes the pending pairs of lcm degree up to d and leaves the others
    pending, so the basis is truncated at d and decides membership there.
    A pair above the largest candidate degree is never taken, and a
    remainder at that degree is deferred until a full run.
    """
    packing = order._packing
    ranked = [(g.homogeneous_degree(), g) for g in gens if not g.is_zero]
    for degree, g in ranked + [(g.homogeneous_degree(), g) for g in modulo.gens]:
        if degree is None:
            raise ValueError(f"presented_generators needs homogeneous input, got {g}")
    ranked.sort(key=lambda candidate: candidate[0])
    top = ranked[-1][0] if ranked else 0
    engine = _seeded_engine(modulo.groebner_basis, (), order)
    kept: list[Polynomial] = []
    for degree, g in ranked:
        engine.run((degree + 1) << packing.top)
        remainder, _ = _reduce(_integers({0: g.terms}, packing)[0], 1, engine.buckets,
                               packing, engine.budget)
        if remainder:
            kept.append(g)
            # no lead installed divides the remainder's, so its pairs have
            # lcms above its degree: at the top degree none would be taken
            engine.install(_element(_primitive(remainder)), pairs=degree < top)
    return tuple(kept), engine
