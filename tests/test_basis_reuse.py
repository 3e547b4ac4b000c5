"""Differential tests of the bases that are reused instead of recomputed.

Each reduced basis is unique, so a basis built from a cached one, handed
over by the function that found it, or truncated at the degree its caller
needs, must agree with the plain computation kept here as the reference.
The rings are the node, the conic and the cusp, plus one whose listed
generators are neither monic nor a Groebner basis, so that seeding from
the generators instead of their basis shows.  The minimal-generator scan
runs on one live engine state; its tests also check that a budget abort
inside it leaves the cached bases as they were.  An ideal of a quotient
gets its presented generators and its basis from one scan, whichever is
asked first; both must agree with the separate computations, and an abort
in the scan or in the resumed basis must leave the handle as if unasked.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_ring
from difftrace.constructions import (
    extend_scalars,
    predicted_tensor_trace,
    tensor_product,
)
from difftrace.groebner import (
    BudgetExceededError,
    _minimal_scan,
    buchberger,
    default_order,
    eliminate,
    ideal_intersection,
    leading_monomial,
    monic,
    normal_form_raw,
    step_budget,
)
from difftrace.poly import parse_many
from difftrace.traces import diff_trace
from strategies import homogeneous_polynomials, polynomials_over

NODE = make_ring(["x", "y"], [1, 1], ["x*y"])
CONIC = make_ring(["a", "b", "c"], [1, 1, 1], ["a*c - b^2"])
CUSP = make_ring(["a", "b"], [2, 3], ["a^3 - b^2"])
UNREDUCED = make_ring(["x", "y"], [1, 1], ["2*x^2 - 2*y^2", "x*y"])
TWISTED = make_ring(["x", "y", "z", "w"], [1, 1, 1, 1],
                    ["x*z - y^2", "y*w - z^2", "x*w - y*z"])
RINGS = {"node": NODE, "conic": CONIC, "cusp": CUSP, "unreduced": UNREDUCED}


@st.composite
def ring_and_polys(draw, homogeneous: bool):
    ring = draw(st.sampled_from(list(RINGS.values())))
    element = (homogeneous_polynomials(sig=ring.sig, max_degree=4, max_terms=3)
               if homogeneous else polynomials_over(ring.sig, max_terms=3))
    return ring, draw(st.lists(element, min_size=1, max_size=4))


def minimal_scan(gens, modulo):
    """The kept elements of the minimal-generator scan modulo an ideal."""
    return _minimal_scan(gens, modulo, modulo.order)[0]


def untruncated_minimalize(gens, sig, modulo_gens):
    """The minimal-generator scan with every pair taken, from the basis of
    the listed modulo generators."""
    order = default_order(sig)
    ranked = sorted((g for g in gens if not g.is_zero),
                    key=lambda g: g.homogeneous_degree())
    kept = []
    basis = buchberger(modulo_gens, order)
    for g in ranked:
        if normal_form_raw(g, basis, order).is_zero:
            continue
        kept.append(g)
        basis = buchberger(list(basis) + [g], order)
    return tuple(kept)


def scan_candidates(ring, gens):
    """The candidates of a quotient ideal's scan, as presented_generators
    documents them: monic residues, without duplicates, by degree, then
    leading monomial descending, then string."""
    order = default_order(ring.sig)
    residues = (ring.reduce(g) for g in gens)
    out = list(dict.fromkeys(monic(r, order) for r in residues if not r.is_zero))
    out.sort(key=lambda g: (g.homogeneous_degree(),
                            tuple(reversed(leading_monomial(g, order))), str(g)))
    return out


def both_answers(ring, handle, presented_first):
    if presented_first:
        presented = ring.presented_generators(handle)
        return presented, handle.groebner_basis
    basis = handle.groebner_basis
    return ring.presented_generators(handle), basis


class TestSeededQuotientIdeal:
    @given(ring_and_polys(homogeneous=False))
    def test_seeded_basis_equals_fresh_basis(self, case):
        ring, gens = case
        handle = ring.s_ideal(gens)
        assert handle.groebner_basis == buchberger(handle.gens, handle.order)

    def test_unreduced_defining_generators(self):
        # y^3 = x (xy) - y (x^2 - y^2) comes from the defining generators'
        # own pair, which a seed of the generators instead of their basis lacks
        basis = UNREDUCED.zero_ideal().groebner_basis
        assert [str(g) for g in basis] == ["x*y", "x^2 - y^2", "y^3"]

    @pytest.mark.parametrize("ring,gens", [
        # an inhomogeneous generator: the basis runs an engine seeded with
        # the base's basis instead of resuming a scan (2 and 38 steps)
        (NODE, ["x^2 + y"]),
        (TWISTED, ["x^2 + y", "z^2 - w"]),
    ], ids=["node", "twisted"])
    def test_budget_abort_leaves_no_poisoned_cache(self, ring, gens):
        gens = parse_many(gens, ring.sig)
        base = ring.defining
        basis = base.groebner_basis
        cached = [(g._ints[0], g._ints[1], dict(g._ints[2])) for g in basis]
        with step_budget(10 ** 6) as budget:
            ring.s_ideal(gens).groebner_basis
        assert budget.used > 1
        for limit in range(1, budget.used):
            handle = ring.s_ideal(gens)
            with step_budget(limit):
                with pytest.raises(BudgetExceededError):
                    handle.groebner_basis
            assert base.groebner_basis is basis
            assert [(g._ints[0], g._ints[1], g._ints[2]) for g in basis] == cached
            with step_budget(10 ** 6):
                assert handle.groebner_basis == buchberger(handle.gens, handle.order)


class TestHandedOverBases:
    @given(ring_and_polys(homogeneous=False), st.integers(0, 2))
    def test_eliminate(self, case, k):
        ring, gens = case
        k = 1 + k % (ring.nvars - 1)
        contraction = eliminate(ring.s_ideal(gens), k)
        assert contraction.groebner_basis == buchberger(contraction.gens,
                                                        contraction.order)

    @given(ring_and_polys(homogeneous=True), st.integers(1, 3))
    def test_intersection(self, case, cut):
        ring, gens = case
        I = ring.s_ideal(gens[:cut])
        J = ring.s_ideal(gens[cut:])
        meet = ideal_intersection(I, J)
        assert meet.groebner_basis == buchberger(meet.gens, meet.order)


class TestTruncatedMinimalize:
    @given(ring_and_polys(homogeneous=True))
    @example((NODE, parse_many(["x^2 + y^2", "y^3"], NODE.sig)))
    @example((UNREDUCED, parse_many(["y^3"], UNREDUCED.sig)))
    def test_equals_untruncated_scan(self, case):
        ring, gens = case
        expected = untruncated_minimalize(gens, ring.sig, list(ring.defining.gens))
        assert minimal_scan(gens, ring.defining) == expected

    def test_pair_at_the_top_degree_is_taken(self):
        # y^3 = y (x^2 + y^2) - x (xy): a pair of lcm degree 3, the top
        gens = parse_many(["x^2 + y^2", "y^3"], NODE.sig)
        kept = minimal_scan(gens, NODE.defining)
        assert [str(g) for g in kept] == ["x^2 + y^2"]

    def test_pair_above_a_candidate_stays_pending(self):
        # the pair of xy and x^2 + y^2 has lcm degree 3: the member
        # 2x^2 + 2y^2 is decided without it, and y^3 needs it
        gens = parse_many(["x^2 + y^2", "2*x^2 + 2*y^2", "y^3"], NODE.sig)
        kept = minimal_scan(gens, NODE.defining)
        assert [str(g) for g in kept] == ["x^2 + y^2"]

    def test_returns_the_inputs(self):
        # x^2 + xy is kept through its remainder x^2 modulo xy
        g, = parse_many(["x^2 + x*y"], NODE.sig)
        kept = minimal_scan([g], NODE.defining)
        assert len(kept) == 1 and kept[0] is g
        assert str(kept[0]) == "x^2 + x*y"

    def test_budget_abort_leaves_no_poisoned_cache(self):
        # the scan takes 27 steps; a budget of 10 aborts inside it
        gens = parse_many(["x^2 + y*z", "y^2 + x*w", "z^2 + x*y", "x^3", "w^3",
                           "x*y*z"], TWISTED.sig)
        modulo = TWISTED.defining
        expected = minimal_scan(gens, modulo)
        basis = modulo.groebner_basis
        cached = [(g._ints[0], g._ints[1], dict(g._ints[2])) for g in basis]
        with step_budget(10):
            with pytest.raises(BudgetExceededError):
                minimal_scan(gens, modulo)
        assert modulo.groebner_basis is basis
        assert [(g._ints[0], g._ints[1], g._ints[2]) for g in basis] == cached
        with step_budget(10 ** 6):
            again = minimal_scan(gens, modulo)
        assert again == expected
        assert all(a is b for a, b in zip(again, expected))


class TestSharedScan:
    @given(ring_and_polys(homogeneous=True), st.booleans())
    @example((NODE, parse_many(["x^2 + y^2", "y^3"], NODE.sig)), False)
    @example((UNREDUCED, parse_many(["y^3", "x^2 + x*y"], UNREDUCED.sig)), True)
    def test_equals_separate_computations(self, case, presented_first):
        ring, gens = case
        handle = ring.s_ideal(gens)
        presented, basis = both_answers(ring, handle, presented_first)
        assert basis == buchberger(handle.gens, handle.order)
        candidates = scan_candidates(ring, gens)
        assert presented == untruncated_minimalize(candidates, ring.sig,
                                                   list(ring.defining.gens))
        kept = minimal_scan(candidates, ring.defining)
        assert kept == presented
        assert all(any(k is c for c in candidates) for k in kept)
        assert ring.presented_generators(handle) is presented

    @pytest.mark.parametrize("presented_first", [True, False])
    @pytest.mark.parametrize("ring,gens", [
        # the scan takes 27 steps, and the resumed basis 23 more
        (TWISTED, ["x^2 + y*z", "y^2 + x*w", "z^2 + x*y", "x^3", "w^3", "x*y*z"]),
        # the resumed basis takes pairs that reduce to new elements, so a
        # resume after an abort that lost one would miss them
        (CONIC, ["a*b + c^2", "b^2 + a*c + c^2"]),
    ], ids=["twisted", "conic"])
    def test_budget_abort_leaves_no_poisoned_cache(self, ring, gens, presented_first):
        gens = parse_many(gens, ring.sig)
        with step_budget(10 ** 6) as budget:
            expected = both_answers(ring, ring.s_ideal(gens), presented_first)
        # every smaller budget aborts in the scan or in the resume
        for limit in range(1, budget.used):
            handle = ring.s_ideal(gens)
            with step_budget(limit):
                with pytest.raises(BudgetExceededError):
                    both_answers(ring, handle, presented_first)
            with step_budget(10 ** 6):
                assert both_answers(ring, handle, presented_first) == expected


class TestTensorPrediction:
    @pytest.mark.parametrize("a,b", [("node", "cusp"), ("node", "conic"),
                                     ("conic", "cusp"), ("cusp", "cusp")])
    def test_presented_like_all_products(self, a, b):
        A, B = RINGS[a], RINGS[b]
        R = tensor_product(A, B)
        ta = extend_scalars(diff_trace(A, A.dimension), R, range(A.nvars))
        tb = extend_scalars(diff_trace(B, B.dimension), R,
                            range(A.nvars, A.nvars + B.nvars))
        every = R.s_ideal(tuple(dict.fromkeys(f * g for f in ta.gens
                                              for g in tb.gens)))
        predicted = predicted_tensor_trace(A, B, R)
        assert R.presented_generators(predicted) == R.presented_generators(every)
