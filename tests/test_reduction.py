"""Division with remainder on rational coefficients, against the reference.

The engine reduces on integers over one common denominator; the reference in
`tests/oracles.py` is the reduction loop on Fraction coefficients.  Both must
make the same reductions: the same remainder, exactly, and the same number
of steps.  Coefficients such as 3/4 and -7/2 and leading coefficients other
than 1 make the integer loop rescale its vector and its reducers.  An ideal
run as a rank-1 module must get the same basis in the same steps.  The
module bases the engine returns are certified by Buchberger's criterion
with the reference alone: its S-vectors and its division.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import le

from hypothesis import given, settings
from hypothesis import strategies as st

from difftrace.groebner import (
    BlockOrder,
    WeightedGrevlex,
    buchberger,
    normal_form_raw,
    step_budget,
)
from difftrace.modsyz import module_groebner, vector_normal_form
from difftrace.poly import Polynomial, RingSignature
from oracles import oracle_s_vector, oracle_vector_reduce

XYZ = RingSignature.standard("x", "y", "z")
ORDERS = (WeightedGrevlex(XYZ.weights), BlockOrder(XYZ.weights, 1))
COEFFICIENTS = (Fraction(3, 4), Fraction(-7, 2), Fraction(2), Fraction(-3),
                Fraction(5, 6), Fraction(1), Fraction(-1))


def polynomials(max_terms: int = 4):
    term = st.tuples(st.tuples(*(st.integers(0, 2) for _ in range(3))),
                     st.sampled_from(COEFFICIENTS))
    return st.lists(term, max_size=max_terms).map(
        lambda items: sum((Polynomial.monomial(XYZ, e, c) for e, c in items),
                          Polynomial.zero(XYZ)))


@st.composite
def vectors(draw, rank: int, terms: int = 3):
    return {i: draw(polynomials(terms)) for i in range(rank)
            if draw(st.booleans())}


def assert_fraction_coefficients(polys):
    for p in polys:
        assert all(type(c) is Fraction for c in p.terms.values())


def assert_matches_reference(got: dict[int, Polynomial], used: int,
                             vector, basis, order):
    expected, steps = oracle_vector_reduce(vector, basis, order.key)
    assert {i: p for i, p in got.items() if not p.is_zero} == expected
    assert used == steps
    assert_fraction_coefficients(got.values())


class TestIdealReduction:
    @settings(max_examples=100)
    @given(st.sampled_from(ORDERS), st.lists(polynomials(), min_size=1, max_size=3),
           polynomials(6))
    def test_against_groebner_basis(self, order, gens, p):
        with step_budget(10 ** 9):
            basis = buchberger(gens, order)
        with step_budget(10 ** 9) as budget:
            r = normal_form_raw(p, basis, order)
        assert_matches_reference({0: r}, budget.used, {0: p},
                                 [{0: g} for g in basis], order)

    @settings(max_examples=100)
    @given(st.sampled_from(ORDERS), st.lists(polynomials(), min_size=1, max_size=4),
           polynomials(6))
    def test_against_generators_with_other_leads(self, order, gens, p):
        with step_budget(10 ** 9) as budget:
            r = normal_form_raw(p, gens, order)
        assert_matches_reference({0: r}, budget.used, {0: p},
                                 [{0: g} for g in gens], order)


class TestModuleReduction:
    @settings(max_examples=100)
    @given(st.sampled_from(ORDERS), st.integers(2, 3), st.data())
    def test_against_module_basis(self, order, rank, data):
        gens = data.draw(st.lists(vectors(rank), min_size=1, max_size=3))
        v = data.draw(vectors(rank))
        with step_budget(10 ** 9):
            basis = module_groebner(gens, order)
        for g in basis:
            assert_fraction_coefficients(g.values())
        with step_budget(10 ** 9) as budget:
            r = vector_normal_form(v, basis, order)
        assert_matches_reference(r, budget.used, v, basis, order)

    @settings(max_examples=100)
    @given(st.sampled_from(ORDERS), st.integers(2, 3), st.data())
    def test_against_generators_with_other_leads(self, order, rank, data):
        gens = data.draw(st.lists(vectors(rank), min_size=1, max_size=4))
        v = data.draw(vectors(rank))
        with step_budget(10 ** 9) as budget:
            r = vector_normal_form(v, gens, order)
        assert_matches_reference(r, budget.used, v, gens, order)


def assert_reduced_leads_and_certificate(gens, basis, order):
    """Buchberger's criterion on the basis, and membership of every
    generator, decided by the reference division; no lead divides another."""
    leads = []
    for v in basis:
        pos = min(v)
        leads.append((pos, max(v[pos].terms, key=order.key)))
    for (p, a), (q, b) in itertools.permutations(leads, 2):
        assert not (p == q and all(map(le, a, b)))
    for (f, (p, _)), (g, (q, _)) in itertools.combinations(zip(basis, leads), 2):
        if p == q:
            s = oracle_s_vector(f, g, order.key)
            assert oracle_vector_reduce(s, basis, order.key)[0] == {}
    for g in gens:
        assert oracle_vector_reduce(g, basis, order.key)[0] == {}


class TestModuleGroebnerCertificate:
    @settings(max_examples=100)
    @given(st.sampled_from(ORDERS), st.integers(2, 3), st.data())
    def test_engine_basis_passes_the_reference_criterion(self, order, rank, data):
        # two terms a component keep the kernel's integers small
        gens = data.draw(st.lists(vectors(rank, 2), min_size=4, max_size=6))
        with step_budget(10 ** 9):
            basis = module_groebner(gens, order)
        assert_reduced_leads_and_certificate(gens, basis, order)

    def test_duplicate_and_redundant_ideal_leads(self):
        x = Polynomial.variable(XYZ, 0)
        for order in ORDERS:
            gens = [x, x ** 2, x]
            basis = buchberger(gens, order)
            assert basis == (x,)
            assert_reduced_leads_and_certificate(
                [{0: g} for g in gens], [{0: g} for g in basis], order)

    def test_duplicate_module_leads(self):
        # both lead with x in position 0; their S-vector is (0, 1)
        x, one = Polynomial.variable(XYZ, 0), Polynomial.one(XYZ)
        gens = [{0: x, 1: one}, {0: x}]
        for order in ORDERS:
            basis = module_groebner(gens, order)
            assert basis == [{0: x}, {1: one}]
            assert_reduced_leads_and_certificate(gens, basis, order)


class TestIdealAsRankOneModule:
    @settings(max_examples=100)
    @given(st.sampled_from(ORDERS), st.lists(polynomials(), min_size=1, max_size=4))
    def test_same_basis_and_steps(self, order, gens):
        with step_budget(10 ** 9) as ideal_budget:
            basis = buchberger(gens, order)
        with step_budget(10 ** 9) as module_budget:
            module = module_groebner([{0: g} for g in gens], order)
        assert module == [{0: g} for g in basis]
        assert module_budget.used == ideal_budget.used

    def test_coprime_leads_of_module_pairs_are_not_skipped(self):
        # the leads x and y are coprime, but y*(x, 1) - x*(y, 0) = (0, y)
        # does not reduce to zero: the coprime-lead criterion is for rank 1
        x, y = Polynomial.variable(XYZ, 0), Polynomial.variable(XYZ, 1)
        basis = module_groebner([{0: x, 1: Polynomial.one(XYZ)}, {0: y}], ORDERS[0])
        assert {1: y} in basis


def test_denominator_grows_past_a_machine_word():
    # every step rescales the vector by 3: the remainder is y^60 / 3^60
    x, y = Polynomial.variable(XYZ, 0), Polynomial.variable(XYZ, 1)
    gens = [x.scale(3) - y]
    with step_budget(10 ** 9) as budget:
        r = normal_form_raw(x ** 60, gens, ORDERS[0])
    assert r == (y ** 60).scale(Fraction(1, 3 ** 60))
    assert_matches_reference({0: r}, budget.used, {0: x ** 60}, [{0: gens[0]}],
                             ORDERS[0])
