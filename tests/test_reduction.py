"""Division with remainder on rational coefficients, against the reference.

The engine reduces on integers over one common denominator; the reference in
`tests/oracles.py` is the reduction loop on Fraction coefficients.  Both must
make the same reductions: the same remainder, exactly, and the same number
of steps, on polynomials and on the vectors that kernels reduce.
Coefficients such as 3/4 and -7/2 and leading coefficients other than 1
make the integer loop rescale its vector and its reducers.  The ideal bases
the engine returns are certified reduced by Buchberger's criterion with the
reference alone: its S-polynomials and its division.  So are the module
bases of `oracles.oracle_module_groebner`, the reference for kernels, which
must also give an ideal, as a rank-1 module, the engine's basis.
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
from difftrace.poly import Polynomial, RingSignature
from conftest import vector_remainder
from oracles import oracle_module_groebner, oracle_s_vector, oracle_vector_reduce

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
        # two terms a component keep the reference's Fraction Buchberger quick
        gens = data.draw(st.lists(vectors(rank, 2), min_size=1, max_size=3))
        v = data.draw(vectors(rank))
        basis = oracle_module_groebner(gens, order.key)
        with step_budget(10 ** 9) as budget:
            r = vector_remainder(v, basis, order)
        assert_matches_reference(r, budget.used, v, basis, order)

    @settings(max_examples=100)
    @given(st.sampled_from(ORDERS), st.integers(2, 3), st.data())
    def test_against_generators_with_other_leads(self, order, rank, data):
        gens = data.draw(st.lists(vectors(rank), min_size=1, max_size=4))
        v = data.draw(vectors(rank))
        with step_budget(10 ** 9) as budget:
            r = vector_remainder(v, gens, order)
        assert_matches_reference(r, budget.used, v, gens, order)


def assert_reduced_leads_and_certificate(gens, basis, order):
    """Buchberger's criterion on the basis, and membership of every
    generator, decided by the reference division; no lead divides another,
    and each element is monic and its own remainder against the others."""
    leads = []
    for v in basis:
        pos = min(v)
        leads.append((pos, max(v[pos].terms, key=order.key)))
    for (p, a), (q, b) in itertools.permutations(leads, 2):
        assert not (p == q and all(map(le, a, b)))
    for k, (v, (pos, lead)) in enumerate(zip(basis, leads)):
        assert v[pos].terms[lead] == 1
        assert oracle_vector_reduce(v, basis[:k] + basis[k + 1:], order.key) == (v, 0)
    for (f, (p, _)), (g, (q, _)) in itertools.combinations(zip(basis, leads), 2):
        if p == q:
            s = oracle_s_vector(f, g, order.key)
            assert oracle_vector_reduce(s, basis, order.key)[0] == {}
    for g in gens:
        assert oracle_vector_reduce(g, basis, order.key)[0] == {}


class TestIdealGroebnerCertificate:
    @settings(max_examples=100)
    @given(st.sampled_from(ORDERS), st.lists(polynomials(), min_size=1, max_size=4))
    def test_engine_basis_passes_the_reference_criterion(self, order, gens):
        with step_budget(10 ** 9):
            basis = buchberger(gens, order)
        assert_reduced_leads_and_certificate(
            [{0: g} for g in gens], [{0: g} for g in basis], order)

    def test_duplicate_and_redundant_ideal_leads(self):
        x = Polynomial.variable(XYZ, 0)
        for order in ORDERS:
            gens = [x, x ** 2, x]
            basis = buchberger(gens, order)
            assert basis == (x,)
            assert_reduced_leads_and_certificate(
                [{0: g} for g in gens], [{0: g} for g in basis], order)


class TestModuleGroebnerCertificate:
    @settings(max_examples=100)
    @given(st.sampled_from(ORDERS), st.integers(2, 3), st.data())
    def test_reference_basis_passes_the_criterion(self, order, rank, data):
        gens = data.draw(st.lists(vectors(rank, 2), min_size=2, max_size=4))
        basis = oracle_module_groebner(gens, order.key)
        assert_reduced_leads_and_certificate(gens, basis, order)
        keys = [(min(v), order.key(max(v[min(v)].terms, key=order.key))) for v in basis]
        assert keys == sorted(keys)

    def test_duplicate_module_leads(self):
        # both lead with x in position 0; their S-vector is (0, 1)
        x, one = Polynomial.variable(XYZ, 0), Polynomial.one(XYZ)
        gens = [{0: x, 1: one}, {0: x}]
        for order in ORDERS:
            basis = oracle_module_groebner(gens, order.key)
            assert basis == [{0: x}, {1: one}]
            assert_reduced_leads_and_certificate(gens, basis, order)


class TestIdealAsRankOneModule:
    @settings(max_examples=100)
    @given(st.sampled_from(ORDERS), st.lists(polynomials(3), min_size=1, max_size=4))
    def test_same_basis_as_the_module_reference(self, order, gens):
        with step_budget(10 ** 9):
            basis = buchberger(gens, order)
        reference = oracle_module_groebner([{0: g} for g in gens], order.key)
        assert reference == [{0: g} for g in basis]


def test_denominator_grows_past_a_machine_word():
    # every step rescales the vector by 3: the remainder is y^60 / 3^60
    x, y = Polynomial.variable(XYZ, 0), Polynomial.variable(XYZ, 1)
    gens = [x.scale(3) - y]
    with step_budget(10 ** 9) as budget:
        r = normal_form_raw(x ** 60, gens, ORDERS[0])
    assert r == (y ** 60).scale(Fraction(1, 3 ** 60))
    assert_matches_reference({0: r}, budget.used, {0: x ** 60}, [{0: gens[0]}],
                             ORDERS[0])
