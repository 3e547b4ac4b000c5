import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from difftrace.groebner import (
    BlockOrder,
    BudgetExceededError,
    IdealHandle,
    WeightedGrevlex,
    _minimal_scan,
    _seeded_engine,
    buchberger,
    default_order,
    eliminate,
    ideal_contains,
    ideal_equals,
    ideal_intersection,
    ideal_membership,
    krull_dimension,
    leading_monomial,
    monic,
    normal_form,
    normal_form_raw,
    radical_membership,
    step_budget,
)
from difftrace.poly import Polynomial, RingSignature, parse_many, parse_polynomial
from oracles import monomials_of_weighted_degree, oracle_membership, s_polynomial
from strategies import homogeneous_polynomials

XY = RingSignature.standard("x", "y")
XYZ = RingSignature.standard("x", "y", "z")


def handle(texts, sig):
    return IdealHandle(sig, parse_many(texts, sig))


def is_groebner_basis(basis, order):
    """Buchberger criterion as an after-the-fact certificate."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j], order.key)
            if not normal_form_raw(s, basis, order).is_zero:
                return False
    return True


class TestOrders:
    def test_block_order_separates_blocks(self):
        order = BlockOrder((1, 1), cut=1)
        # any power of the eliminated variable dominates the kept one
        assert order.key((1, 0)) > order.key((0, 5))

    def test_weighted_grevlex_uses_weights(self):
        order = WeightedGrevlex((2, 3))
        # deg(b) = 3 beats deg(a) = 2
        assert order.key((0, 1)) > order.key((1, 0))


class TestNormalForm:
    def test_generators_reduce_to_zero(self):
        I = handle(["x^2 + y^2", "x*y"], XY)
        for g in I.gens:
            assert normal_form(g, I).is_zero

    def test_idempotent(self):
        I = handle(["x^2 + y^2", "x*y"], XY)
        p = parse_polynomial("x^3 + x^2*y + y^3", XY)
        r = normal_form(p, I)
        assert normal_form(r, I) == r

    def test_difference_is_member(self):
        I = handle(["x^2 + y^2", "x*y"], XY)
        p = parse_polynomial("x^3 + y^3 + x*y", XY)
        diff = p - normal_form(p, I)
        assert oracle_membership(diff, I.gens, XY)


class TestBuchberger:
    def test_golden_basis(self):
        I = handle(["x^2 + y^2", "x*y"], XY)
        assert [str(g) for g in I.groebner_basis] == ["x*y", "x^2 + y^2", "y^3"]

    def test_already_groebner(self):
        I = handle(["x^2", "x*y"], XY)
        assert [str(g) for g in I.groebner_basis] == ["x*y", "x^2"]

    def test_linear_forms_reduce_each_other(self):
        I = handle(["x - y", "x + y"], XY)
        assert [str(g) for g in I.groebner_basis] == ["y", "x"]

    def test_output_is_groebner(self):
        order = default_order(XYZ)
        gens = parse_many(["x*y - z^2", "x^2 - y*z", "y^2 - x*z"], XYZ)
        basis = buchberger(gens, order)
        assert is_groebner_basis(basis, order)

    def test_permutation_invariance(self):
        texts = ["x*y - z^2", "x^2 - y*z", "y^2 - x*z"]
        rng = random.Random(7)
        order = default_order(XYZ)
        reference = buchberger(parse_many(texts, XYZ), order)
        for _ in range(6):
            shuffled = texts[:]
            rng.shuffle(shuffled)
            assert buchberger(parse_many(shuffled, XYZ), order) == reference

    def test_zero_generators_dropped(self):
        I = IdealHandle(XY, parse_many(["0", "x"], XY))
        assert [str(g) for g in I.groebner_basis] == ["x"]

    def test_trivial_detection(self):
        assert handle(["x", "x + 1"], XY).is_trivial
        assert not handle(["x"], XY).is_trivial
        assert handle([], XY).is_zero

    @given(st.data())
    def test_homogeneous_trivial_without_basis(self, data):
        """The basis-free answer for homogeneous generators, some of them
        constants, some in a base handle, against the reduced basis."""
        sig = data.draw(st.sampled_from([XY, RingSignature(("a", "b"), (2, 3))]))
        gens = data.draw(st.lists(homogeneous_polynomials(sig, max_degree=4)
                                  | st.integers(-3, 3).map(
                                      lambda c: Polynomial.constant(sig, c)),
                                  max_size=4))
        split = data.draw(st.integers(0, len(gens)))
        I = IdealHandle(sig, gens[split:], _base=IdealHandle(sig, gens[:split]))
        gb = buchberger(I.gens, default_order(sig))
        assert I.is_trivial == (len(gb) == 1 and gb[0].is_constant())
        assert "groebner_basis" not in vars(I)


class TestMembership:
    def test_golden(self):
        I = handle(["x*y", "x*z"], XYZ)
        assert ideal_membership(parse_polynomial("x*y^2 + x*y*z", XYZ), I)
        assert not ideal_membership(parse_polynomial("x^2", XYZ), I)
        assert not ideal_membership(parse_polynomial("y*z", XYZ), I)

    @given(
        homogeneous_polynomials(sig=XY, max_degree=4, max_terms=3),
        homogeneous_polynomials(sig=XY, max_degree=4, max_terms=3),
        homogeneous_polynomials(sig=XY, max_degree=3, max_terms=2),
    )
    def test_matches_linear_algebra_oracle(self, g1, g2, probe):
        I = IdealHandle(XY, (g1, g2))
        member = g1 * probe + g2  # member by construction
        assert ideal_membership(member, I)
        assert oracle_membership(member, I.gens, XY)
        assert ideal_membership(probe, I) == oracle_membership(probe, I.gens, XY)


class TestSumProductIntersection:
    def test_intersection_golden(self):
        X = handle(["x"], XYZ)
        YZ = handle(["y", "z"], XYZ)
        cross = handle(["x*y", "x*z"], XYZ)
        assert ideal_equals(ideal_intersection(X, YZ), cross)

    def test_principal_intersections(self):
        assert ideal_equals(
            ideal_intersection(handle(["x"], XY), handle(["y"], XY)),
            handle(["x*y"], XY),
        )
        assert ideal_equals(
            ideal_intersection(handle(["x^2"], XY), handle(["x"], XY)),
            handle(["x^2"], XY),
        )

    def test_intersection_contained_in_both(self):
        I = handle(["x^2", "x*y"], XY)
        J = handle(["y"], XY)
        meet = ideal_intersection(I, J)
        assert ideal_contains(I, meet)
        assert ideal_contains(J, meet)
        for g in meet.gens:
            assert oracle_membership(g, I.gens, XY)
            assert oracle_membership(g, J.gens, XY)

    def test_product_inside_intersection(self):
        I = handle(["x + y"], XY)
        J = handle(["x - y"], XY)
        prod = IdealHandle(XY, [f * g for f in I.gens for g in J.gens])
        meet = ideal_intersection(I, J)
        assert ideal_contains(meet, prod)
        # coprime principal ideals: the intersection is the product
        assert ideal_equals(meet, prod)

    def test_sum(self):
        I = handle(["x + y"], XY)
        J = handle(["x - y"], XY)
        total = IdealHandle(XY, I.gens + J.gens)
        assert ideal_equals(total, handle(["x", "y"], XY))


class TestElimination:
    def test_eliminated_variables_absent(self):
        sig = RingSignature(("t", "x", "y"), (1, 1, 2))
        I = IdealHandle(sig, parse_many(["t*x - y"], sig))
        E = eliminate(I, 1)
        assert E.sig.names == ("x", "y")
        assert E.gens == ()

    def test_conic_relation_found(self):
        # graph of the degree-2 monomial map: eliminating x, y leaves the conic
        sig = RingSignature(("x", "y", "z0", "z1", "z2"), (1, 1, 2, 2, 2))
        gens = parse_many(["z0 - x^2", "z1 - x*y", "z2 - y^2"], sig)
        E = eliminate(IdealHandle(sig, gens), 2)
        assert E.sig.names == ("z0", "z1", "z2")
        assert [str(g) for g in E.gens] == ["z1^2 - z0*z2"]

    def test_substitution_kills_eliminated_ideal(self):
        sig = RingSignature(("x", "y", "z0", "z1", "z2"), (1, 1, 2, 2, 2))
        gens = parse_many(["z0 - x^2", "z1 - x*y", "z2 - y^2"], sig)
        E = eliminate(IdealHandle(sig, gens), 2)
        x, y = Polynomial.variable(sig, 0), Polynomial.variable(sig, 1)
        images = {0: x, 1: y, 2: x * x, 3: x * y, 4: y * y}
        for g in E.gens:
            lifted = parse_polynomial(str(g), sig)
            assert lifted.substitute(images).is_zero


class TestRadical:
    def test_nilpotent_style_membership(self):
        I = handle(["x^2", "y^2"], XY)
        xy = parse_polynomial("x + y", XY)
        assert radical_membership(xy, I)
        assert not ideal_membership(xy, I)
        assert ideal_membership(xy**3, I)

    def test_every_generator_is_radical_member(self):
        for texts, sig in [
            (["x*y", "x*z"], XYZ),
            (["x^2 + y^2", "x*y"], XY),
            (["x^3"], XY),
        ]:
            I = handle(texts, sig)
            for g in I.gens:
                assert radical_membership(g, I)

    def test_non_members(self):
        I = handle(["x"], XY)
        assert not radical_membership(parse_polynomial("y", XY), I)
        assert not radical_membership(Polynomial.one(XY), I)

    def test_zero_is_member(self):
        I = handle(["x"], XY)
        assert radical_membership(Polynomial.zero(XY), I)


class TestKrullDimension:
    def test_zero_ideal(self):
        for sig in (RingSignature.standard("x"), XY, XYZ):
            assert krull_dimension(handle([], sig)) == sig.nvars

    def test_golden_values(self):
        assert krull_dimension(handle(["x*y", "x*z"], XYZ)) == 2
        assert krull_dimension(handle(["x*y"], XY)) == 1
        assert krull_dimension(handle(["x", "y"], XY)) == 0
        assert krull_dimension(handle(["x^2 + y^2"], XY)) == 1

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            krull_dimension(handle(["1"], XY))

    def test_antitone_on_chain(self):
        chain = [
            handle([], XYZ),
            handle(["x*y"], XYZ),
            handle(["x*y", "x*z"], XYZ),
            handle(["x", "y", "z"], XYZ),
        ]
        dims = [krull_dimension(I) for I in chain]
        for small, big in zip(chain, chain[1:]):
            assert ideal_contains(big, small)
        assert dims == sorted(dims, reverse=True)


class TestExtendReducedBasis:
    @given(
        st.lists(homogeneous_polynomials(sig=XYZ, max_degree=3, max_terms=3),
                 min_size=1, max_size=3),
        homogeneous_polynomials(sig=XYZ, max_degree=3, max_terms=3),
    )
    def test_extension_equals_fresh_basis(self, gens, g):
        """Pairing only the new generator against a reduced basis gives the
        reduced basis of all the generators."""
        order = default_order(XYZ)
        basis = buchberger(gens, order)
        extended = _seeded_engine(basis, [monic(g, order)], order).reduced_basis(XYZ, order)
        assert extended == buchberger(gens + [g], order)


class TestMinimalize:
    def test_redundant_generator_dropped(self):
        gens = parse_many(["x", "x^2 + x*y", "y"], XY)
        kept, _ = _minimal_scan(gens, IdealHandle(XY, ()), default_order(XY))
        assert [str(g) for g in kept] == ["x", "y"]

    def test_modulo_ambient(self):
        ambient = IdealHandle(XY, parse_many(["x*y"], XY))
        gens = parse_many(["x^2*y", "x^3"], XY)
        kept, _ = _minimal_scan(gens, ambient, default_order(XY))
        assert [str(g) for g in kept] == ["x^3"]


class TestBudget:
    def test_small_budget_raises(self):
        with step_budget(1):
            with pytest.raises(BudgetExceededError):
                gens = parse_many(["x*y - z^2", "x^2 - y*z", "y^2 - x*z"], XYZ)
                buchberger(gens, default_order(XYZ))

    def test_generous_budget_recovers(self):
        with step_budget(100000):
            gens = parse_many(["x^2 + y^2", "x*y"], XY)
            basis = buchberger(gens, default_order(XY))
        assert len(basis) == 3


class TestLeadingData:
    def test_leading_monomial_and_monic(self):
        order = default_order(XY)
        p = parse_polynomial("2*x*y + y^2", XY)
        assert leading_monomial(p, order) == (1, 1)
        assert str(monic(p, order)) == "x*y + 1/2*y^2"

    def test_zero_has_no_lead(self):
        with pytest.raises(ValueError):
            leading_monomial(Polynomial.zero(XY), default_order(XY))

    def test_lead_follows_the_order(self):
        p = parse_polynomial("x + y^3", XY)
        assert leading_monomial(p, default_order(XY)) == (0, 3)
        assert leading_monomial(p, BlockOrder((1, 1), cut=1)) == (1, 0)


@given(st.integers(0, 6))
def test_degree_slice_sizes(d):
    # sanity for the oracle itself: standard grading counts are binomials
    monos = monomials_of_weighted_degree(XYZ, d)
    assert len(monos) == (d + 2) * (d + 1) // 2
    assert all(XYZ.degree_of(m) == d for m in monos)
