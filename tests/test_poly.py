from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from difftrace.poly import (
    ParseError,
    Polynomial,
    RingSignature,
    ZeroPolynomialError,
    grevlex_key,
    mono_mul,
    parse_polynomial,
)
from strategies import (
    SIGNATURES,
    exponent_tuples,
    homogeneous_polynomials,
    sig_and_polys,
    signatures,
)

XYZ = RingSignature.standard("x", "y", "z")
XY = RingSignature.standard("x", "y")
AB23 = RingSignature(("a", "b"), (2, 3))


class TestSignature:
    def test_standard(self):
        assert XYZ.names == ("x", "y", "z")
        assert XYZ.weights == (1, 1, 1)
        assert XYZ.nvars == 3
        assert XYZ.index("y") == 1

    def test_weighted_degree(self):
        assert AB23.degree_of((3, 0)) == 6
        assert AB23.degree_of((0, 2)) == 6
        assert AB23.degree_of((1, 1)) == 5

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            RingSignature(("x", "x"), (1, 1))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            RingSignature(("x",), (0,))

    def test_rejects_bad_identifier(self):
        with pytest.raises(ValueError):
            RingSignature(("2x",), (1,))


class TestMonomialHelpers:
    def test_mul(self):
        assert mono_mul((1, 2), (0, 3)) == (1, 5)


class TestParsing:
    def test_simple_sum(self):
        p = parse_polynomial("x + y", XY)
        assert p.terms == {(1, 0): Fraction(1), (0, 1): Fraction(1)}

    def test_coefficients_and_powers(self):
        p = parse_polynomial("2*x^2 - 3/4*x*y + 1", XY)
        assert p.terms == {
            (2, 0): Fraction(2),
            (1, 1): Fraction(-3, 4),
            (0, 0): Fraction(1),
        }

    def test_leading_minus(self):
        p = parse_polynomial("-x", XY)
        assert p.terms == {(1, 0): Fraction(-1)}

    def test_bare_constant(self):
        assert parse_polynomial("7", XY).terms == {(0, 0): Fraction(7)}
        assert parse_polynomial("-7/9", XY).terms == {(0, 0): Fraction(-7, 9)}
        assert parse_polynomial("0", XY).is_zero

    def test_repeated_variables_multiply(self):
        p = parse_polynomial("x*x*y", XY)
        assert p.terms == {(2, 1): Fraction(1)}

    def test_whitespace_insensitive(self):
        assert parse_polynomial("x+2*y^3", XY) == parse_polynomial(
            "  x +  2 * y ^ 3 ", XY
        )

    def test_juxtaposition_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("2 x", XY)
        with pytest.raises(ParseError):
            parse_polynomial("x y", XY)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_polynomial("x + q", XY)
        assert info.value.position == 4

    def test_dangling_caret_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^", XY)
        with pytest.raises(ParseError):
            parse_polynomial("x^-1", XY)

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("", XY)
        with pytest.raises(ParseError):
            parse_polynomial("x +", XY)


class TestPrinting:
    def test_descending_order(self):
        assert str(parse_polynomial("y + x", XY)) == "x + y"
        assert str(parse_polynomial("1 + x^2 + x", XY)) == "x^2 + x + 1"

    def test_unit_coefficients_omitted(self):
        assert str(parse_polynomial("1*x", XY)) == "x"
        assert str(parse_polynomial("-1*x + -1", XY)) == "-x - 1"

    def test_fraction_coefficients(self):
        assert str(parse_polynomial("3/4*x - 2/3", XY)) == "3/4*x - 2/3"

    def test_zero(self):
        assert str(Polynomial.zero(XY)) == "0"

    def test_weighted_display_order(self):
        # weight(a) = 2, weight(b) = 3, so b dominates a^2 is false: deg 3 < 4
        assert str(parse_polynomial("b + a^2", AB23)) == "a^2 + b"


class TestRoundTrip:
    @given(sig_and_polys())
    def test_parse_print_identity(self, data):
        sig, p = data
        assert parse_polynomial(str(p), sig) == p


class TestArithmetic:
    @given(sig_and_polys(count=3))
    def test_ring_axioms(self, data):
        sig, p, q, r = data
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p + Polynomial.zero(sig) == p
        assert p * Polynomial.one(sig) == p
        assert p - p == Polynomial.zero(sig)

    @given(sig_and_polys(count=2))
    def test_no_zero_coefficients_stored(self, data):
        _, p, q = data
        for poly in (p + q, p - q, p * q):
            assert all(c != 0 for c in poly.terms.values())

    def test_pow(self):
        p = parse_polynomial("x + y", XY)
        assert p**2 == parse_polynomial("x^2 + 2*x*y + y^2", XY)
        assert p**0 == Polynomial.one(XY)

    def test_scale(self):
        p = parse_polynomial("x + 2*y", XY)
        assert p.scale(Fraction(1, 2)) == parse_polynomial("1/2*x + y", XY)


class TestCalculus:
    @given(sig_and_polys(count=2), st.integers(0, 2))
    def test_leibniz(self, data, i):
        sig, p, q = data
        i = i % sig.nvars
        left = (p * q).partial_derivative(i)
        right = p * q.partial_derivative(i) + q * p.partial_derivative(i)
        assert left == right

    def test_partial_golden(self):
        p = parse_polynomial("x^3*y + 2*y^2", XY)
        assert p.partial_derivative(0) == parse_polynomial("3*x^2*y", XY)
        assert p.partial_derivative(1) == parse_polynomial("x^3 + 4*y", XY)

    @given(homogeneous_polynomials())
    def test_euler_identity(self, p):
        sig = p.sig
        degree = p.homogeneous_degree()
        acc = Polynomial.zero(sig)
        for i in range(sig.nvars):
            term = Polynomial.variable(sig, i) * p.partial_derivative(i)
            acc = acc + term.scale(sig.weights[i])
        assert acc == p.scale(degree)


class TestSubstitution:
    def test_golden(self):
        p = parse_polynomial("x^2 + y", XY)
        images = {0: parse_polynomial("y", XY), 1: parse_polynomial("x*y", XY)}
        assert p.substitute(images) == parse_polynomial("y^2 + x*y", XY)

    @given(sig_and_polys(count=2))
    def test_substitute_identity(self, data):
        sig, p, _ = data
        identity = {i: Polynomial.variable(sig, i) for i in range(sig.nvars)}
        assert p.substitute(identity) == p


class TestDegrees:
    def test_homogeneous_detection(self):
        assert parse_polynomial("x^2 + x*y", XY).is_homogeneous()
        assert not parse_polynomial("x^2 + x", XY).is_homogeneous()
        assert parse_polynomial("x^2 + x", XY).homogeneous_degree() is None
        # a^3 and b^2 both have weighted degree 6
        assert parse_polynomial("a^3 - b^2", AB23).homogeneous_degree() == 6

    def test_zero_has_no_degree(self):
        with pytest.raises(ZeroPolynomialError):
            Polynomial.zero(XY).homogeneous_degree()


class TestOrder:
    @given(signatures().flatmap(
        lambda sig: st.tuples(
            st.just(sig),
            exponent_tuples(sig),
            exponent_tuples(sig),
            exponent_tuples(sig),
        )
    ))
    def test_grevlex_total_and_multiplicative(self, data):
        sig, a, b, m = data
        ka, kb = grevlex_key(a, sig.weights), grevlex_key(b, sig.weights)
        assert (ka == kb) == (a == b)
        if ka < kb:
            assert grevlex_key(mono_mul(a, m), sig.weights) < grevlex_key(
                mono_mul(b, m), sig.weights
            )

    def test_grevlex_golden(self):
        w = XYZ.weights
        # x^2 > x*y > y^2 > x*z > y*z > z^2 within degree 2
        ordered = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1),
                   (0, 0, 2)]
        keys = [grevlex_key(e, w) for e in ordered]
        assert keys == sorted(keys, reverse=True)


def test_signature_pool_is_varied():
    weightsets = {sig.weights for sig in SIGNATURES}
    assert any(w != tuple(1 for _ in w) for w in weightsets)
