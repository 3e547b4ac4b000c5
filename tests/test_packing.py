"""Packed monomials of the reduction kernel, and their degree limit.

Each order's packed encoding must agree with the order's key, multiply by
addition, test divisibility by its guard bits and unpack to what was
packed, and its largest packed term must be the order's leading monomial.
Beyond the limit of weighted degree 16383 per block of the order,
the engine raises DegreeLimitError, a ValueError that names the limit,
through the library and through the CLI (exit 1, as an input past the
limit), instead of wrapping a field into a wrong answer.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from difftrace.cli import main
from difftrace.groebner import (
    BlockOrder,
    DegreeLimitError,
    IdealHandle,
    WeightedGrevlex,
    _poly_element,
    buchberger,
    eliminate,
    leading_monomial,
    normal_form_raw,
)
from difftrace.poly import Polynomial, RingSignature, mono_mul, parse_many
from conftest import vector_remainder
from strategies import sig_and_polys

LIMIT = 16383


@st.composite
def orders_and_monomials(draw):
    """An order in 1-10 variables with weights 1-3 (weighted grevlex or the
    block order at any cut), and three monomials whose pairwise products
    stay within the limit."""
    n = draw(st.integers(1, 10))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    cut = draw(st.integers(0, n - 1))
    order = BlockOrder(weights, cut) if cut else WeightedGrevlex(weights)
    exponent = st.integers(0, 4) | st.integers(0, LIMIT // 60)
    exponents = st.lists(exponent, min_size=n, max_size=n).map(tuple)
    return order, draw(exponents), draw(exponents), draw(exponents)


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


@settings(max_examples=500)
@given(orders_and_monomials())
def test_packing_agrees_with_the_order(case):
    order, a, b, c = case
    packing = order._packing
    pa, pb = packing.pack(a), packing.pack(b)
    assert (pa < pb) == (order.key(a) < order.key(b))
    assert (pa == pb) == (a == b)
    assert pa + pb - packing.base == packing.pack(mono_mul(a, b))
    assert (((pa | packing.guards) - pb) & packing.dividing == packing.dividing) \
        == divides(a, b)
    assert packing.lcm(pa, packing.pack(c)) == packing.pack(tuple(map(max, a, c)))
    assert packing.unpack(pa) == a
    assert packing.unpack(pa + pb - packing.base) == mono_mul(a, b)


@st.composite
def orders_and_polynomials(draw, block: bool):
    """A nonzero polynomial and an order of its signature: weighted grevlex,
    or the block order at any cut."""
    sig, p = draw(sig_and_polys())
    assume(not p.is_zero and (sig.nvars > 1 or not block))
    if block:
        return BlockOrder(sig.weights, draw(st.integers(1, sig.nvars - 1))), p
    return WeightedGrevlex(sig.weights), p


@pytest.mark.parametrize("block", [False, True], ids=["grevlex", "block"])
@given(data=st.data())
def test_the_two_leads_agree(block, data):
    """The scan sorts by leading_monomial and the engine leads by the
    largest packed monomial of an element: they are the same monomial."""
    order, p = data.draw(orders_and_polynomials(block))
    assert leading_monomial(p, order) == order._packing.unpack(_poly_element(p, order)[1])


@pytest.mark.parametrize("order", [WeightedGrevlex((1, 2, 1)), BlockOrder((1, 2, 1), 1),
                                   BlockOrder((1, 2, 1), 2)],
                         ids=["grevlex", "block-1", "block-2"])
def test_the_limit_is_exact(order):
    packing = order._packing
    for top in ((LIMIT, 0, 0), (0, 0, LIMIT), (LIMIT // 2, 0, LIMIT // 2 + 1)):
        assert packing.unpack(packing.pack(top)) == top
    for over in ((LIMIT + 1, 0, 0), (0, 0, LIMIT + 1), (0, LIMIT // 2 + 1, 0),
                 (2 ** 40, 0, 0), (0, 0, 2 ** 40)):
        with pytest.raises(ValueError, match=str(LIMIT)):
            packing.pack(over)


@pytest.mark.parametrize("order", [WeightedGrevlex((1, 2, 1)), WeightedGrevlex((3, 1, 1)),
                                   BlockOrder((1, 2, 1), 1), BlockOrder((1, 2, 1), 2)],
                         ids=["grevlex", "grevlex-3", "block-1", "block-2"])
def test_lcm_at_the_limit(order):
    """An lcm of monomials within the limit is packed exactly, or raises
    when one block's degree goes past it, up to twice the limit."""
    packing = order._packing
    half = LIMIT // 2
    # each variable alone at the limit, and a few monomials below it
    tops = [tuple(LIMIT // w if i == k else 0 for i in range(3))
            for k, w in enumerate(packing.layout[0])]
    cases = tops + [(half, 0, half + 1), (half + 1, 0, half), (0, half // 2, 0), (3, 5, 7)]
    for a in cases:
        for b in cases:
            try:
                expected = packing.pack(tuple(map(max, a, b)))
            except DegreeLimitError:
                with pytest.raises(DegreeLimitError, match=str(LIMIT)):
                    packing.lcm(packing.pack(a), packing.pack(b))
            else:
                assert packing.lcm(packing.pack(a), packing.pack(b)) == expected


XY = RingSignature.standard("x", "y")


def test_input_beyond_the_limit_raises():
    with pytest.raises(DegreeLimitError, match=str(LIMIT)):
        buchberger(parse_many(["x^16384 - y"], XY), WeightedGrevlex((1, 1)))
    assert len(buchberger(parse_many(["x^16383 - y"], XY), WeightedGrevlex((1, 1)))) == 1


def test_pair_lcm_beyond_the_limit_raises():
    gens = parse_many(["x^9000*y - 1", "x*y^9000 - 1"], XY)
    with pytest.raises(ValueError, match=str(LIMIT)):
        buchberger(gens, WeightedGrevlex((1, 1)))


def test_growth_in_the_second_block_raises():
    """Under the elimination order, reduction can raise the degree in the
    kept variables: t - y^9000 takes t^4 through t^2*y^18000, past the
    limit, on to y^36000, past what a field holds."""
    sig = RingSignature.standard("t", "y")
    t4, reducer = parse_many(["t^4", "t - y^9000"], sig)
    with pytest.raises(ValueError, match=str(LIMIT)):
        normal_form_raw(t4, [reducer], BlockOrder((1, 1), 1))
    with pytest.raises(ValueError, match=str(LIMIT)):
        eliminate(IdealHandle(sig, parse_many(["t - y^9000", "t^2"], sig)), 1)


def test_growth_at_a_later_position_raises():
    """Position over term: x e_0 + y^9000 e_1 reduces x^9000 e_0 to a term
    of degree 17999 at position 1."""
    x, y = (Polynomial.variable(XY, i) for i in range(2))
    reducer = {0: x, 1: y ** 9000}
    with pytest.raises(ValueError, match=str(LIMIT)):
        vector_remainder({0: x ** 9000}, [reducer], WeightedGrevlex((1, 1)))


def test_cli_reports_the_limit(tmp_path):
    ring = tmp_path / "steep.ring"
    ring.write_text("vars: x, y\nideal: x^20000 - y^20000\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", "--ring", str(ring), "--json"])
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue() == (
        "error: input past a documented limit: a monomial of weighted degree "
        "above 16383 in one block of the monomial order: the Groebner engine "
        "holds monomials up to weighted degree 16383\n")


def test_cached_reducer_follows_the_encoding():
    """A reducer's integer terms are cached with their encoding: x - y^2
    leads with y^2 under grevlex and with x when x is eliminated."""
    x, g = parse_many(["x", "x - y^2"], XY)
    grevlex, block = WeightedGrevlex((1, 1)), BlockOrder((1, 1), 1)
    for order, expected in ((grevlex, "x"), (block, "y^2"), (grevlex, "x")):
        assert str(normal_form_raw(x, [g], order)) == expected
