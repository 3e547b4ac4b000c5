"""Exact multivariate polynomial arithmetic over Q with weighted gradings.

Polynomials are sparse maps from exponent tuples to Fraction coefficients,
attached to a fixed RingSignature (variable names plus positive integer
weights).  Every public polynomial carries exact Fractions; the reduction
loops of the Groebner engines work on integer copies (see groebner.py),
which a polynomial caches once made.  Everything here is immutable by
convention: arithmetic returns fresh objects and never mutates operands.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import add, mul, neg
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Union

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class ParseError(ValueError):
    """Rejected polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ZeroPolynomialError(ValueError):
    """The zero polynomial has no degree."""


@dataclass(frozen=True)
class RingSignature:
    """Variable names and weights of a weighted polynomial ring over Q."""

    names: tuple[str, ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.weights):
            raise ValueError("names and weights must have equal length")
        if not self.names:
            raise ValueError("a signature needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        for name in self.names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        for w in self.weights:
            if not isinstance(w, int) or w <= 0:
                raise ValueError("weights must be positive integers")

    @classmethod
    def standard(cls, *names: str) -> "RingSignature":
        return cls(tuple(names), (1,) * len(names))

    @property
    def nvars(self) -> int:
        return len(self.names)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def degree_of(self, exps: Exponents) -> int:
        return sum(map(mul, self.weights, exps))

    def describe(self) -> str:
        return ", ".join(f"{n}={w}" for n, w in zip(self.names, self.weights))


# -- monomial helpers (exponent tuples) --------------------------------------

def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def grevlex_key(exps: Exponents, weights: tuple[int, ...]):
    """Sort key for graded reverse lexicographic order refined by weighted
    total degree: higher key means larger monomial."""
    return (sum(map(mul, weights, exps)), tuple(map(neg, reversed(exps))))


class Polynomial:
    """A polynomial with Fraction coefficients over a fixed signature."""

    # _ints: (packed encoding, lead, primitive integer terms), made on first
    # use as a reducer and again under another encoding (groebner._poly_element)
    __slots__ = ("sig", "terms", "_ints")

    def __init__(self, sig: RingSignature,
                 terms: Mapping[Exponents, Scalar] | Iterable[tuple[Exponents, Scalar]] = ()):
        cleaned: dict[Exponents, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coef in items:
            coef = Fraction(coef)
            if coef == 0:
                continue
            exps = tuple(exps)
            if len(exps) != sig.nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for signature")
            acc = cleaned.get(exps, Fraction(0)) + coef
            if acc == 0:
                cleaned.pop(exps, None)
            else:
                cleaned[exps] = acc
        self.sig = sig
        self.terms = cleaned
        self._ints = None

    @classmethod
    def _of(cls, sig: RingSignature, terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Wrap terms that are already clean: no zero coefficient, every
        exponent tuple of the signature's length."""
        out = cls.__new__(cls)
        out.sig, out.terms, out._ints = sig, terms, None
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, sig: RingSignature) -> "Polynomial":
        return cls(sig)

    @classmethod
    def constant(cls, sig: RingSignature, c: Scalar) -> "Polynomial":
        return cls(sig, {(0,) * sig.nvars: Fraction(c)})

    @classmethod
    def one(cls, sig: RingSignature) -> "Polynomial":
        return cls.constant(sig, 1)

    @classmethod
    def variable(cls, sig: RingSignature, i: int) -> "Polynomial":
        exps = [0] * sig.nvars
        exps[i] = 1
        return cls._of(sig, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, sig: RingSignature, exps: Exponents, coef: Scalar = 1) -> "Polynomial":
        return cls(sig, {tuple(exps): Fraction(coef)})

    # -- predicates and degrees -----------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        zero = (0,) * self.sig.nvars
        return not self.terms or set(self.terms) == {zero}

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {self.sig.degree_of(e) for e in self.terms}
        return len(degs) == 1

    def homogeneous_degree(self) -> int | None:
        """Weighted degree if homogeneous, None otherwise; zero is an error."""
        if not self.terms:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        degs = {self.sig.degree_of(e) for e in self.terms}
        if len(degs) > 1:
            return None
        return degs.pop()

    # -- arithmetic ------------------------------------------------------

    def _check_sig(self, other: "Polynomial"):
        if self.sig != other.sig:
            raise ValueError("mixed signatures in polynomial arithmetic")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_sig(other)
        acc = dict(self.terms)
        for exps, coef in other.terms.items():
            s = acc.get(exps, Fraction(0)) + coef
            if s == 0:
                acc.pop(exps, None)
            else:
                acc[exps] = s
        return Polynomial._of(self.sig, acc)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.sig, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_sig(other)
        acc: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                s = acc.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    acc.pop(e, None)
                else:
                    acc[e] = s
        return Polynomial._of(self.sig, acc)

    def __rmul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero(self.sig)
        return Polynomial._of(self.sig, {e: c * v for e, v in self.terms.items()})

    def mul_monomial(self, exps: Exponents, coef: Scalar = 1) -> "Polynomial":
        coef = Fraction(coef)
        if coef == 0:
            return Polynomial.zero(self.sig)
        return Polynomial._of(self.sig, {mono_mul(e, exps): coef * c
                                         for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = Polynomial.one(self.sig)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def partial_derivative(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to the i-th variable."""
        acc: dict[Exponents, Fraction] = {}
        for exps, coef in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            lowered = list(exps)
            lowered[i] = e - 1
            acc[tuple(lowered)] = coef * e
        return Polynomial._of(self.sig, acc)

    def substitute(self, images: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials (over the same or another signature) for
        variables; every variable index must be mapped."""
        if set(images) != set(range(self.sig.nvars)):
            raise ValueError("substitution must cover every variable")
        target = next(iter(images.values())).sig
        result = Polynomial.zero(target)
        for exps, coef in self.terms.items():
            term = Polynomial.constant(target, coef)
            for i, e in enumerate(exps):
                if e:
                    term = term * images[i] ** e
            result = result + term
        return result

    # -- comparisons and display ----------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and self.sig == other.sig and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.sig, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded reverse lexicographic order."""
        w = self.sig.weights
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0], w), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for k, (exps, coef) in enumerate(self.sorted_terms()):
            factors = []
            for name, e in zip(self.sig.names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coef)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            if k == 0:
                pieces.append(body if coef > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# -- parsing ------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<nat>\d+)|(?P<op>[*^+/-]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            bad = len(text) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.group("nat"):
            tokens.append(("nat", m.group("nat"), m.start("nat")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the additive polynomial grammar.

    poly   := term (("+" | "-") term)*
    term   := [coef "*"] factor ("*" factor)* | coef
    factor := var ["^" nat]
    coef   := ["-"] nat ["/" nat]

    A sign directly in front of a term's coefficient or first factor is
    accepted, so canonical output like "-x + y" round-trips.
    """

    def __init__(self, text: str, sig: RingSignature):
        self.text = text
        self.sig = sig
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else ("end", "", len(self.text))

    def advance(self):
        tok = self.peek()
        self.k += 1
        return tok

    def expect_nat(self) -> int:
        kind, value, pos = self.advance()
        if kind != "nat":
            raise ParseError("expected a natural number", pos)
        return int(value)

    def parse(self) -> Polynomial:
        if not self.tokens:
            raise ParseError("empty polynomial text", 0)
        result = self.parse_term()
        while True:
            kind, value, pos = self.peek()
            if kind == "end":
                break
            if kind == "op" and value in "+-":
                self.advance()
                term = self.parse_term()
                result = result + (term if value == "+" else -term)
            else:
                raise ParseError(f"expected '+' or '-' before {value!r}", pos)
        return result

    def parse_term(self) -> Polynomial:
        sign = Fraction(1)
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = Fraction(-1)
            kind, value, pos = self.peek()
        coef = Fraction(1)
        exps = [0] * self.sig.nvars
        if kind == "nat":
            self.advance()
            num = int(value)
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "/":
                self.advance()
                den = self.expect_nat()
                if den == 0:
                    raise ParseError("zero denominator", pos)
                coef = Fraction(num, den)
            else:
                coef = Fraction(num)
            nk, nv, npos = self.peek()
            if nk == "op" and nv == "*":
                self.advance()
                self.parse_factor(exps)
            elif nk == "name":
                raise ParseError("missing '*' between coefficient and variable", npos)
        elif kind == "name":
            self.parse_factor(exps)
        else:
            raise ParseError("expected a term", pos)
        while True:
            nk, nv, npos = self.peek()
            if nk == "op" and nv == "*":
                self.advance()
                self.parse_factor(exps)
            elif nk == "name":
                raise ParseError("missing '*' between factors", npos)
            else:
                break
        return Polynomial.monomial(self.sig, tuple(exps), sign * coef)

    def parse_factor(self, exps: list[int]):
        kind, value, pos = self.advance()
        if kind != "name":
            raise ParseError("expected a variable name", pos)
        try:
            i = self.sig.index(value)
        except KeyError:
            raise ParseError(f"unknown variable {value!r}", pos) from None
        nk, nv, _ = self.peek()
        power = 1
        if nk == "op" and nv == "^":
            self.advance()
            power = self.expect_nat()
        exps[i] += power


def parse_polynomial(text: str, sig: RingSignature) -> Polynomial:
    """Parse polynomial text over the given signature.

    Raises ParseError with a position on malformed input or unknown names.
    """
    return _Parser(text, sig).parse()


def parse_many(texts: Iterable[str], sig: RingSignature) -> tuple[Polynomial, ...]:
    return tuple(parse_polynomial(t, sig) for t in texts)
