"""Loader for ring description files.

The format is line oriented: a required `vars:` line (comma-separated
`name=weight` entries, weight defaulting to 1), an optional `ideal:` line of
comma-separated polynomials, and repeatable `assume:` lines carrying the
tokens `reduced` and `equidimensional`.  `#` starts a comment anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import ParseError, Polynomial, RingSignature, parse_polynomial
from .rings import GradedAlgebra, HomogeneityError

KNOWN_ASSUMPTIONS = ("reduced", "equidimensional")


class RingFileError(ValueError):
    """Malformed ring description file."""


@dataclass
class RingDescription:
    """A parsed ring file plus the algebra it defines."""

    path: str
    algebra: GradedAlgebra
    ideal_texts: tuple[str, ...] = ()
    assumptions: tuple[str, ...] = ()


def _parse_vars(body: str, lineno: int) -> RingSignature:
    names: list[str] = []
    weights: list[int] = []
    for item in body.split(","):
        item = item.strip()
        if not item:
            raise RingFileError(f"line {lineno}: empty variable entry")
        if "=" in item:
            name, _, weight_text = item.partition("=")
            name = name.strip()
            weight_text = weight_text.strip()
            if not weight_text.isdecimal() or int(weight_text) < 1:
                raise RingFileError(
                    f"line {lineno}: weight of {name!r} must be a positive integer")
            weight = int(weight_text)
        else:
            name, weight = item, 1
        names.append(name)
        weights.append(weight)
    try:
        return RingSignature(tuple(names), tuple(weights))
    except ValueError as exc:
        raise RingFileError(f"line {lineno}: {exc}") from None


def loads_ring(text: str, path: str = "<string>") -> RingDescription:
    sig: RingSignature | None = None
    ideal_line: tuple[int, str] | None = None
    assumptions: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, sep, body = line.partition(":")
        keyword = keyword.strip()
        if not sep or keyword not in ("vars", "ideal", "assume"):
            raise RingFileError(
                f"line {lineno}: expected 'vars:', 'ideal:' or 'assume:'")
        body = body.strip()
        if keyword == "vars":
            if sig is not None:
                raise RingFileError(f"line {lineno}: duplicate vars line")
            sig = _parse_vars(body, lineno)
        elif keyword == "ideal":
            if ideal_line is not None:
                raise RingFileError(f"line {lineno}: duplicate ideal line")
            ideal_line = (lineno, body)
        else:
            for token in body.split(","):
                token = token.strip()
                if token not in KNOWN_ASSUMPTIONS:
                    raise RingFileError(
                        f"line {lineno}: unknown assumption {token!r}; "
                        f"known: {', '.join(KNOWN_ASSUMPTIONS)}")
                if token not in assumptions:
                    assumptions.append(token)
    if sig is None:
        raise RingFileError("missing vars line")

    gens: list[Polynomial] = []
    ideal_texts: list[str] = []
    if ideal_line is not None:
        lineno, body = ideal_line
        if body:
            for piece in body.split(","):
                piece = piece.strip()
                if not piece:
                    raise RingFileError(f"line {lineno}: empty ideal entry")
                try:
                    gens.append(parse_polynomial(piece, sig))
                except ParseError as exc:
                    raise RingFileError(
                        f"line {lineno}: bad polynomial {piece!r}: {exc}") from None
                ideal_texts.append(piece)
        for text_piece, g in zip(ideal_texts, gens):
            if g.is_zero:
                continue
            if g.homogeneous_degree() is None:
                raise HomogeneityError(
                    f"line {lineno}: generator {text_piece!r} is not "
                    f"weighted-homogeneous for vars {sig.describe()}")

    algebra = GradedAlgebra(
        sig, gens,
        asserted_reduced="reduced" in assumptions,
        asserted_equidimensional="equidimensional" in assumptions,
    )
    return RingDescription(path, algebra, tuple(ideal_texts), tuple(assumptions))


def load_ring(path: str) -> RingDescription:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise RingFileError(f"cannot read ring file {path}: {exc}") from None
    return loads_ring(text, path)
