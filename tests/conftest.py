from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from difftrace import (
    GradedAlgebra,
    RingSignature,
    fiber_product,
    parse_facets,
    parse_many,
    stanley_reisner_algebra,
    tensor_product,
    veronese_algebra,
)
from difftrace.groebner import (
    _buckets,
    _element,
    _fractions,
    _integers,
    _primitive,
    _reduce,
    current_budget,
)
from difftrace.poly import Polynomial
from difftrace.ringfile import load_ring
from difftrace.simplicial import iso_classes

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")

# the sample ring files shipped in rings/
RING_FILES = sorted((Path(__file__).resolve().parent.parent / "rings").glob("*.ring"))
# with the test rings of tests/data/rings/
ALL_RINGS = RING_FILES + sorted((Path(__file__).resolve().parent / "data" / "rings")
                                .glob("*.ring"))
# the census classes on at most 5 vertices whose components are pure
PURE_CENSUS = [d for d in iso_classes(5) if all(p.is_pure for p in d.components)]


def ring_powers():
    """(ring file, k) for every sample ring file and k = 1..dim."""
    for path in RING_FILES:
        for k in range(1, load_ring(str(path)).algebra.dimension + 1):
            yield pytest.param(path, k, id=f"{path.stem}-{k}")


def wedge_shifts(sig: RingSignature, k: int) -> list[int]:
    """The degrees of the basis elements e_T of the k-th wedge of the
    differentials: e_T has degree sum(w_i for i in T)."""
    return [sum(sig.weights[i] for i in T)
            for T in itertools.combinations(range(sig.nvars), k)]


def make_ring(names, weights, gens, reduced=True, equidim=True) -> GradedAlgebra:
    sig = RingSignature(tuple(names), tuple(weights))
    return GradedAlgebra(
        sig,
        parse_many(gens, sig),
        asserted_reduced=reduced,
        asserted_equidimensional=equidim,
    )


def dense(P) -> list[tuple[Polynomial, ...]]:
    """The relation columns of a ModulePresentation as full tuples, one
    entry per target row, zero where the column's map has none."""
    zero = Polynomial.zero(P.algebra.sig)
    return [tuple(col.get(t, zero) for t in range(P.target_rank)) for col in P.columns]


def sparse(rows) -> list[dict[int, Polynomial]]:
    """The rows of a matrix as `syzygies` takes them: each a map from a
    column index to the row's nonzero entry there."""
    return [{j: e for j, e in enumerate(row) if not e.is_zero} for row in rows]


def vector_remainder(v: dict[int, Polynomial], basis, order) -> dict[int, Polynomial]:
    """Full remainder of a {position: Polynomial} map under division by the
    nonzero basis maps in list order, run by the engine's integer kernel
    (`groebner._reduce`) as kernel elements are: each basis map as its
    primitive integer vector, the remainder back in Fractions."""
    packing = order._packing
    reducers = [_element(_primitive(ints)) for g in basis
                if (ints := _integers({i: p.terms for i, p in g.items()}, packing)[0])]
    vec, den = _integers({i: p.terms for i, p in v.items()}, packing)
    remainder, den = _reduce(vec, den, _buckets(reducers, packing), packing,
                             current_budget())
    if not remainder:
        return {}
    sig = next(iter(v.values())).sig
    return {i: Polynomial._of(sig, _fractions(comp, den, packing))
            for i, comp in remainder.items()}


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    algebra: GradedAlgebra
    dim: int  # known a priori from the construction, checked against the engine
    kind: str


def build_corpus() -> dict[str, CorpusEntry]:
    """A fresh corpus: new algebras, with no trace cached on them."""
    entries: dict[str, CorpusEntry] = {}

    def add(name, algebra, dim, kind):
        entries[name] = CorpusEntry(name, algebra, dim, kind)

    add("line", make_ring(["x"], [1], []), 1, "polynomial")
    add("plane", make_ring(["x", "y"], [1, 1], []), 2, "polynomial")
    add("space", make_ring(["x", "y", "z"], [1, 1, 1], []), 3, "polynomial")
    add("node", make_ring(["x", "y"], [1, 1], ["x*y"]), 1, "monomial")
    # plane union line: components of dimensions 2 and 1
    add("cross", make_ring(["x", "y", "z"], [1, 1, 1], ["x*y", "x*z"],
                           equidim=False), 2, "monomial")
    add("fermat", make_ring(["x", "y", "z"], [1, 1, 1], ["x^3 + y^3 + z^3"]),
        2, "hypersurface")
    add("conic", make_ring(["a", "b", "c"], [1, 1, 1], ["a*c - b^2"]),
        2, "binomial")
    add("cusp", make_ring(["a", "b"], [2, 3], ["a^3 - b^2"]), 1, "hypersurface")
    add("plane-pair", make_ring(["x", "y", "z", "w"], [1, 1, 1, 1], ["x*y"]),
        3, "monomial")
    add("whitney", make_ring(["x", "y", "z"], [2, 1, 2], ["x^2 - y^2*z"]),
        2, "hypersurface")
    add("quadric", make_ring(["x", "y", "z", "w"], [1, 1, 1, 1], ["x*w - y*z"]),
        3, "binomial")
    add("three-points", stanley_reisner_algebra(parse_facets("1; 2; 3")),
        1, "monomial")
    add("two-edges", stanley_reisner_algebra(parse_facets("1 2; 3 4")),
        2, "monomial")
    add("path", stanley_reisner_algebra(parse_facets("1 2; 2 3")), 2, "monomial")
    add("node-cylinder",
        tensor_product(entries["node"].algebra, make_ring(["t"], [1], [])),
        2, "constructed")
    add("glued-axes",
        fiber_product(make_ring(["u"], [1], []),
                      make_ring(["v", "w"], [1, 1], [])),
        2, "constructed")
    add("veronese2", veronese_algebra(entries["plane"].algebra, 2),
        2, "constructed")
    add("veronese3", veronese_algebra(entries["plane"].algebra, 3),
        2, "constructed")
    return entries


def corpus_powers():
    """(corpus entry name, k) for every corpus entry and k = 1..dim."""
    for entry in build_corpus().values():
        for k in range(1, entry.dim + 1):
            yield pytest.param(entry.name, k, id=f"{entry.name}-{k}")


@pytest.fixture(scope="session")
def corpus() -> dict[str, CorpusEntry]:
    return build_corpus()


@pytest.fixture(scope="session")
def corpus_rings(corpus):
    return [e.algebra for e in corpus.values()]


def presented(algebra: GradedAlgebra, handle) -> list[str]:
    return [str(g) for g in algebra.presented_generators(handle)]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion at the end of every run."""
    rows = []
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            if getattr(rep, "when", "call") != "call":
                continue
            name = nodeid.split("::")[-1]
            if not name.startswith("test_criterion_"):
                continue
            label = name[len("test_criterion_"):].replace("_", " ")
            rows.append((label, "PASS" if rep.passed else "FAIL"))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for label, outcome in sorted(rows):
            terminalreporter.write_line(f"criterion {label}: {outcome}")
