"""The three workloads: inputs made from a seed, items, and their checks.

Each workload's set-up makes its inputs from the seed.  ``items()`` returns
one round of items, with fresh algebras, so that no item finds a cache left
by an earlier round.  ``profiled_items()`` returns the part of a round that
the cProfile pass runs: cProfile slows this code about four times, so a
whole round would not fit in a run.  ``check(results)`` returns the problems
it finds in a round's results, given as {item name: value}.  Nothing here compares against a
stored copy of an earlier output: every check is a property the paper
proves, a count known from elsewhere, or a computation by the
linear-algebra oracle in ``tests/oracles.py``, which shares no code with the
Groebner engine.

The library is reached through its modules at call time (``traces.diff_trace``,
not a name imported once), so that the wrappers of the traced run see
every call.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from difftrace import cli, constructions, groebner, ringfile, simplicial, traces
from difftrace.poly import Polynomial, RingSignature, parse_many, parse_polynomial
from difftrace.rings import GradedAlgebra

ROOT = Path(__file__).resolve().parent.parent

# Budget for the library calls the benchmark makes itself: large enough never
# to abort, so that a step count is the whole computation's.
STEP_LIMIT = 10 ** 12


def load_oracles():
    """tests/oracles.py, imported read-only from the source tree."""
    spec = importlib.util.spec_from_file_location(
        "difftrace_bench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Item:
    name: str
    run: Callable[[], object]


def flip_signs(p: Polynomial, signs: tuple[int, ...]) -> Polynomial:
    """p(e_1 x_1, ..., e_n x_n) for signs e_i in {1, -1}: the image of p under
    an automorphism that fixes every monomial order, so the Groebner
    computations keep their shape.  Only ties broken by the printed form
    change, which moves the step count of a round by under 0.5%."""
    terms = {}
    for exps, coef in p.terms.items():
        odd = sum(e for s, e in zip(signs, exps) if s < 0) % 2
        terms[exps] = -coef if odd else coef
    return Polynomial(p.sig, terms)


def seeded_signs(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) for _ in range(n))


def seeded_labels(rng: random.Random, n: int) -> list[int]:
    """n increasing vertex labels from 1..MAX_VERTICES.

    Increasing, so the variables of a face ring keep their order: a
    permutation of the variable order changes the grevlex computation, and
    it moved the median census item by 13% between two seeds.
    """
    return sorted(rng.sample(range(1, simplicial.MAX_VERTICES + 1), n))


def relabel(delta, labels: list[int]):
    image = dict(zip(delta.vertices, labels))
    return simplicial.SimplicialComplex.from_facets(
        [[image[v] for v in facet] for facet in delta.facets])


# -- census ---------------------------------------------------------------------

# Isomorphism classes of antichain covers on exactly n vertices (OEIS A006602).
ANTICHAIN_COVERS = (1, 2, 5, 20, 180)
PURE_CLASSES_UP_TO_5 = 98


class Census:
    """Nearly-regularity of face rings, one small monomial ring per item.

    Runs every class on at most ``vertices`` vertices whose components are
    pure: 98 at five vertices.  The seed relabels the vertices and orders
    the items.
    """

    def __init__(self, seed: int, quick: bool, workdir: Path):
        vertices = 3 if quick else 5
        classes = simplicial.iso_classes(vertices)
        self.problems = []
        counts = [sum(1 for d in classes if len(d.vertices) == n)
                  for n in range(1, vertices + 1)]
        if counts != list(ANTICHAIN_COVERS[:vertices]):
            self.problems.append(f"class counts {counts}, expected "
                                 f"{list(ANTICHAIN_COVERS[:vertices])}")
        pure = [d for d in classes if all(p.is_pure for p in d.components)]
        if vertices == 5 and len(pure) != PURE_CLASSES_UP_TO_5:
            self.problems.append(f"{len(pure)} classes with pure components, "
                                 f"expected {PURE_CLASSES_UP_TO_5}")
        rng = random.Random(seed)
        self.complexes = [(i, relabel(d, seeded_labels(rng, len(d.vertices))))
                          for i, d in enumerate(pure)]
        rng.shuffle(self.complexes)

    @staticmethod
    def _item(delta) -> Item:
        def decide():
            algebra = simplicial.stanley_reisner_algebra(delta)
            with groebner.step_budget(STEP_LIMIT):
                return delta, algebra, traces.is_nearly_regular(algebra)
        return Item(f"census {delta.describe()}", decide)

    def items(self) -> list[Item]:
        return [self._item(delta) for _, delta in self.complexes]

    def profiled_items(self) -> list[Item]:
        """Every eighth class, by enumeration order."""
        return [self._item(delta) for index, delta in self.complexes if index % 8 == 0]

    def check(self, results: dict) -> list[str]:
        problems = list(self.problems)
        for name, (delta, algebra, nearly_regular) in results.items():
            if nearly_regular != simplicial.combinatorial_nearly_regular(delta):
                problems.append(f"{name}: algebraic and combinatorial "
                                "nearly-regularity disagree")
            if delta.is_connected:
                with groebner.step_budget(STEP_LIMIT):
                    regular = traces.is_regular_via_trace(algebra)
                if regular != delta.is_simplex:
                    problems.append(f"{name}: connected, regular={regular}, "
                                    f"simplex={delta.is_simplex}")
        return problems


# -- hard traces -------------------------------------------------------------------

def veronese_monomials(names, degree: int) -> list[Polynomial]:
    """The degree-d monomials in the named variables, in the order in which
    veronese_algebra names its new variables (descending lex)."""
    base = RingSignature(tuple(names), (1,) * len(names))
    out = []
    for combo in itertools.combinations_with_replacement(range(len(names)), degree):
        exps = [0] * len(names)
        for i in combo:
            exps[i] += 1
        out.append(Polynomial.monomial(base, tuple(exps)))
    return out


def vanishes_on(gens, images: list[Polynomial]) -> bool:
    """Whether every generator maps to zero under z_k -> images[k]."""
    mapping = dict(enumerate(images))
    return all(g.substitute(mapping).is_zero for g in gens)


def _cone(name: str):
    """(algebra, Krull dimension, parametrization or None) of a named cone."""
    if name == "segre":
        sig = RingSignature(("a", "b", "c", "d", "e", "f"), (1,) * 6)
        minors = parse_many(["a*e - b*d", "a*f - c*d", "b*f - c*e"], sig)
        return GradedAlgebra(sig, minors), 4, None
    params, degree = {"quartic": ("st", 4), "veronese": ("stu", 2)}[name]
    polynomial_ring = GradedAlgebra(RingSignature(tuple(params), (1,) * len(params)))
    algebra = constructions.veronese_algebra(polynomial_ring, degree)
    return algebra, len(params), veronese_monomials(params, degree)


class HardTraces:
    """Trace chains of three toric cones: few, large module Groebner bases.

    A round is one item that computes, for each cone, its traces with the
    minimal generators that ``classify`` prints: every power of the quartic
    and Segre cones, and the first and top powers of the Veronese of P^2
    (its second power, 10 s today, is left out for the run budget).  One
    item, because the median of a few items is one small computation's
    time, which on this kind of shared machine spreads by 12-20% from run to
    run.  The seed flips the signs of a seeded set of variables of each
    cone.
    """

    CHAINS = {"quartic": (1, 2), "veronese": (1, 3), "segre": (1, 2, 3, 4)}

    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.problems = []
        rng = random.Random(seed)
        self.cones = {}
        for name in (("segre",) if quick else tuple(self.CHAINS)):
            algebra, dimension, parametrization = _cone(name)
            if parametrization and not vanishes_on(algebra.defining.gens, parametrization):
                self.problems.append(f"{name}: generators do not vanish on the "
                                     "Veronese parametrization")
            signs = seeded_signs(rng, algebra.nvars)
            gens = tuple(flip_signs(g, signs) for g in algebra.defining.gens)
            self.cones[name] = (algebra.sig, gens, dimension)
        self.oracles = load_oracles()

    def _chain(self, name):
        sig, gens, _ = self.cones[name]
        algebra = GradedAlgebra(sig, gens, asserted_reduced=True,
                                asserted_equidimensional=True)
        out = {}
        with groebner.step_budget(STEP_LIMIT):
            for power in self.CHAINS[name]:
                handle = traces.diff_trace(algebra, power)
                out[power] = (algebra.presented_generators(handle), handle.is_trivial)
        return algebra, out

    def items(self) -> list[Item]:
        return [Item("trace chains of " + ", ".join(self.cones),
                     lambda: {name: self._chain(name) for name in self.cones})]

    def profiled_items(self) -> list[Item]:
        """The cones but the Veronese, whose top trace (27 s today) would
        take about four times as long profiled."""
        return [Item(name, lambda name=name: self._chain(name))
                for name in self.cones if name != "veronese"]

    def check(self, results: dict) -> list[str]:
        member = self.oracles.oracle_membership
        problems = list(self.problems)
        chains = next(iter(results.values()), {})
        for cone, (algebra, chain) in chains.items():
            sig, defining = algebra.sig, list(algebra.defining.gens)
            top = self.cones[cone][2]
            if algebra.dimension != top:
                problems.append(f"{cone}: dimension {algebra.dimension}, expected {top}")
            powers = sorted(chain)
            for low, high in zip(powers, powers[1:]):
                lower = list(chain[low][0]) + defining
                if not all(member(g, lower, sig) for g in chain[high][0]):
                    problems.append(f"{cone}: trace {high} not inside trace {low}")
            first = list(chain[1][0]) + defining
            if not all(member(x, first, sig) for x in algebra.variables()):
                problems.append(f"{cone}: a variable is missing from trace 1 "
                                "(the Euler derivation puts it there)")
            gens, trivial = chain[top]
            ideal = list(gens) + defining
            if trivial or member(algebra.one(), ideal, sig):
                problems.append(f"{cone}: top trace is the whole ring, but the "
                                "cone is singular at its vertex")
            if not all(self.oracles.oracle_radical_membership(x, ideal, sig, 3)
                       for x in algebra.variables()):
                problems.append(f"{cone}: some variable has no power up to the "
                                "third in the top trace")
        return problems


# -- CLI corpus ------------------------------------------------------------------------

# Small complexes with pure components, for `sr --verify-algebraic`.
SR_FACETS = ("1 2; 3 4", "1 2; 2 3", "1; 2; 3", "1 2; 2 3; 3 1", "1 2 3; 4",
             "1 2 3")
VERONESE_DEGREES = (2, 3)
TRACE_POWERS = (0, 1, 2, 3)
# Fiber products in more variables take 1-30 s a call today; see CHANGES.md.
FIBER_MAX_VARS = 4


class CliCorpus:
    """In-process calls of ``difftrace.cli.main([..., "--json"])``.

    The seed writes a copy of every ``rings/*.ring`` file with the signs of a
    seeded set of variables flipped, relabels the vertices of the ``sr``
    complexes and orders the calls.
    """

    def __init__(self, seed: int, quick: bool, workdir: Path):
        rng = random.Random(seed)
        self.oracles = load_oracles()
        self.rings = {}
        sources = sorted((ROOT / "rings").glob("*.ring"))
        if quick:
            sources = [p for p in sources if p.stem in ("node", "plane")]
        for source in sources:
            description = ringfile.load_ring(str(source))
            algebra = description.algebra
            signs = seeded_signs(rng, algebra.nvars)
            gens = [flip_signs(g, signs) for g in algebra.defining.gens]
            lines = ["vars: " + ", ".join(f"{n}={w}" for n, w in
                                          zip(algebra.sig.names, algebra.sig.weights))]
            if gens:
                lines.append("ideal: " + ", ".join(str(g) for g in gens))
            if description.assumptions:
                lines.append("assume: " + ", ".join(description.assumptions))
            path = workdir / source.name
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.rings[source.stem] = (str(path), algebra)
        self.calls = self._calls(rng, quick)
        rng.shuffle(self.calls)

    def _calls(self, rng, quick) -> list[list[str]]:
        calls = []
        flagged = []
        for stem, (path, algebra) in self.rings.items():
            calls.append(["classify", "--ring", path])
            calls.append(["prank", "--ring", path])
            calls += [["trace", "--ring", path, "--power", str(k)] for k in TRACE_POWERS]
            if algebra.asserted_reduced and algebra.asserted_equidimensional:
                calls.append(["singular", "--ring", path, "--cross-check"])
                flagged.append(stem)
            if algebra.is_polynomial_ring and set(algebra.sig.weights) == {1}:
                calls += [["veronese", "--ring", path, "--degree", str(d)]
                          for d in VERONESE_DEGREES]
        for facets in SR_FACETS[:2] if quick else SR_FACETS:
            blocks = [block.split() for block in facets.split(";")]
            vertices = sorted({int(v) for block in blocks for v in block})
            image = dict(zip(vertices, seeded_labels(rng, len(vertices))))
            text = "; ".join(" ".join(str(image[int(v)]) for v in block) for block in blocks)
            calls.append(["sr", "--facets", text, "--verify-algebraic"])
        for a, b in itertools.combinations_with_replacement(flagged, 2):
            path_a, path_b = self.rings[a][0], self.rings[b][0]
            calls.append(["tensor", path_a, path_b, "--verify-formula"])
            if self.rings[a][1].nvars + self.rings[b][1].nvars <= FIBER_MAX_VARS:
                calls.append(["fiber", path_a, path_b, "--verify-formula"])
        return calls

    def items(self) -> list[Item]:
        def call(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv + ["--json"])
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
            return argv, out.getvalue()

        return [Item(" ".join(Path(a).name if a.endswith(".ring") else a for a in argv),
                     lambda argv=argv: call(argv))
                for argv in self.calls]

    def profiled_items(self) -> list[Item]:
        return self.items()

    # -- checks ---------------------------------------------------------------

    def _ideal(self, ring_json: dict, generators: list[str]):
        sig = RingSignature(tuple(v["name"] for v in ring_json["vars"]),
                            tuple(v["weight"] for v in ring_json["vars"]))
        gens = [parse_polynomial(g, sig) for g in generators + ring_json["ideal"]]
        return sig, gens

    def _contains_variables(self, ring_json: dict, generators: list[str]) -> bool:
        sig, gens = self._ideal(ring_json, generators)
        return all(self.oracles.oracle_membership(Polynomial.variable(sig, i), gens, sig)
                   for i in range(sig.nvars))

    def check(self, results: dict) -> list[str]:
        problems = []
        classified = {}
        docs = []
        for name, (argv, text) in results.items():
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                problems.append(f"{name}: output is not JSON ({exc})")
                continue
            if json.dumps(doc, sort_keys=True, indent=2) + "\n" != text:
                problems.append(f"{name}: output is not its own sorted-keys re-dump")
            docs.append((name, argv, doc))
            if doc["command"] == "classify":
                classified[argv[2]] = doc["results"]
        for name, argv, doc in docs:
            problems += [f"{name}: {p}" for p in self._check_doc(argv, doc, classified)]
        return problems

    def _check_doc(self, argv, doc, classified) -> list[str]:
        command, res = doc["command"], doc["results"]
        problems = []
        if command == "classify":
            whole = [row["power"] for row in res["traces"] if row["isWholeRing"]]
            if res["polynomialRank"] != max(whole):
                problems.append("polynomialRank is not the largest power with isWholeRing")
            top = res["traces"][res["dimension"]]["generators"]
            ring = doc["inputs"]["ring"]
            if res["nearlyRegular"] != self._contains_variables(ring, top):
                problems.append("nearlyRegular disagrees with oracle membership "
                                "of the variables in the top trace")
            if Path(argv[2]).stem == "plane" and (res["regular"] is not True
                                                  or res["polynomialRank"] != 2):
                problems.append("plane is not regular of rank 2")
        elif command == "prank":
            ref = classified.get(argv[2])
            if ref is not None and res["polynomialRank"] != ref["polynomialRank"]:
                problems.append("prank and classify disagree")
            if Path(argv[2]).stem == "plane" and res["polynomialRank"] != 2:
                problems.append("plane does not have rank 2")
        elif command == "trace":
            ring = doc["inputs"]["ring"]
            if res["containsMaximalIdeal"] != self._contains_variables(ring, res["generators"]):
                problems.append("containsMaximalIdeal disagrees with the oracle")
            ref = classified.get(argv[2])
            power = doc["inputs"]["power"]
            if ref is not None and power < len(ref["traces"]):
                if res["isWholeRing"] != ref["traces"][power]["isWholeRing"]:
                    problems.append("isWholeRing disagrees with classify")
        elif command == "singular":
            if res["radicalsAgree"] is not True:
                problems.append("radicalsAgree is not true")
        elif command in ("tensor", "fiber"):
            if res["formulaHolds"] is not True:
                problems.append("formulaHolds is not true")
            if res["nearlyRegular"] != self._contains_variables(res["ring"],
                                                                res["directTopTrace"]):
                problems.append("nearlyRegular disagrees with the oracle")
        elif command == "sr":
            if res["agree"] is not True:
                problems.append("combinatorial and algebraic criteria disagree")
        elif command == "veronese":
            problems += self._check_veronese(doc)
        return problems

    def _check_veronese(self, doc) -> list[str]:
        names = [v["name"] for v in doc["inputs"]["ring"]["vars"]]
        degree = doc["inputs"]["degree"]
        ring = doc["results"]["ring"]
        sig = RingSignature(tuple(v["name"] for v in ring["vars"]),
                            tuple(v["weight"] for v in ring["vars"]))
        if sig.nvars != math.comb(len(names) + degree - 1, degree):
            return ["wrong number of Veronese variables"]
        problems = []
        gens = [parse_polynomial(g, sig) for g in ring["ideal"]]
        if not vanishes_on(gens, veronese_monomials(names, degree)):
            problems.append("a generator does not vanish on the Veronese parametrization")
        if doc["results"]["dimension"] != len(names):
            problems.append("Veronese subring has the wrong dimension")
        return problems


# The workloads by name; each is made from (seed, quick, workdir).
WORKLOADS = {"census": Census, "hard_traces": HardTraces, "cli_corpus": CliCorpus}
