"""Simplicial complexes and their Stanley-Reisner algebras.

Complexes are stored by their facets over an explicit vertex label set (every
vertex is a face).  The Stanley-Reisner algebra is the quotient by the
squarefree monomials of the minimal non-faces; it is always reduced, and
equidimensional exactly when the complex is pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .poly import Polynomial, RingSignature
from .rings import AssumptionError, GradedAlgebra

MAX_VERTICES = 12


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite simplicial complex given by its facets."""

    vertices: tuple[int, ...]
    facets: frozenset[frozenset[int]]

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable[int]],
                    vertices: Iterable[int] | None = None) -> "SimplicialComplex":
        """Build from candidate facets; non-maximal faces are filtered out.

        Every listed vertex must be covered by some facet (vertices default
        to the union of the facets), and at most 12 vertices are supported.
        """
        sets = [frozenset(f) for f in facets]
        if not sets or any(not f for f in sets):
            raise ValueError("facets must be nonempty vertex sets")
        covered = frozenset().union(*sets)
        if any(not isinstance(v, int) or v < 1 for v in covered):
            raise ValueError("vertices must be positive integers")
        if vertices is None:
            vertex_tuple = tuple(sorted(covered))
        else:
            vertex_tuple = tuple(sorted(set(vertices)))
            if covered - set(vertex_tuple):
                raise ValueError("a facet uses a vertex outside the vertex set")
            if set(vertex_tuple) - covered:
                raise ValueError("every vertex must appear in some facet")
        if len(vertex_tuple) > MAX_VERTICES:
            raise ValueError(f"at most {MAX_VERTICES} vertices are supported")
        maximal = frozenset(
            f for f in sets if not any(f < g for g in sets)
        )
        return cls(vertex_tuple, maximal)

    @cached_property
    def dimension(self) -> int:
        return max(len(f) for f in self.facets) - 1

    @cached_property
    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) == 1

    def is_face(self, face: Iterable[int]) -> bool:
        f = frozenset(face)
        return any(f <= facet for facet in self.facets)

    @property
    def is_simplex(self) -> bool:
        return self.facets == frozenset({frozenset(self.vertices)})

    @cached_property
    def minimal_nonfaces(self) -> tuple[tuple[int, ...], ...]:
        """Vertex sets that are not faces while all proper subsets are.

        Searched by size; a minimal non-face has at most one vertex more
        than the largest facet.
        """
        bound = max(len(f) for f in self.facets) + 1
        found: list[tuple[int, ...]] = []
        for size in range(2, bound + 1):
            for combo in itertools.combinations(self.vertices, size):
                if self.is_face(combo):
                    continue
                if all(self.is_face(combo[:i] + combo[i + 1:])
                       for i in range(size)):
                    found.append(combo)
        return tuple(found)

    @cached_property
    def components(self) -> tuple["SimplicialComplex", ...]:
        """Connected components, each on its own vertex subset."""
        parent = {v: v for v in self.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for facet in self.facets:
            anchor = find(next(iter(facet)))
            for v in facet:
                parent[find(v)] = anchor
        groups: dict[int, list[frozenset[int]]] = {}
        for facet in self.facets:
            groups.setdefault(find(next(iter(facet))), []).append(facet)
        pieces = []
        for _, facets in sorted(groups.items()):
            pieces.append(SimplicialComplex.from_facets(facets))
        return tuple(sorted(pieces, key=lambda c: c.vertices))

    @property
    def is_connected(self) -> bool:
        return len(self.components) == 1

    def describe(self) -> str:
        inside = ", ".join(
            "{" + ",".join(str(v) for v in sorted(f)) + "}"
            for f in sorted(self.facets, key=sorted))
        return f"complex on {self.vertices} with facets {inside}"


def parse_facets(text: str) -> SimplicialComplex:
    """Parse facet syntax like "1 2; 2 3": facets split by ';', vertices by space."""
    facets = []
    for chunk in text.split(";"):
        names = chunk.split()
        if not names:
            raise ValueError("empty facet in facet list")
        try:
            facets.append([int(v) for v in names])
        except ValueError:
            raise ValueError(f"facet vertices must be integers: {chunk!r}") from None
    return SimplicialComplex.from_facets(facets)


def iso_classes(max_vertices: int) -> list[SimplicialComplex]:
    """One complex per isomorphism class on at most max_vertices vertices.

    Facet families are enumerated depth first as antichains of nonempty
    vertex subsets covering every vertex; the first family found in each
    class is kept.  A family's key has bit i set for each subset index i it
    holds, and keeping a family marks the keys of all n! of its vertex
    permutations as seen.  The cost is the search, which visits every
    antichain (about 7,600 on 5 vertices, 7.8 million on 6), plus n! images
    per class (180 times 120 on 5, 16,143 times 720 on 6); the seen set
    ends up holding every covering antichain.  Intended for small censuses.
    """
    if not 1 <= max_vertices <= 7:
        raise ValueError("census enumeration supports 1 to 7 vertices")
    out: list[SimplicialComplex] = []
    for n in range(1, max_vertices + 1):
        # subsets as vertex bitmasks (vertex v is bit v - 1), by size and
        # then lexicographically
        subsets = [sum(1 << (v - 1) for v in c) for k in range(1, n + 1)
                   for c in itertools.combinations(range(1, n + 1), k)]
        index = {s: i for i, s in enumerate(subsets)}
        comparable = [sum(1 << j for j, t in enumerate(subsets) if s & t in (s, t))
                      for s in subsets]
        images = [[1 << index[sum(1 << p[b] for b in range(n) if s >> b & 1)]
                   for s in subsets]
                  for p in itertools.permutations(range(n))]
        everything = (1 << n) - 1
        seen: set[int] = set()
        stack: list[tuple[int, tuple[int, ...], int, int]] = [(0, (), 0, 0)]
        while stack:
            start, chosen, key, cover = stack.pop()
            for j in range(start, len(subsets)):
                if key & comparable[j]:
                    continue
                family = chosen + (j,)
                family_key = key | 1 << j
                family_cover = cover | subsets[j]
                stack.append((j + 1, family, family_key, family_cover))
                if family_cover != everything or family_key in seen:
                    continue
                seen.update(sum(image[i] for i in family) for image in images)
                out.append(SimplicialComplex.from_facets(
                    [[b + 1 for b in range(n) if subsets[i] >> b & 1]
                     for i in family]))
    return out


def stanley_reisner_algebra(delta: SimplicialComplex) -> GradedAlgebra:
    """The face ring: one standard-graded variable per vertex, one squarefree
    monomial per minimal non-face.

    Always reduced; equidimensional exactly when the complex is pure.
    """
    names = tuple(f"x{v}" for v in delta.vertices)
    sig = RingSignature(names, (1,) * len(names))
    position = {v: i for i, v in enumerate(delta.vertices)}
    gens = []
    for nonface in delta.minimal_nonfaces:
        exps = [0] * len(names)
        for v in nonface:
            exps[position[v]] = 1
        gens.append(Polynomial._of(sig, {tuple(exps): Fraction(1)}))
    return GradedAlgebra(sig, gens, asserted_reduced=True,
                         asserted_equidimensional=delta.is_pure)


def combinatorial_nearly_regular(delta: SimplicialComplex) -> bool:
    """Nearly-regularity read off the complex: every component a simplex of
    the full dimension.  Needs every component pure."""
    for piece in delta.components:
        if not piece.is_pure:
            raise AssumptionError(
                "combinatorial nearly-regularity needs pure components; "
                f"{piece.describe()} is not pure")
    return all(piece.is_simplex and piece.dimension == delta.dimension
               for piece in delta.components)
