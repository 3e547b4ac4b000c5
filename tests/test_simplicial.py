import json
from pathlib import Path

import pytest

from difftrace.constructions import fiber_product
from difftrace.groebner import ideal_equals, krull_dimension
from difftrace.rings import AssumptionError
from difftrace.simplicial import (
    MAX_VERTICES,
    SimplicialComplex,
    combinatorial_nearly_regular,
    iso_classes,
    parse_facets,
    stanley_reisner_algebra,
)
from difftrace.traces import is_nearly_regular, is_regular_via_trace
from oracles import canonical_facets, oracle_iso_classes

# the facet lists of iso_classes(5), in order, as the enumerator that
# compared canonical forms over all vertex permutations returned them
ISO_CLASSES = Path(__file__).resolve().parent / "data" / "iso_classes.json"


def C(text):
    return parse_facets(text)


class TestComplexBasics:
    def test_non_maximal_faces_filtered(self):
        delta = SimplicialComplex.from_facets([[1, 2], [1], [2]])
        assert delta.facets == frozenset({frozenset({1, 2})})

    def test_vertex_set_must_match_cover(self):
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets([[1, 2]], vertices=[1, 2, 3])
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets([[1, 2]], vertices=[1])

    def test_rejects_bad_vertices(self):
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets([[0, 1]])
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets([[]])
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets([])

    def test_vertex_budget(self):
        too_many = [[v] for v in range(1, MAX_VERTICES + 2)]
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets(too_many)
        SimplicialComplex.from_facets(too_many[:-1])  # 12 is fine

    def test_dimension_and_purity(self):
        assert C("1 2; 2 3").dimension == 1
        assert C("1 2; 2 3").is_pure
        mixed = C("1 2 3; 3 4")
        assert mixed.dimension == 2
        assert not mixed.is_pure

    def test_faces_and_membership(self):
        path = C("1 2; 2 3")
        assert path.is_face([2])
        assert path.is_face([1, 2])
        assert not path.is_face([1, 3])

    def test_is_simplex(self):
        assert C("1 2 3").is_simplex
        assert not C("1 2; 2 3").is_simplex
        assert C("5").is_simplex


class TestMinimalNonfaces:
    def test_two_disjoint_edges(self):
        assert C("1 2; 3 4").minimal_nonfaces == (
            (1, 3), (1, 4), (2, 3), (2, 4))

    def test_path(self):
        assert C("1 2; 2 3").minimal_nonfaces == ((1, 3),)

    def test_hollow_triangle(self):
        assert C("1 2; 2 3; 1 3").minimal_nonfaces == ((1, 2, 3),)

    def test_simplex_has_none(self):
        assert C("1 2 3 4").minimal_nonfaces == ()


class TestComponentsAndLinks:
    def test_components_split(self):
        pieces = C("1 2; 3 4").components
        assert [p.vertices for p in pieces] == [(1, 2), (3, 4)]
        assert all(p.is_simplex for p in pieces)

    def test_connected(self):
        assert C("1 2; 2 3").is_connected
        assert not C("1 2; 3").is_connected



class TestParsing:
    def test_golden(self):
        delta = parse_facets("1 2; 2 3")
        assert delta.vertices == (1, 2, 3)
        assert delta.facets == frozenset(
            {frozenset({1, 2}), frozenset({2, 3})})

    def test_whitespace_tolerated(self):
        assert parse_facets(" 1  2 ;3 4 ").facets == C("1 2; 3 4").facets

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_facets("1 2;; 3")
        with pytest.raises(ValueError):
            parse_facets("1 a")


class TestFaceRing:
    def test_two_edges_golden(self):
        R = stanley_reisner_algebra(C("1 2; 3 4"))
        assert R.sig.names == ("x1", "x2", "x3", "x4")
        assert R.sig.weights == (1, 1, 1, 1)
        assert [str(g) for g in R.defining.gens] == [
            "x1*x3", "x1*x4", "x2*x3", "x2*x4"]
        assert R.asserted_reduced
        assert R.asserted_equidimensional

    def test_impure_complex_not_equidimensional(self):
        R = stanley_reisner_algebra(C("1 2 3; 3 4"))
        assert R.asserted_reduced
        assert not R.asserted_equidimensional

    @pytest.mark.parametrize("facets", [
        "1", "1 2", "1 2 3", "1 2; 2 3", "1 2; 3 4", "1 2; 2 3; 1 3",
        "1 2 3; 3 4", "1 2 3; 3 4 5",
    ])
    def test_krull_dimension_is_dim_plus_one(self, facets):
        delta = C(facets)
        R = stanley_reisner_algebra(delta)
        assert krull_dimension(R.defining) == delta.dimension + 1

    def test_simplex_gives_polynomial_ring(self):
        R = stanley_reisner_algebra(C("1 2 3"))
        assert R.defining.gens == ()


class TestCombinatorialCriterion:
    @pytest.mark.parametrize("facets,expected", [
        ("1", True),
        ("1 2 3", True),
        ("1 2; 3 4", True),      # two disjoint edges of equal dimension
        ("1 2; 2 3", False),     # connected but not a simplex
        ("1 2; 3", False),       # components of different dimensions
        ("1 2; 2 3; 1 3", False),
        ("1; 2; 3", True),
    ])
    def test_goldens(self, facets, expected):
        assert combinatorial_nearly_regular(C(facets)) == expected

    def test_impure_component_rejected(self):
        with pytest.raises(AssumptionError):
            combinatorial_nearly_regular(C("1 2 3; 3 4"))

    @pytest.mark.parametrize("facets", [
        "1", "1 2", "1 2 3", "1 2; 2 3", "1 2; 3 4", "1 2; 3",
        "1 2; 2 3; 1 3", "1; 2; 3", "1 2 3; 4 5 6",
    ])
    def test_agrees_with_algebraic_check(self, facets):
        delta = C(facets)
        R = stanley_reisner_algebra(delta)
        assert combinatorial_nearly_regular(delta) == is_nearly_regular(R)

    @pytest.mark.parametrize("facets", [
        "1", "1 2", "1 2 3 4", "1 2; 2 3", "1 2; 2 3; 1 3",
    ])
    def test_simplex_iff_regular_for_connected(self, facets):
        delta = C(facets)
        assert delta.is_connected
        R = stanley_reisner_algebra(delta)
        assert delta.is_simplex == is_regular_via_trace(R)


class TestCensusEnumeration:
    def test_small_counts_by_hand(self):
        # n=1: the point.  n=2: edge, two points.  n=3: triangle, path,
        # hollow triangle, edge plus point, three points.
        classes = iso_classes(3)
        by_n = {n: sum(1 for c in classes if len(c.vertices) == n)
                for n in (1, 2, 3)}
        assert by_n == {1: 1, 2: 2, 3: 5}

    def test_every_class_covers_its_vertices(self):
        for c in iso_classes(4):
            assert frozenset().union(*c.facets) == frozenset(c.vertices)

    def test_classes_pairwise_nonisomorphic(self):
        classes = [c for c in iso_classes(4) if len(c.vertices) == 4]
        assert len(classes) == 20
        forms = {canonical_facets(c.facets, c.vertices) for c in classes}
        assert len(forms) == len(classes)

    def test_five_vertex_classes_pairwise_nonisomorphic(self):
        classes = [c for c in iso_classes(5) if len(c.vertices) == 5]
        forms = {canonical_facets(c.facets, c.vertices) for c in classes}
        assert len(forms) == len(classes) == 180

    def test_five_vertex_counts(self):
        classes = iso_classes(5)
        by_n = [sum(1 for c in classes if len(c.vertices) == n)
                for n in range(1, 6)]
        assert by_n == [1, 2, 5, 20, 180]  # OEIS A006602
        assert sum(all(p.is_pure for p in c.components) for c in classes) == 98

    def test_matches_pinned_census(self):
        pinned = json.loads(ISO_CLASSES.read_text())
        assert iso_classes(5) == [SimplicialComplex.from_facets(f) for f in pinned]

    @pytest.mark.parametrize("max_vertices", [1, 2, 3, 4])
    def test_matches_reference_enumerator(self, max_vertices):
        assert iso_classes(max_vertices) == oracle_iso_classes(max_vertices)

    def test_rejects_large_budget(self):
        with pytest.raises(ValueError):
            iso_classes(8)


class TestDecomposition:
    """A disconnected complex's face ring is the fiber product of the
    component face rings, glued at the common origin."""

    @pytest.mark.parametrize("facets", ["1 2; 3 4", "1 2; 3", "1 2 3; 4"])
    def test_two_component_complexes(self, facets):
        delta = C(facets)
        a, b = delta.components
        direct = stanley_reisner_algebra(delta)
        glued = fiber_product(
            stanley_reisner_algebra(a), stanley_reisner_algebra(b))
        assert direct.sig == glued.sig
        assert ideal_equals(direct.defining, glued.defining)
        assert is_nearly_regular(direct) == is_nearly_regular(glued)
