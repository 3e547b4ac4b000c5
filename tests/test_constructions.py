import pytest

from conftest import make_ring, presented
from difftrace.constructions import (
    dagger,
    extend_scalars,
    fiber_product,
    predicted_fiber_trace,
    predicted_tensor_trace,
    tensor_product,
    veronese_algebra,
)
from difftrace.groebner import ideal_equals, ideal_intersection
from difftrace.poly import RingSignature, parse_polynomial
from difftrace.rings import AssumptionError
from difftrace.traces import diff_trace, is_nearly_regular, is_regular_via_trace


@pytest.fixture(scope="module")
def factors():
    return {
        "line_x": make_ring(["x"], [1], []),
        "line_t": make_ring(["t"], [1], []),
        "plane_xy": make_ring(["x", "y"], [1, 1], []),
        "plane_yz": make_ring(["y", "z"], [1, 1], []),
        "plane_uv": make_ring(["u", "v"], [1, 1], []),
        "node": make_ring(["x", "y"], [1, 1], ["x*y"]),
        "conic": make_ring(["a", "b", "c"], [1, 1, 1], ["a*c - b^2"]),
        "cusp": make_ring(["a", "b"], [2, 3], ["a^3 - b^2"]),
        "fermat": make_ring(["x", "y", "z"], [1, 1, 1], ["x^3 + y^3 + z^3"]),
    }


TENSOR_PAIRS = [
    ("node", "line_t"),
    ("node", "node"),
    ("conic", "line_t"),
    ("cusp", "line_t"),
    ("node", "plane_uv"),
    ("plane_xy", "line_t"),
]

FIBER_PAIRS = [
    ("line_x", "plane_yz"),  # dimension mismatch, glues a line to a plane
    ("line_x", "line_t"),
    ("node", "line_t"),
    ("plane_xy", "plane_uv"),
    ("fermat", "line_t"),
    ("conic", "plane_uv"),
]


class TestTensorProduct:
    def test_dimension_adds(self, factors):
        for a, b in TENSOR_PAIRS:
            A, B = factors[a], factors[b]
            R = tensor_product(A, B)
            assert R.dimension == A.dimension + B.dimension, (a, b)

    def test_collision_renaming(self, factors):
        R = tensor_product(factors["node"], factors["node"])
        assert R.sig.names == ("x_1", "y_1", "x_2", "y_2")
        assert [str(g) for g in R.defining.gens] == ["x_1*y_1", "x_2*y_2"]

    def test_disjoint_names_kept(self, factors):
        R = tensor_product(factors["node"], factors["line_t"])
        assert R.sig.names == ("x", "y", "t")
        assert [str(g) for g in R.defining.gens] == ["x*y"]

    def test_weights_carried(self, factors):
        R = tensor_product(factors["cusp"], factors["line_t"])
        assert R.sig.weights == (2, 3, 1)

    def test_renaming_collision_rejected(self):
        A = make_ring(["x"], [1], [])
        B = make_ring(["x", "x_2"], [1, 1], [])
        with pytest.raises(ValueError):
            tensor_product(A, B)

    def test_flags_conjunctive(self, factors):
        A = make_ring(["p"], [1], [], reduced=False)
        R = tensor_product(A, factors["line_t"])
        assert not R.asserted_reduced
        assert R.asserted_equidimensional


class TestTensorFormula:
    @pytest.mark.parametrize("a,b", TENSOR_PAIRS)
    def test_predicted_equals_direct(self, factors, a, b):
        A, B = factors[a], factors[b]
        R = tensor_product(A, B)
        predicted = predicted_tensor_trace(A, B, R)
        direct = diff_trace(R, R.dimension)
        assert ideal_equals(predicted, direct)

    @pytest.mark.parametrize("a,b", TENSOR_PAIRS)
    def test_product_equals_intersection(self, factors, a, b):
        # both sides taken as ideals of the product ring, not of its ambient
        A, B = factors[a], factors[b]
        R = tensor_product(A, B)
        ta = extend_scalars(diff_trace(A, A.dimension), R, range(A.nvars))
        tb = extend_scalars(diff_trace(B, B.dimension), R,
                            range(A.nvars, A.nvars + B.nvars))
        product = R.s_ideal(tuple(f * g for f in ta.gens for g in tb.gens))
        assert ideal_equals(product, ideal_intersection(ta, tb))

    def test_nearly_regular_collapses_to_regular(self, factors):
        for a, b in TENSOR_PAIRS:
            A, B = factors[a], factors[b]
            R = tensor_product(A, B)
            both_regular = is_regular_via_trace(A) and is_regular_via_trace(B)
            assert is_nearly_regular(R) == both_regular, (a, b)
            assert is_regular_via_trace(R) == both_regular, (a, b)

    def test_polynomial_extension_detects_regularity(self, factors):
        for name in ("node", "conic", "plane_xy", "cusp"):
            A = factors[name]
            S = tensor_product(A, factors["line_t"])
            assert is_nearly_regular(S) == is_regular_via_trace(A), name

    def test_requires_flags_and_positive_dimension(self, factors):
        point = make_ring(["x"], [1], ["x"])  # zero-dimensional
        with pytest.raises(AssumptionError):
            predicted_tensor_trace(point, factors["line_t"])
        unflagged = make_ring(["p"], [1], [], reduced=False)
        with pytest.raises(AssumptionError):
            predicted_tensor_trace(unflagged, factors["line_t"])


class TestFiberProduct:
    def test_dimension_is_max(self, factors):
        for a, b in FIBER_PAIRS:
            A, B = factors[a], factors[b]
            R = fiber_product(A, B)
            assert R.dimension == max(A.dimension, B.dimension), (a, b)

    def test_mismatch_pair_reproduces_plane_line_cross(self, factors):
        R = fiber_product(factors["line_x"], factors["plane_yz"])
        assert R.sig.names == ("x", "y", "z")
        assert sorted(str(g) for g in R.defining.gens) == ["x*y", "x*z"]
        assert R.dimension == 2
        assert not R.asserted_equidimensional  # dimensions 1 and 2 differ
        assert presented(R, diff_trace(R, 2)) == ["y", "z"]
        assert not is_nearly_regular(R)

    def test_equal_dimensions_keep_equidimensionality(self, factors):
        R = fiber_product(factors["line_x"], factors["line_t"])
        assert R.asserted_equidimensional
        assert [str(g) for g in R.defining.gens] == ["x*t"]

    def test_mixed_products_present(self, factors):
        R = fiber_product(factors["node"], factors["line_t"])
        gens = sorted(str(g) for g in R.defining.gens)
        assert gens == ["x*t", "x*y", "y*t"]


class TestFiberFormula:
    @pytest.mark.parametrize("a,b", FIBER_PAIRS)
    def test_predicted_equals_direct(self, factors, a, b):
        A, B = factors[a], factors[b]
        R = fiber_product(A, B)
        predicted = predicted_fiber_trace(A, B, R)
        direct = diff_trace(R, R.dimension)
        assert ideal_equals(predicted, direct)

    def test_nearly_regular_criterion(self, factors):
        for a, b in FIBER_PAIRS:
            A, B = factors[a], factors[b]
            R = fiber_product(A, B)
            expected = (
                is_nearly_regular(A)
                and is_nearly_regular(B)
                and A.dimension == B.dimension
            )
            assert is_nearly_regular(R) == expected, (a, b)

    def test_requires_reduced(self, factors):
        unflagged = make_ring(["p"], [1], [], reduced=False)
        with pytest.raises(AssumptionError):
            predicted_fiber_trace(unflagged, factors["line_t"])


class TestDagger:
    def test_proper_ideal_unchanged(self, factors):
        node = factors["node"]
        T = diff_trace(node, 1)
        assert dagger(T, node) is T

    def test_unit_ideal_becomes_maximal(self, factors):
        node = factors["node"]
        assert ideal_equals(dagger(node.unit_ideal(), node), node.maximal_ideal)

    def test_zero_ideal_unchanged(self, factors):
        node = factors["node"]
        Z = node.zero_ideal()
        assert dagger(Z, node) is Z


class TestVeronese:
    def test_degree_two_is_quadric_cone(self, factors):
        V = veronese_algebra(factors["plane_xy"], 2)
        assert V.sig.names == ("z0", "z1", "z2")
        assert V.sig.weights == (1, 1, 1)
        assert [str(g) for g in V.defining.gens] == ["z1^2 - z0*z2"]
        assert V.asserted_reduced and V.asserted_equidimensional
        assert V.dimension == 2

    def test_degree_three_is_twisted_cubic_cone(self, factors):
        V = veronese_algebra(factors["plane_xy"], 3)
        assert V.sig.names == ("z0", "z1", "z2", "z3")
        assert [str(g) for g in V.defining.gens] == [
            "z2^2 - z1*z3", "z1*z2 - z0*z3", "z1^2 - z0*z2"
        ]
        assert V.dimension == 2

    def test_degree_one_is_polynomial_ring(self, factors):
        V = veronese_algebra(factors["plane_xy"], 1)
        assert V.sig.names == ("z0", "z1")
        assert V.defining.gens == ()

    def test_relations_vanish_under_monomial_substitution(self, factors):
        V = veronese_algebra(factors["plane_xy"], 3)
        combined = RingSignature(
            ("x", "y") + V.sig.names, (1, 1) + tuple(3 for _ in V.sig.names)
        )
        monomials = ["x^3", "x^2*y", "x*y^2", "y^3"]
        images = {
            0: parse_polynomial("x", combined),
            1: parse_polynomial("y", combined),
        }
        for k, m in enumerate(monomials):
            images[2 + k] = parse_polynomial(m, combined)
        for g in V.defining.gens:
            lifted = parse_polynomial(str(g), combined)
            assert lifted.substitute(images).is_zero

    def test_rejects_quotients_and_weights(self, factors):
        with pytest.raises(AssumptionError):
            veronese_algebra(factors["node"], 2)
        weighted = make_ring(["a", "b"], [2, 3], [])
        with pytest.raises(AssumptionError):
            veronese_algebra(weighted, 2)

    def test_rejects_bad_degree(self, factors):
        with pytest.raises(ValueError):
            veronese_algebra(factors["plane_xy"], 0)
