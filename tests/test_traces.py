from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (
    ALL_RINGS,
    PURE_CENSUS,
    RING_FILES,
    build_corpus,
    corpus_powers,
    dense,
    densified,
    make_ring,
    presented,
    ring_powers,
    wedge_shifts,
)
from difftrace import graded
from difftrace.groebner import (
    BudgetExceededError,
    StepBudget,
    ideal_contains,
    ideal_equals,
    ideal_membership,
    normal_form,
    radical_membership,
    step_budget,
)
from difftrace.modsyz import exterior_power_presentation, kernel_columns
from difftrace.poly import Polynomial, parse_polynomial
from difftrace.ringfile import load_ring
from difftrace.rings import AssumptionError, GradedAlgebra
from difftrace.simplicial import stanley_reisner_algebra
from difftrace.traces import (
    diff_trace,
    is_nearly_regular,
    is_regular_via_trace,
    jacobian_matrix,
    kaehler_presentation,
    polynomial_rank,
    radical_equal,
    singular_locus_jacobian,
    singular_locus_trace,
)
from oracles import (
    QuotientSlices,
    oracle_ideal_equal,
    oracle_span_dimension,
    oracle_trace_dimension,
)
from strategies import homogeneous_polynomials, signatures

# the trace oracle compares the trace ideals in degrees up to this
TRACE_ORACLE_MAX_DEGREE = 3


class TestCorpusShape:
    def test_dimensions_match_construction(self, corpus):
        for entry in corpus.values():
            assert entry.algebra.dimension == entry.dim, entry.name

    def test_corpus_is_large_and_varied(self, corpus):
        assert len(corpus) >= 15
        kinds = {e.kind for e in corpus.values()}
        assert {"monomial", "binomial", "hypersurface", "constructed"} <= kinds

    def test_all_reduced(self, corpus):
        assert all(e.algebra.asserted_reduced for e in corpus.values())


class TestDescendingChain:
    def test_chain_on_corpus(self, corpus):
        for entry in corpus.values():
            S = entry.algebra
            for i in range(1, S.dimension + 1):
                upper = diff_trace(S, i + 1)
                lower = diff_trace(S, i)
                assert ideal_contains(lower, upper), (entry.name, i)

    def test_unit_propagation(self, corpus):
        for entry in corpus.values():
            S = entry.algebra
            trivial = [i for i in range(S.dimension + 2)
                       if diff_trace(S, i).is_trivial]
            # the set of powers with unit trace is downward closed
            assert trivial == list(range(len(trivial))), entry.name

    def test_power_zero_is_whole_ring(self, corpus):
        for entry in corpus.values():
            assert diff_trace(entry.algebra, 0).is_trivial

    def test_negative_power_rejected(self, corpus):
        with pytest.raises(ValueError):
            diff_trace(corpus["node"].algebra, -1)


class TestVanishingAboveDimension:
    def test_reduced_corpus(self, corpus):
        for entry in corpus.values():
            S = entry.algebra
            top = diff_trace(S, S.dimension + 1)
            assert ideal_equals(top, S.zero_ideal()), entry.name


class TestEulerContainment:
    def test_variables_in_first_trace(self, corpus):
        for entry in corpus.values():
            S = entry.algebra
            T1 = diff_trace(S, 1)
            for v in S.variables():
                assert ideal_membership(v, T1), entry.name

    def test_equality_exactly_at_rank_zero(self, corpus):
        for entry in corpus.values():
            S = entry.algebra
            equals_m = ideal_equals(diff_trace(S, 1), S.maximal_ideal)
            assert equals_m == (polynomial_rank(S) == 0), entry.name

    def test_euler_column_lies_in_kernel(self, corpus):
        for entry in corpus.values():
            S = entry.algebra
            # the weighted Euler derivation (w_1 x_1, ..., w_n x_n)
            column = [Polynomial.variable(S.sig, i).scale(S.sig.weights[i])
                      for i in range(S.nvars)]
            for rel in kaehler_presentation(S).columns:
                acc = Polynomial.zero(S.sig)
                for t, a in rel.items():
                    acc = acc + a * column[t]
                assert S.reduce(acc).is_zero, entry.name


class TestGoldenTraces:
    def test_plane_line_cross(self, corpus):
        S = corpus["cross"].algebra
        assert S.dimension == 2
        assert presented(S, diff_trace(S, 2)) == ["y", "z"]
        assert presented(S, diff_trace(S, 1)) == ["x", "y", "z"]
        assert oracle_ideal_equal(
            diff_trace(S, 2).gens,
            S.s_ideal(tuple(parse_polynomial(t, S.sig) for t in ("y", "z"))).gens,
            S.sig,
        )

    def test_fermat_cubic(self, corpus):
        S = corpus["fermat"].algebra
        assert S.dimension == 2
        assert presented(S, diff_trace(S, 2)) == ["x^2", "y^2", "z^2"]
        assert not S.contains_maximal_ideal(diff_trace(S, 2))

    def test_node(self, corpus):
        S = corpus["node"].algebra
        assert presented(S, diff_trace(S, 1)) == ["x", "y"]
        assert ideal_equals(diff_trace(S, 1), S.maximal_ideal)


class TestPolynomialRank:
    def test_polynomial_rings(self, corpus):
        for name, d in (("line", 1), ("plane", 2), ("space", 3)):
            S = corpus[name].algebra
            assert polynomial_rank(S) == d
            assert is_regular_via_trace(S)
            assert is_nearly_regular(S)

    def test_rank_zero_cases(self, corpus):
        assert polynomial_rank(corpus["node"].algebra) == 0
        assert polynomial_rank(corpus["cross"].algebra) == 0

    def test_cylinder_over_node(self, corpus):
        # Q[x, y, t]/(xy): one polynomial variable splits off
        S = corpus["node-cylinder"].algebra
        assert S.sig.names == ("x", "y", "t")
        assert [str(g) for g in S.defining.gens] == ["x*y"]
        assert polynomial_rank(S) == 1

    def test_rank_bounded_by_dimension(self, corpus):
        for entry in corpus.values():
            assert 0 <= polynomial_rank(entry.algebra) <= entry.dim


class TestNearlyRegular:
    def test_equivalence_with_trace_containments(self, corpus):
        for entry in corpus.values():
            S = entry.algebra
            expected = all(
                S.contains_maximal_ideal(diff_trace(S, i))
                for i in range(S.dimension + 1)
            )
            assert is_nearly_regular(S) == expected, entry.name

    def test_one_dimensional_rings(self, corpus):
        for entry in corpus.values():
            if entry.dim == 1:
                assert is_nearly_regular(entry.algebra), entry.name

    def test_golden_classifications(self, corpus):
        nearly = {
            "line": True, "plane": True, "space": True,
            "node": True, "cross": False, "fermat": False,
            "conic": True, "quadric": True, "whitney": False,
            "cusp": True, "three-points": True, "two-edges": True,
            "veronese2": True, "veronese3": False,
        }
        for name, expected in nearly.items():
            assert is_nearly_regular(corpus[name].algebra) == expected, name


class TestRegularity:
    def test_needs_reduced_flag(self):
        S = make_ring(["x", "y"], [1, 1], ["x^2"], reduced=False)
        with pytest.raises(AssumptionError):
            is_regular_via_trace(S)

    def test_golden(self, corpus):
        regular = {
            "line": True, "plane": True, "space": True,
            "node": False, "fermat": False, "conic": False,
            "cusp": False, "whitney": False, "quadric": False,
        }
        for name, expected in regular.items():
            assert is_regular_via_trace(corpus[name].algebra) == expected, name

    def test_regular_implies_nearly_regular(self, corpus):
        for entry in corpus.values():
            if is_regular_via_trace(entry.algebra):
                assert is_nearly_regular(entry.algebra), entry.name


class TestSingularLocus:
    @pytest.mark.parametrize("name", ["fermat", "node", "conic", "whitney",
                                      "cusp", "quadric"])
    def test_trace_and_jacobian_loci_agree_up_to_radical(self, corpus, name):
        S = corpus[name].algebra
        assert radical_equal(singular_locus_trace(S), singular_locus_jacobian(S))

    def test_whitney_trace_generators(self, corpus):
        # weighted grading: wt(x) = wt(z) = 2, wt(y) = 1; the locus is the
        # z-axis, so the trace cannot reach the maximal ideal
        S = corpus["whitney"].algebra
        assert presented(S, diff_trace(S, 2)) == ["x", "y^2", "y*z"]

    def test_jacobian_matrix_shape(self, corpus):
        S = corpus["fermat"].algebra
        M = jacobian_matrix(S)
        assert len(M) == 3 and len(M[0]) == 1
        assert str(M[0][0]) == "3*x^2"

    def test_requires_flags(self, corpus):
        with pytest.raises(AssumptionError):
            singular_locus_trace(corpus["cross"].algebra)

    def test_wrong_flags_give_honest_disagreement(self):
        # same ideal as the plane-line cross, but equidimensionality is
        # asserted falsely: the two singular-locus descriptions now differ
        forced = make_ring(["x", "y", "z"], [1, 1, 1], ["x*y", "x*z"],
                           reduced=True, equidim=True)
        assert not radical_equal(
            singular_locus_trace(forced), singular_locus_jacobian(forced)
        )

    def test_isolated_singularities(self, corpus):
        # isolated: the radical of the top trace holds every variable
        def isolated(S):
            top = singular_locus_trace(S)
            return all(radical_membership(x, top) for x in S.variables())

        assert isolated(corpus["fermat"].algebra)
        assert isolated(corpus["conic"].algebra)
        assert isolated(corpus["node"].algebra)
        assert not isolated(corpus["whitney"].algebra)
        assert not isolated(corpus["plane-pair"].algebra)


class TestSliceWitness:
    """A kernel column of the transposed Jacobian is a derivation D of S.

    An entry D(x_i) = c that is a nonzero constant gives the slice
    t = x_i / c with D(t) = 1, a certificate that the polynomial rank is
    positive, found without `polynomial_rank`.
    """

    @staticmethod
    def _witness(S):
        for column in densified(kernel_columns(kaehler_presentation(S)), S.nvars, S.sig):
            images = [S.reduce(entry) for entry in column]
            for i, entry in enumerate(images):
                if entry.terms and entry.is_constant():
                    (value,) = entry.terms.values()
                    return images, i, Polynomial.variable(S.sig, i).scale(1 / value)
        return None

    def _verify(self, S, witness):
        # the induced derivation must send the slice to 1 in the quotient
        images, _, slice_poly = witness
        acc = Polynomial.zero(S.sig)
        for i, image in enumerate(images):
            acc = acc + image * slice_poly.partial_derivative(i)
        assert S.reduce(acc - S.one()).is_zero

    def test_polynomial_ring(self, corpus):
        S = corpus["space"].algebra
        w = self._witness(S)
        assert w is not None
        assert w[1] == 0
        assert str(w[2]) == "x"
        self._verify(S, w)

    def test_cylinder(self, corpus):
        S = corpus["node-cylinder"].algebra
        w = self._witness(S)
        assert w is not None
        assert str(w[2]) == "t"
        self._verify(S, w)

    def test_none_when_rank_zero(self, corpus):
        assert self._witness(corpus["node"].algebra) is None
        assert self._witness(corpus["cross"].algebra) is None

    def test_witness_exactly_when_positive_rank(self, corpus):
        for entry in corpus.values():
            S = entry.algebra
            w = self._witness(S)
            assert (w is not None) == (polynomial_rank(S) >= 1), entry.name
            if w is not None:
                self._verify(S, w)


class TestTraceReporting:
    def test_presented_generators_are_oracle_equal(self, corpus):
        # the pretty generating set and the raw one agree as ideals
        for name in ("cross", "fermat", "conic"):
            S = corpus[name].algebra
            T = diff_trace(S, S.dimension)
            shown = S.presented_generators(T)
            lifted = S.s_ideal(shown)
            assert ideal_equals(lifted, T)
            assert oracle_ideal_equal(lifted.gens, T.gens, S.sig)

    def test_trace_generators_reduced_mod_defining(self, corpus):
        S = corpus["conic"].algebra
        for g in S.presented_generators(diff_trace(S, 2)):
            assert normal_form(g, S.defining) == g


class TestBudgetAbortLeavesNoPoisonedCache:
    @pytest.mark.parametrize("limit", [1, 5, 50, 500])
    @pytest.mark.parametrize("path", RING_FILES, ids=lambda p: p.stem)
    def test_retry_after_abort_matches_fresh_algebra(self, path, limit):
        """A top trace cut off by the step budget (or finished within it),
        then asked again without a limit, gives the presented generators
        of a fresh algebra."""
        algebra = load_ring(str(path)).algebra
        try:
            with step_budget(limit):
                diff_trace(algebra, algebra.dimension)
        except BudgetExceededError:
            pass
        fresh = load_ring(str(path)).algebra
        top = fresh.dimension
        assert presented(algebra, diff_trace(algebra, top)) == \
            presented(fresh, diff_trace(fresh, top))

    @pytest.mark.parametrize("limit", [1, 5, 50, 500])
    @pytest.mark.parametrize("path", RING_FILES, ids=lambda p: p.stem)
    def test_yes_no_retry_after_abort_matches_fresh_algebra(self, path, limit):
        """is_nearly_regular and polynomial_rank cut off by the step budget
        (or finished within it), then asked again without a limit, answer
        as on a fresh algebra."""
        algebra = load_ring(str(path)).algebra
        for question in (is_nearly_regular, polynomial_rank):
            try:
                with step_budget(limit):
                    question(algebra)
            except BudgetExceededError:
                pass
        fresh = load_ring(str(path)).algebra
        for question in (is_nearly_regular, polynomial_rank):
            assert question(algebra) == question(fresh), question.__name__

    @pytest.mark.parametrize("stem, question", [("plane", polynomial_rank),
                                                 ("quadric", is_nearly_regular),
                                                 ("twisted", is_nearly_regular)])
    def test_graded_solve_counts_against_the_budget(self, stem, question):
        """With the dimension known, the graded solve ticks the budget, and a
        budget with one step too few left aborts it.  The pieces of I of the
        twisted cubic's cone are not spanned by monomials."""
        path = next(p for p in ALL_RINGS if p.stem == stem)
        algebra = load_ring(str(path)).algebra
        algebra.dimension
        with step_budget(10 ** 9) as budget:
            expected = question(algebra)
        assert budget.used >= 1
        with pytest.raises(BudgetExceededError):
            with step_budget(budget.used) as short:
                short.tick()
                question(algebra)
        assert question(algebra) == expected
        assert not algebra._trace_cache


def _graded_answers(S):
    """Nearly-regular, regular (None without the reduced flag) and the
    polynomial rank, on an algebra with no trace cached: each is solved on
    graded pieces, and no trace is left cached."""
    assert not S._trace_cache
    regular = is_regular_via_trace(S) if S.asserted_reduced else None
    answers = (is_nearly_regular(S), regular, polynomial_rank(S))
    assert not S._trace_cache
    return answers


def _groebner_answers(S):
    """The same three answers, read from diff_trace handles."""
    top = diff_trace(S, S.dimension)
    regular = top.is_trivial if S.asserted_reduced else None
    rank = next((k for k in range(S.dimension, 0, -1)
                 if diff_trace(S, k).is_trivial), 0)
    return S.contains_maximal_ideal(top), regular, rank


class TestGradedAnswersMatchGroebner:
    """The yes/no questions solved on graded pieces against the answers read
    from the whole traces, each side on its own fresh algebra so that no
    cached trace can make them agree."""

    @pytest.mark.parametrize("path", RING_FILES, ids=lambda p: p.stem)
    def test_ring_files(self, path):
        assert _graded_answers(load_ring(str(path)).algebra) == \
            _groebner_answers(load_ring(str(path)).algebra)

    def test_conftest_corpus(self):
        graded, whole = build_corpus(), build_corpus()
        for name in graded:
            assert _graded_answers(graded[name].algebra) == \
                _groebner_answers(whole[name].algebra), name

    @pytest.mark.parametrize("index", range(len(PURE_CENSUS)))
    def test_census(self, index):
        delta = PURE_CENSUS[index]
        assert _graded_answers(stanley_reisner_algebra(delta)) == \
            _groebner_answers(stanley_reisner_algebra(delta)), delta.describe()


def _assert_trace_slices_match_oracle(algebra, k):
    """Degree by degree, diff_trace read in R, and the trace piece of the
    graded solver, have the dimension of the span of the kernel entries
    solved as a linear system over Q."""
    sig, gens = algebra.sig, algebra.defining.gens
    P = exterior_power_presentation(kaehler_presentation(algebra), k)
    shifts = wedge_shifts(sig, k)
    quotient = QuotientSlices(gens, sig)
    solver = graded._Quotient(algebra, StepBudget())
    entries = graded._relation_entries(P, shifts)
    trace = [(g,) for g in diff_trace(algebra, k).gens]
    for degree in range(TRACE_ORACLE_MAX_DEGREE + 1):
        expected = oracle_trace_dimension(dense(P), shifts, quotient, degree)
        assert oracle_span_dimension(trace, [0], quotient, degree) == expected, degree
        assert len(graded._trace_piece(entries, shifts, solver, degree)) == expected, \
            degree


class TestTraceIdealOracle:
    @pytest.mark.parametrize("path, k", ring_powers())
    def test_degree_slices_match_linear_algebra(self, path, k):
        _assert_trace_slices_match_oracle(load_ring(str(path)).algebra, k)

    @pytest.mark.parametrize("name, k", corpus_powers())
    def test_corpus_degree_slices_match_linear_algebra(self, corpus, name, k):
        _assert_trace_slices_match_oracle(corpus[name].algebra, k)


class TestGradedQuotientOracle:
    @given(st.data())
    def test_basis_and_coordinates_match_the_slices(self, data):
        """The graded solver's R_d, on an ideal that is not monomial, has the
        standard monomials of the Fraction slices as its basis, and gives an
        element the same coordinates on them."""
        sig = data.draw(signatures())
        gens = data.draw(st.lists(homogeneous_polynomials(sig, max_degree=3,
                                                          max_terms=3),
                                  min_size=1, max_size=3))
        assume(any(len(g.terms) > 1 for g in gens))
        p = data.draw(homogeneous_polynomials(sig, max_degree=5))
        degree = p.homogeneous_degree()
        solver = graded._Quotient(GradedAlgebra(sig, gens), StepBudget())
        oracle = QuotientSlices(gens, sig)
        terms = dict(p.terms)
        assert solver.coordinates(p.terms, degree) == oracle.reduce(p)
        assert p.terms == terms
        for d in range(degree + 1):
            assert solver.basis(d) == oracle.basis(d), d


def _assert_exact(values, where):
    """Every value is an int or a Fraction: exact, and never a float."""
    kinds = {type(v) for v in values}
    assert kinds <= {int, Fraction}, (where, kinds)


def _exact_test_ring(name):
    """umbrella and twisted have fractional coefficients; the pieces of I
    of lead-two lead with 2 (x^2) and with -1 (x*y), so _insert divides
    and negates."""
    if name == "lead-two":
        return make_ring(["x", "y", "z"], [1, 1, 1], ["2*x^2 - y*z", "-x*y + z^2"])
    return load_ring(str(next(p for p in ALL_RINGS if p.stem == name))).algebra


class TestGradedSolverIsExact:
    def test_insert_keeps_ints_until_a_division(self):
        pivots = {}
        graded._insert(pivots, {3: -1, 1: 2}, StepBudget())
        assert pivots == {3: {3: 1, 1: -2}}
        assert all(type(v) is int for v in pivots[3].values())
        graded._insert(pivots, {5: 2, 0: 1}, StepBudget())
        assert pivots[5] == {5: 1, 0: Fraction(1, 2)}
        assert all(type(v) is Fraction for v in pivots[5].values())

    @pytest.mark.parametrize("name", ["umbrella", "twisted", "lead-two"])
    def test_every_stored_value_is_exact(self, name):
        """Tails, coordinates, kernels and trace pieces on rings with
        fractional or non-unit lead coefficients hold only ints and
        Fractions, and still match the Fraction slices."""
        algebra = _exact_test_ring(name)
        sig, gens = algebra.sig, algebra.defining.gens
        oracle = QuotientSlices(gens, sig)
        solver = graded._Quotient(algebra, StepBudget())
        for k in range(1, algebra.dimension + 1):
            P = exterior_power_presentation(kaehler_presentation(algebra), k)
            shifts = wedge_shifts(sig, k)
            entries = graded._relation_entries(P, shifts)
            for at_t in entries:
                for _, terms, _ in at_t:
                    _assert_exact(terms.values(), "relation entry")
            for degree in range(TRACE_ORACLE_MAX_DEGREE + 1):
                for shift in set(shifts):
                    for vector in graded._kernel(entries, shifts, solver, degree - shift):
                        _assert_exact(vector.values(), ("kernel", k, degree - shift))
                piece = graded._trace_piece(entries, shifts, solver, degree)
                assert len(piece) == oracle_trace_dimension(dense(P), shifts, oracle,
                                                            degree), (k, degree)
                for row in piece.values():
                    _assert_exact(row.values(), ("trace piece", k, degree))
        for degree in range(TRACE_ORACLE_MAX_DEGREE + 2):
            for tail in solver.tails(degree).values():
                _assert_exact(tail.values(), ("tails", degree))
            monomials = graded.monomials_of_weighted_degree(sig, degree)
            p = Polynomial(sig, {m: Fraction(i + 1, 3) for i, m in enumerate(monomials)})
            if p.is_zero:
                continue
            coordinates = solver.coordinates(graded._exact(p.terms), degree)
            assert coordinates == oracle.reduce(p), degree
            _assert_exact(coordinates.values(), ("coordinates", degree))
