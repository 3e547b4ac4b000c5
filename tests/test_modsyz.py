import itertools
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense, make_ring, ring_powers, sparse, vector_remainder, wedge_shifts
from oracles import (
    QuotientSlices,
    oracle_column_rank,
    oracle_in_kernel,
    oracle_in_span,
    oracle_kernel_dimension,
    oracle_module_groebner,
    oracle_span_dimension,
    oracle_vector_reduce,
)
from difftrace.groebner import ideal_equals, normal_form, step_budget
from difftrace.modsyz import (
    ModulePresentation,
    exterior_power_presentation,
    fitting_ideal,
    free_presentation,
    kernel_columns,
    matrix_minors,
    syzygies,
    trace_ideal,
)
from difftrace.groebner import default_order
from difftrace.poly import Polynomial, RingSignature, parse_many, parse_polynomial
from difftrace.ringfile import load_ring
from difftrace.traces import _column_basis, diff_trace, kaehler_presentation

# the oracle solves the kernel in degrees up to this (a map of degree delta
# sends e_T, of degree sum(w_i for i in T), to an element of degree
# delta + deg e_T)
KERNEL_ORACLE_MAX_DELTA = 4

XY = RingSignature.standard("x", "y")
TWISTED = Path(__file__).resolve().parent / "data" / "rings" / "twisted.ring"


def residue(p, algebra):
    return normal_form(p, algebra.defining)


def block_sum(P: ModulePresentation, Q: ModulePresentation) -> ModulePresentation:
    """Block-diagonal presentation of the direct sum of P and Q."""
    cols = list(P.columns)
    cols += [{P.target_rank + t: e for t, e in col.items()} for col in Q.columns]
    return ModulePresentation(P.algebra, P.target_rank + Q.target_rank, tuple(cols))


def column_in_kernel(column, P: ModulePresentation) -> bool:
    """Directly check the defining equations: every relation pairs to zero."""
    algebra = P.algebra
    for rel in dense(P):
        acc = Polynomial.zero(algebra.sig)
        for a, w in zip(rel, column):
            acc = acc + a * w
        if not residue(acc, algebra).is_zero:
            return False
    return True


@pytest.fixture(scope="module")
def node():
    return make_ring(["x", "y"], [1, 1], ["x*y"])


@pytest.fixture(scope="module")
def conic():
    return make_ring(["a", "b", "c"], [1, 1, 1], ["a*c - b^2"])


class TestVector:
    def test_lead_prefers_low_position(self):
        order = default_order(XY)
        y, x5 = parse_polynomial("y", XY), parse_polynomial("x^5", XY)
        basis = [{0: y, 1: x5}]
        # the lead is y at position 0, so y e_0 reduces and x^5 e_1 does not
        assert vector_remainder({0: y}, basis, order) == {1: -x5}
        assert vector_remainder({1: x5}, basis, order) == {1: x5}

    def test_zero_components_dropped(self):
        order = default_order(XY)
        zero, x = Polynomial.zero(XY), parse_polynomial("x", XY)
        basis = [{0: x, 1: Polynomial.one(XY)}]
        assert vector_remainder({0: zero, 1: x}, [], order) == {1: x}
        assert vector_remainder({}, basis, order) == {}


class TestSyzygies:
    def test_koszul_over_polynomial_ring(self):
        plane = make_ring(["x", "y"], [1, 1], [])
        rows = [parse_many(["x", "y"], XY)]
        K = syzygies(sparse(rows), plane, 2)
        koszul = tuple(parse_many(["y", "-x"], XY))
        quotient = QuotientSlices([], XY)
        assert oracle_in_span(koszul, K, [0, 0], quotient)
        for col in K:
            assert oracle_in_span(col, [koszul], [0, 0], quotient)

    def test_coprime_leads_of_module_pairs_are_not_skipped(self):
        # (x, 1, 0) and (y, 0, 1) lead with the coprime x and y, but
        # y*(x, 1, 0) - x*(y, 0, 1) = (0, y, -x) is not zero: it is the kernel
        plane = make_ring(["x", "y"], [1, 1], [])
        K = syzygies(sparse([parse_many(["x", "y"], XY)]), plane, 2)
        assert [[str(e) for e in col] for col in K] == [["y", "-x"]]

    def test_node_kernel_exact(self, node):
        rows = [parse_many(["y", "x"], XY)]
        K = syzygies(sparse(rows), node, 2)
        assert [[str(e) for e in col] for col in K] == [["0", "y"], ["x", "0"]]

    def test_sorted_and_deduplicated(self, node):
        rows = [parse_many(["y", "x"], XY)]
        K = syzygies(sparse(rows), node, 2)
        keys = [tuple(str(e) for e in col) for col in K]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


# the rings of the differential test: one with an empty defining ideal, and
# one whose listed generators are neither monic nor a Groebner basis.  Over
# the conic the entries are kept homogeneous for the reference: drawn
# inhomogeneous there, 300 examples took `syzygies` at most 40 ms each and
# never its budget, but the plain Fraction Buchberger of
# `oracles.oracle_module_groebner` ran past 20 s on two of them.
DIFF_RINGS = (
    make_ring(["x", "y"], [1, 1], ["x*y"]),
    make_ring(["a", "b", "c"], [1, 1, 1], ["a*c - b^2"]),
    make_ring(["x", "y"], [1, 1], []),
    make_ring(["x", "y"], [1, 1], ["2*x^2 - 2*y^2", "x*y"]),
)
CONIC = DIFF_RINGS[1]
# the step budget of one kernel of the differential test
EXAMPLE_STEPS = 1_000


def module_syzygies(rows, algebra, q):
    """The kernel columns as Singular's `modulo` reads them, with no code of
    the engine: the reduced module Groebner basis, by
    `oracles.oracle_module_groebner`, of the (B e_j, e_j) and the (f e_r, 0),
    for f in the listed generators; the elements with no component below p,
    each entry in normal form modulo the defining ideal's reduced basis from
    the same reference, without duplicates, sorted by their strings."""
    sig = algebra.sig
    key = default_order(sig).key
    p = len(rows)
    gens = [{**{i: rows[i][j] for i in range(p)}, p + j: Polynomial.one(sig)}
            for j in range(q)]
    gens += [{r: f} for f in algebra.defining.gens for r in range(p)]
    defining = oracle_module_groebner([{0: f} for f in algebra.defining.gens], key)
    zero = Polynomial.zero(sig)
    columns = []
    for g in oracle_module_groebner(gens, key):
        if any(pos < p for pos in g):
            continue
        column = tuple(oracle_vector_reduce({0: g.get(p + j, zero)}, defining, key)[0]
                       .get(0, zero) for j in range(q))
        if any(not e.is_zero for e in column) and column not in columns:
            columns.append(column)
    return sorted(columns, key=lambda col: tuple(str(e) for e in col))


@st.composite
def small_matrices(draw):
    """A ring of DIFF_RINGS and a p x q matrix over it, p and q in 1..3,
    with entries of at most two terms, homogeneous only over the conic."""
    algebra = draw(st.sampled_from(DIFF_RINGS))
    sig = algebra.sig
    term = st.tuples(st.tuples(*(st.integers(0, 2) for _ in range(sig.nvars))),
                     st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                                      Fraction(-3, 2), Fraction(5, 3)]))
    entry = st.lists(term, max_size=2).map(
        lambda items: sum((Polynomial.monomial(sig, e, c) for e, c in items
                           if algebra is not CONIC or sum(e) == sum(items[0][0])),
                          Polynomial.zero(sig)))
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [[draw(entry) for _ in range(q)] for _ in range(p)]
    return algebra, rows, q


class TestSyzygiesAgainstModuleBasis:
    """syzygies runs a signature-based loop over I*S^p and I*S^q; it must
    give the columns, in order, of the plain module basis."""

    @settings(max_examples=150)
    @given(small_matrices())
    def test_columns_equal_module_reference(self, case):
        algebra, rows, q = case
        # the largest example takes 21 steps: the budget turns a runaway
        # kernel into a failure within seconds
        with step_budget(EXAMPLE_STEPS):
            columns = syzygies(sparse(rows), algebra, q)
        assert columns == module_syzygies(rows, algebra, q)

    def test_reduction_only_below_the_signature(self):
        """Over the conic: reducing a value lead by a reducer whose multiplied
        signature is not below the element's loses the first column (seen
        with a random search; the derandomized examples above miss it)."""
        rows = [parse_many(["c", "1", "b*c"], CONIC.sig),
                parse_many(["0", "1", "1"], CONIC.sig)]
        K = syzygies(sparse(rows), CONIC, 3)
        assert [[str(e) for e in col] for col in K] == [
            ["a*c^2 - b", "b*c", "-b*c"], ["b*c - 1", "c", "-c"]]
        assert K == module_syzygies(rows, CONIC, 3)

    @pytest.mark.parametrize("row, expected", [
        (["y", "y"], [["0", "x"], ["0", "y^2"], ["1", "-1"]]),
        (["x", "1"], [["1", "-x"]]),
    ])
    def test_over_unreduced_generators(self, row, expected):
        """Over Q[x, y]/(2x^2 - 2y^2, xy), whose reduced basis adds y^3."""
        algebra = DIFF_RINGS[3]
        rows = [parse_many(row, algebra.sig)]
        K = syzygies(sparse(rows), algebra, 2)
        assert K == module_syzygies(rows, algebra, 2)
        assert [[str(e) for e in col] for col in K] == expected


class TestTagPass:
    def test_kernel_element_at_a_defining_lead(self):
        """Over Q[x, y]/(x^3 - y^2), weights 2 and 3, x^3 leads the defining
        generator.  The reduced kernel basis of the row (1, y) holds
        x^3 e_0 - y e_1, which leads at that defining lead and is not the
        seed (x^3 - y^2) e_0; reduced modulo I it gives (y^2, -y)."""
        cusp = make_ring(["x", "y"], [2, 3], ["x^3 - y^2"])
        rows = [parse_many(["1", "y"], cusp.sig)]
        K = syzygies(sparse(rows), cusp, 2)
        assert [[str(e) for e in col] for col in K] == [["y", "-1"], ["y^2", "-y"]]
        assert K == module_syzygies(rows, cusp, 2)


class TestCoefficientGrowth:
    """Kernels of inhomogeneous rows, where integer coefficients can grow
    with every pair taken."""

    def test_inhomogeneous_row(self):
        """The row (yz^2 + z^2, 5/3 y^2 z - 3/2 y, 2xy^2 z - 3/2 yz) over
        Q[x, y, z]/(x^2 - yz, xy - z^2)."""
        algebra = make_ring(["x", "y", "z"], [1, 1, 1], ["x^2 - y*z", "x*y - z^2"])
        rows = [parse_many(["y*z^2 + z^2", "5/3*y^2*z - 3/2*y",
                            "2*x*y^2*z - 3/2*y*z"], algebra.sig)]
        # a pair loop without signatures took 795 steps here
        with step_budget(10 ** 6) as budget:
            K = syzygies(sparse(rows), algebra, 3)
        assert budget.used == 32
        assert [[str(e) for e in col] for col in K] == [
            ["0", "0", "y^2 - x*z"],
            ["0", "z^3 - 3/4*z", "-5/6*y*z + 3/4"],
            ["1", "1000/819*x*z^2 + 400/273*y*z^2 + 100/91*x*z + 120/91*y*z"
                  " + 144/91*z^2 + 2/3*x + 120/91*z",
             "-1000/819*x*z - 2500/2457*z^2 - 100/91*x - 120/91*y"
             " - 250/273*z - 120/91"]]


def scaled(column, c):
    return {t: e.scale(c) for t, e in column.items()}


def combined(a, b, c):
    """a + c * b, entry by entry, keeping the nonzero sums."""
    sums = dict(a)
    for t, e in b.items():
        sums[t] = sums[t] + e.scale(c) if t in sums else e.scale(c)
    return {t: sums[t] for t in sorted(sums) if not sums[t].is_zero}


def independent_prefix(columns) -> list:
    """The columns that are not Q-combinations of the ones before them."""
    return [col for i, col in enumerate(columns)
            if oracle_column_rank(columns[:i + 1]) > oracle_column_rank(columns[:i])]


def assert_same_kernel(P: ModulePresentation, padded: ModulePresentation):
    """padded holds P's columns and dependent ones: its column basis keeps
    exactly the first independent columns, and the kernel columns and trace
    generators of padded, of that basis and of P agree, in order."""
    basis = _column_basis(padded)
    assert dense(basis) == independent_prefix(dense(padded))
    assert len(basis.columns) == oracle_column_rank(dense(P))
    K = kernel_columns(P)
    assert kernel_columns(basis) == K
    assert kernel_columns(padded) == K
    gens = trace_ideal(P).gens
    assert trace_ideal(basis).gens == gens
    assert trace_ideal(padded).gens == gens


WEDGE_RINGS = (
    make_ring(["x", "y"], [1, 1], ["x*y"]),
    make_ring(["x", "y"], [2, 3], ["x^3 - y^2"]),
    make_ring(["a", "b", "c"], [1, 1, 1], ["a*c - b^2"]),
    make_ring(["x", "y", "z"], [1, 1, 1], ["x*y", "x*z"]),
)
WEDGES = tuple(exterior_power_presentation(kaehler_presentation(algebra), k)
               for algebra in WEDGE_RINGS for k in range(1, algebra.nvars + 1))


@st.composite
def padded_wedges(draw):
    """A wedge presentation of the differentials, and the same presentation
    with a repeated column, a scalar multiple of a column and a
    Q-combination of two columns inserted among its columns."""
    P = draw(st.sampled_from(WEDGES))
    columns = list(P.columns)
    pick = st.sampled_from(P.columns)
    scalar = st.sampled_from([Fraction(-1), Fraction(2), Fraction(-3, 2), Fraction(5, 3)])
    extra = [draw(pick), scaled(draw(pick), draw(scalar)),
             combined(draw(pick), draw(pick), draw(scalar))]
    for column in extra:
        columns.insert(draw(st.integers(0, len(columns))), column)
    return P, ModulePresentation(P.algebra, P.target_rank, tuple(columns))


class TestColumnBasis:
    """The kernel depends only on the span of the relation columns, so
    diff_trace hands trace_ideal the first Q-independent ones."""

    @settings(max_examples=100, deadline=None)
    @given(padded_wedges())
    def test_dependent_columns_change_nothing(self, case):
        assert_same_kernel(*case)

    def test_twisted_cubic_wedge(self):
        """The third wedge of the twisted cubic's differentials has 18
        relation columns of Q-rank 15; three more dependent ones are
        inserted, one of them ahead of the columns it repeats."""
        algebra = load_ring(str(TWISTED)).algebra
        P = exterior_power_presentation(kaehler_presentation(algebra), 3)
        c = P.columns
        assert (len(c), oracle_column_rank(dense(P))) == (18, 15)
        padded = list(c)
        padded.insert(0, c[5])
        padded.insert(3, scaled(c[0], Fraction(-3, 2)))
        padded.insert(8, combined(c[2], c[7], Fraction(5, 3)))
        assert_same_kernel(P, ModulePresentation(algebra, P.target_rank, tuple(padded)))
        assert diff_trace(algebra, 3).gens == trace_ideal(P).gens


class TestKernelCompleteness:
    def test_node_exhaustive_degree_two(self, node):
        """Every vector with entries of degree <= 2 satisfying the kernel
        equation lies in the span of the returned generators, and conversely."""
        P = kaehler_presentation(node)
        K = kernel_columns(P)
        quotient = QuotientSlices(node.defining.gens, node.sig)
        monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        coefs = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
        checked_members = 0
        for (c1, m1), (c2, m2) in itertools.product(
            itertools.product(coefs, monos), repeat=2
        ):
            v = (Polynomial.monomial(XY, m1, c1), Polynomial.monomial(XY, m2, c2))
            in_kernel = column_in_kernel(v, P)
            assert oracle_in_span(v, K, [1, 1], quotient) == in_kernel
            checked_members += in_kernel
        assert checked_members > 10

    def test_random_combinations_recognized(self, conic):
        P = kaehler_presentation(conic)
        K = kernel_columns(P)
        sig = conic.sig
        quotient = QuotientSlices(conic.defining.gens, sig)
        rng = random.Random(11)
        monos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for _ in range(20):
            v = [Polynomial.zero(sig)] * P.target_rank
            for col in K:
                c = Polynomial.monomial(sig, rng.choice(monos),
                                        Fraction(rng.randint(-3, 3)))
                v = [acc + c * entry for acc, entry in zip(v, col)]
            assert column_in_kernel(tuple(v), P)
            assert oracle_in_span(tuple(v), K, [1, 1, 1], quotient)


class TestKernelCompletenessOracle:
    @pytest.mark.parametrize("path, k", ring_powers())
    def test_span_equals_linear_algebra_kernel(self, path, k):
        """Degree by degree, the R-span of kernel_columns of the k-th wedge
        of the differentials has the dimension of the kernel solved as a
        linear system over Q, and every column lies in that kernel."""
        algebra = load_ring(str(path)).algebra
        sig, gens = algebra.sig, algebra.defining.gens
        P = exterior_power_presentation(kaehler_presentation(algebra), k)
        K = kernel_columns(P)
        relations = dense(P)
        assert all(oracle_in_kernel(g, relations, gens, sig) for g in K)
        shifts = wedge_shifts(sig, k)
        quotient = QuotientSlices(gens, sig)
        for delta in range(-max(shifts), KERNEL_ORACLE_MAX_DELTA + 1):
            expected = oracle_kernel_dimension(relations, shifts, quotient, delta)
            assert oracle_span_dimension(K, shifts, quotient, delta) == expected, delta


class TestKernelSoundness:
    def test_corpus_kaehler_kernels(self, corpus):
        for entry in corpus.values():
            algebra = entry.algebra
            for k in (1, 2):
                P = exterior_power_presentation(
                    kaehler_presentation(algebra), k
                )
                for col in kernel_columns(P):
                    assert column_in_kernel(col, P), (entry.name, k)


def dense_wedge(P: ModulePresentation, k: int) -> tuple[int, list[tuple]]:
    """The target rank and full-tuple relation columns of the k-th wedge,
    built on P's columns as full tuples: each column against each
    (k-1)-subset T' in lex order, e_i landing on T' + {i} with the sign
    (-1)^(number of t in T' with t > i), and zero columns left out."""
    m = P.target_rank
    if k == 0:
        return 1, []
    subsets = list(itertools.combinations(range(m), k))
    zero = Polynomial.zero(P.algebra.sig)
    out = []
    for prefix in itertools.combinations(range(m), k - 1):
        for col in dense(P):
            wedged = [zero] * len(subsets)
            for i, entry in enumerate(col):
                if i not in prefix:
                    odd = sum(1 for t in prefix if t > i) % 2
                    wedged[subsets.index(tuple(sorted(prefix + (i,))))] = (
                        -entry if odd else entry)
            if any(not e.is_zero for e in wedged):
                out.append(tuple(wedged))
    return len(subsets), out


class TestExteriorPower:
    def test_free_ranks_are_binomials(self):
        plane = make_ring(["x", "y"], [1, 1], [])
        for m in range(5):
            F = free_presentation(plane, m)
            for k in range(m + 2):
                E = exterior_power_presentation(F, k)
                assert E.target_rank == comb(m, k)
                assert E.columns == ()

    def test_zeroth_power_is_ring(self, node):
        E = exterior_power_presentation(kaehler_presentation(node), 0)
        assert E.target_rank == 1 and E.columns == ()

    def test_above_rank_vanishes(self, node):
        E = exterior_power_presentation(kaehler_presentation(node), 3)
        assert E.target_rank == 0

    def test_node_square_relations(self, node):
        E = exterior_power_presentation(kaehler_presentation(node), 2)
        assert E.target_rank == 1
        assert [{t: str(e) for t, e in col.items()} for col in E.columns] == [
            {0: "x"}, {0: "-y"}]

    def test_wedge_equals_dense_construction(self, corpus):
        """On every corpus ring and power, the wedge's columns, read as full
        tuples, are those of the dense construction, in order."""
        for entry in corpus.values():
            P = kaehler_presentation(entry.algebra)
            for k in range(P.target_rank + 2):
                E = exterior_power_presentation(P, k)
                rank, columns = dense_wedge(P, k)
                assert E.target_rank == rank, (entry.name, k)
                assert dense(E) == columns, (entry.name, k)

    def test_kaehler_column_holds_only_nonzero_partials(self):
        space = make_ring(["x", "y", "z"], [1, 1, 1], ["x*y"])
        (column,) = kaehler_presentation(space).columns
        assert {t: str(e) for t, e in column.items()} == {0: "y", 1: "x"}

    def test_relation_count(self, conic):
        # one original relation wedged with each basis vector of the target
        P = kaehler_presentation(conic)
        E = exterior_power_presentation(P, 2)
        assert E.target_rank == comb(3, 2)
        assert len(E.columns) == len(P.columns) * P.target_rank


class TestTraceIdeal:
    def test_free_module_has_unit_trace(self):
        plane = make_ring(["x", "y"], [1, 1], [])
        assert trace_ideal(free_presentation(plane, 2)).is_trivial

    def test_zero_module_has_zero_trace(self, node):
        P = ModulePresentation(node, 0, ())
        T = trace_ideal(P)
        assert ideal_equals(T, node.zero_ideal())

    def test_node_trace_is_maximal_ideal(self, node):
        T = trace_ideal(kaehler_presentation(node))
        assert ideal_equals(T, node.maximal_ideal)

    def test_direct_sum_additivity(self, node, conic):
        for algebra in (node, conic):
            P = kaehler_presentation(algebra)
            assert ideal_equals(trace_ideal(block_sum(P, P)), trace_ideal(P))

    def test_free_summand_forces_unit(self, node):
        P = kaehler_presentation(node)
        D = block_sum(P, free_presentation(node, 1))
        T = trace_ideal(D)
        assert T.is_trivial
        has_unit_entry = any(
            residue(e, node).is_constant() and not residue(e, node).is_zero
            for col in kernel_columns(D)
            for e in col
        )
        assert has_unit_entry

    def test_no_unit_without_free_summand(self, node):
        P = kaehler_presentation(node)
        assert not trace_ideal(P).is_trivial
        for col in kernel_columns(P):
            for e in col:
                assert not residue(e, node).is_constant() or residue(e, node).is_zero


class TestMinors:
    def test_two_by_two(self):
        sig = RingSignature.standard("x", "y", "z", "w")
        rows = [parse_many(["x", "y"], sig), parse_many(["z", "w"], sig)]
        assert [str(m) for m in matrix_minors(rows, 2, sig)] == ["-y*z + x*w"]
        assert sorted(str(m) for m in matrix_minors(rows, 1, sig)) == [
            "w", "x", "y", "z"
        ]
        assert [str(m) for m in matrix_minors(rows, 0, sig)] == ["1"]
        assert matrix_minors(rows, 3, sig) == []

    def test_circulant_determinant(self):
        sig = RingSignature.standard("x", "y")
        rows = [
            parse_many(["x", "y", "0"], sig),
            parse_many(["0", "x", "y"], sig),
            parse_many(["y", "0", "x"], sig),
        ]
        assert [str(m) for m in matrix_minors(rows, 3, sig)] == ["x^3 + y^3"]

    @pytest.mark.parametrize("rows", [[["x"], ["x", "y"]], [["x", "y"], ["x"]],
                                      [["x", "y"], ["x", "y", "x"]]])
    def test_rejects_ragged_matrix(self, rows):
        sig = RingSignature.standard("x", "y")
        rows = [parse_many(row, sig) for row in rows]
        with pytest.raises(ValueError, match="ragged matrix"):
            matrix_minors(rows, 2, sig)
        with pytest.raises(ValueError, match="ragged matrix"):
            fitting_ideal(rows, 2, sig)

    def test_fitting_handle(self):
        sig = RingSignature.standard("x", "y", "z", "w")
        rows = [parse_many(["x", "y"], sig), parse_many(["z", "w"], sig)]
        from difftrace.groebner import IdealHandle

        assert ideal_equals(
            fitting_ideal(rows, 2, sig),
            IdealHandle(sig, parse_many(["x*w - y*z"], sig)),
        )


class TestPresentationValidation:
    def test_rejects_zero_entry(self, node):
        with pytest.raises(ValueError):
            ModulePresentation(node, 2, ({0: Polynomial.one(XY), 1: Polynomial.zero(XY)},))

    @pytest.mark.parametrize("row", [2, -1])
    def test_rejects_row_outside_target(self, node, row):
        with pytest.raises(ValueError):
            ModulePresentation(node, 2, ({row: Polynomial.one(XY)},))

    def test_rejects_negative_rank(self, node):
        with pytest.raises(ValueError):
            ModulePresentation(node, -1, ())

    def test_rejects_foreign_signature(self, node, conic):
        col = {0: Polynomial.one(conic.sig), 1: Polynomial.one(conic.sig)}
        with pytest.raises(ValueError):
            ModulePresentation(node, 2, (col,))

    def test_syzygies_rejects_column_outside_width(self, node):
        with pytest.raises(ValueError):
            syzygies([{0: Polynomial.one(XY), 2: Polynomial.one(XY)}], node, 2)
