"""End-to-end acceptance gate.

One test per advertised criterion; the summary block at the end of the pytest
run prints one PASS/FAIL line for each.  Everything here runs over exact
rational arithmetic: no floats, no tolerances.
"""

import itertools
import json
import math
import random

from conftest import densified, make_ring, presented
from oracles import (
    monomials_of_weighted_degree,
    oracle_ideal_equal,
    oracle_membership,
)

from difftrace.cli import main
from difftrace.constructions import (
    extend_scalars,
    fiber_product,
    predicted_fiber_trace,
    predicted_tensor_trace,
    tensor_product,
    veronese_algebra,
)
from difftrace.groebner import (
    buchberger,
    default_order,
    ideal_contains,
    ideal_equals,
    ideal_intersection,
    ideal_membership,
)
from difftrace.modsyz import (
    exterior_power_presentation,
    free_presentation,
    kernel_columns,
)
from difftrace.poly import Polynomial, RingSignature
from difftrace.simplicial import (
    combinatorial_nearly_regular,
    iso_classes,
    stanley_reisner_algebra,
)
from difftrace.traces import (
    diff_trace,
    is_nearly_regular,
    is_regular_via_trace,
    kaehler_presentation,
    polynomial_rank,
    radical_equal,
    singular_locus_jacobian,
    singular_locus_trace,
)

SEED = 20260816


# -- named examples ------------------------------------------------------------

def test_criterion_1a_cross_top_trace(corpus):
    """Plane union line: second trace cuts out the singular axis."""
    entry = corpus["cross"]
    R = entry.algebra
    assert R.dimension == 2
    handle = diff_trace(R, 2)
    assert presented(R, handle) == ["y", "z"]
    want = list(R.maximal_ideal.gens)[1:] + list(R.defining.gens)
    assert oracle_ideal_equal(handle.gens, want, R.sig)


def test_criterion_1b_cubic_cone_trace(corpus):
    R = corpus["fermat"].algebra
    handle = diff_trace(R, 2)
    assert presented(R, handle) == ["x^2", "y^2", "z^2"]
    assert not R.contains_maximal_ideal(handle)
    assert not is_nearly_regular(R)


def test_criterion_1c_twisted_cubic_cone_trace(corpus):
    plane = corpus["plane"].algebra
    R = veronese_algebra(plane, 3)
    assert R.dimension == 2
    handle = diff_trace(R, 2)
    m_gens = R.maximal_ideal.gens
    square = R.s_ideal(tuple(dict.fromkeys(
        f * g for f, g in itertools.combinations_with_replacement(m_gens, 2))))
    assert ideal_equals(handle, square)
    assert not R.contains_maximal_ideal(handle)


# -- theorem-backed behavior -----------------------------------------------------

def test_criterion_2a_descending_chain(corpus):
    assert len(corpus) >= 15
    for entry in corpus.values():
        R = entry.algebra
        traces = [diff_trace(R, k) for k in range(R.dimension + 2)]
        for small, big in zip(traces[1:], traces):
            assert ideal_contains(big, small), entry.name
        trivial = [k for k, t in enumerate(traces) if t.is_trivial]
        assert trivial == list(range(len(trivial))), entry.name


def test_criterion_2b_vanishing_above_dimension(corpus):
    for entry in corpus.values():
        R = entry.algebra
        if not R.asserted_reduced:
            continue
        top = diff_trace(R, R.dimension + 1)
        assert ideal_equals(top, R.zero_ideal()), entry.name


def test_criterion_2c_euler_containment(corpus):
    for entry in corpus.values():
        R = entry.algebra
        first = diff_trace(R, 1)
        for i in range(R.sig.nvars):
            var = Polynomial.variable(R.sig, i)
            assert ideal_membership(var, first), (entry.name, str(var))
        exactly_maximal = ideal_equals(first, R.maximal_ideal)
        assert exactly_maximal == (polynomial_rank(R) == 0), entry.name


def test_criterion_2d_tensor_product_formula(corpus):
    line_t = make_ring(["t"], [1], [])
    pairs = [
        (corpus["node"].algebra, line_t),
        (corpus["node"].algebra, corpus["node"].algebra),
        (corpus["conic"].algebra, line_t),
        (corpus["cusp"].algebra, line_t),
        (corpus["fermat"].algebra, line_t),
        (corpus["plane"].algebra, line_t),
    ]
    assert len(pairs) >= 5
    for A, B in pairs:
        R = tensor_product(A, B)
        assert R.dimension == A.dimension + B.dimension
        predicted = predicted_tensor_trace(A, B, R)
        direct = diff_trace(R, R.dimension)
        assert ideal_equals(predicted, direct)
        ta = extend_scalars(diff_trace(A, A.dimension), R, range(A.nvars))
        tb = extend_scalars(diff_trace(B, B.dimension), R,
                            range(A.nvars, A.nvars + B.nvars))
        product = R.s_ideal(tuple(f * g for f in ta.gens for g in tb.gens))
        assert ideal_equals(product, ideal_intersection(ta, tb))


def test_criterion_2e_fiber_product_formula(corpus):
    line_x = make_ring(["x"], [1], [])
    line_t = make_ring(["t"], [1], [])
    plane_yz = make_ring(["y", "z"], [1, 1], [])
    plane_uv = make_ring(["u", "v"], [1, 1], [])
    pairs = [
        (line_x, plane_yz),  # unequal dimensions: the 1a cross reappears
        (line_x, line_t),
        (corpus["node"].algebra, line_t),
        (corpus["plane"].algebra, plane_uv),
        (corpus["fermat"].algebra, line_t),
        (corpus["conic"].algebra, plane_uv),
    ]
    assert len(pairs) >= 5
    for A, B in pairs:
        R = fiber_product(A, B)
        assert R.dimension == max(A.dimension, B.dimension)
        predicted = predicted_fiber_trace(A, B, R)
        direct = diff_trace(R, R.dimension)
        assert ideal_equals(predicted, direct)
    mismatch = fiber_product(line_x, plane_yz)
    assert sorted(str(g) for g in mismatch.defining.gens) == ["x*y", "x*z"]
    assert presented(mismatch, diff_trace(mismatch, 2)) == ["y", "z"]
    assert not is_nearly_regular(mismatch)


def test_criterion_2f_singular_locus_agreement(corpus):
    for name in ("fermat", "node", "conic", "whitney", "cusp", "quadric"):
        R = corpus[name].algebra
        trace = singular_locus_trace(R)
        jacobian = singular_locus_jacobian(R)
        assert radical_equal(trace, jacobian), name


def test_criterion_2g_simplicial_census():
    """Exhaustive sweep: every complex on at most 5 vertices whose components
    are pure, one per isomorphism class."""
    classes = [c for c in iso_classes(5)
               if all(p.is_pure for p in c.components)]
    assert len(classes) >= 90
    simplices = 0
    for delta in classes:
        R = stanley_reisner_algebra(delta)
        combinatorial = combinatorial_nearly_regular(delta)
        assert combinatorial == is_nearly_regular(R), delta.describe()
        if delta.is_connected:
            assert delta.is_simplex == is_regular_via_trace(R), delta.describe()
            simplices += delta.is_simplex
    assert simplices == 5  # one simplex per vertex count


def test_criterion_2h_polynomial_rank(corpus):
    assert polynomial_rank(corpus["line"].algebra) == 1
    assert polynomial_rank(corpus["plane"].algebra) == 2
    assert polynomial_rank(corpus["space"].algebra) == 3
    assert polynomial_rank(corpus["node"].algebra) == 0
    assert polynomial_rank(corpus["cross"].algebra) == 0
    node_line = make_ring(["x", "y", "z"], [1, 1, 1], ["x*y"])
    assert polynomial_rank(node_line) == 1
    assert polynomial_rank(corpus["node-cylinder"].algebra) == 1
    for entry in corpus.values():
        rank = polynomial_rank(entry.algebra)
        assert 0 <= rank <= entry.algebra.dimension, entry.name


# -- engine invariants -------------------------------------------------------------

def test_criterion_3_exact_engine_invariants(corpus):
    rng = random.Random(SEED)

    # reduced bases do not depend on generator order
    shuffle_cases = [
        corpus["cross"].algebra.defining,
        corpus["conic"].algebra.defining,
        corpus["veronese3"].algebra.defining,
    ]
    for handle in shuffle_cases:
        order = default_order(handle.sig)
        reference = [str(g) for g in buchberger(handle.gens, order)]
        for _ in range(4):
            gens = list(handle.gens)
            rng.shuffle(gens)
            assert [str(g) for g in buchberger(gens, order)] == reference

    # every reported syzygy of every differential module really is one
    for entry in corpus.values():
        R = entry.algebra
        omega = kaehler_presentation(R)
        for k in range(1, R.dimension + 1):
            wedge = exterior_power_presentation(omega, k)
            for col in densified(kernel_columns(wedge), wedge.target_rank, R.sig):
                for relation in wedge.columns:
                    dot = Polynomial.zero(R.sig)
                    for t, a in relation.items():
                        dot = dot + a * col[t]
                    assert ideal_membership(dot, R.defining), (entry.name, k)

    # the same soundness anchored by linear algebra instead of any basis engine
    for name in ("node", "cross", "conic"):
        R = corpus[name].algebra
        omega = kaehler_presentation(R)
        for col in densified(kernel_columns(omega), omega.target_rank, R.sig):
            for relation in omega.columns:
                dot = Polynomial.zero(R.sig)
                for t, a in relation.items():
                    dot = dot + a * col[t]
                if not dot.is_zero:
                    assert oracle_membership(dot, R.defining.gens, R.sig), name

    # wedge powers of free modules have binomial ranks and no relations
    free_sig = RingSignature(("x", "y"), (1, 1))
    free_alg = make_ring(["x", "y"], [1, 1], [])
    for m in range(6):
        P = free_presentation(free_alg, m)
        for k in range(m + 2):
            wedge = exterior_power_presentation(P, k)
            assert wedge.target_rank == math.comb(m, k)
            assert wedge.columns == ()
    assert free_sig == free_alg.sig

    # weighted Euler identity on seeded random homogeneous polynomials
    signatures = [
        RingSignature(("x", "y", "z"), (1, 1, 1)),
        RingSignature(("a", "b"), (2, 3)),
        RingSignature(("u", "v", "w"), (1, 2, 1)),
    ]
    checked = 0
    while checked < 100:
        sig = signatures[checked % len(signatures)]
        degree = rng.randrange(3, 9)
        monos = monomials_of_weighted_degree(sig, degree)
        if not monos:
            continue
        chosen = rng.sample(monos, k=min(len(monos), rng.randrange(1, 6)))
        terms = {e: rng.choice([-3, -2, -1, 1, 2, 3]) for e in chosen}
        p = Polynomial(sig, terms)
        assert p.homogeneous_degree() == degree
        euler = Polynomial.zero(sig)
        for i, w in enumerate(sig.weights):
            term = Polynomial.variable(sig, i) * p.partial_derivative(i)
            euler = euler + term.scale(w)
        assert euler == p.scale(degree)
        checked += 1


# -- command line ---------------------------------------------------------------

def test_criterion_4_cli_contract(tmp_path, capsys):
    cross = tmp_path / "cross.ring"
    cross.write_text("vars: x, y, z\nideal: x*y, x*z\nassume: reduced\n",
                     encoding="utf-8")
    plane = tmp_path / "plane.ring"
    plane.write_text("vars: x, y\nassume: reduced, equidimensional\n",
                     encoding="utf-8")
    bare = tmp_path / "bare.ring"
    bare.write_text("vars: x, y\nideal: x*y\n", encoding="utf-8")
    broken = tmp_path / "broken.ring"
    broken.write_text("vars: x\nideal: x +\n", encoding="utf-8")
    skew = tmp_path / "skew.ring"
    skew.write_text("vars: x, y\nideal: x^2 + y\n", encoding="utf-8")

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # deterministic machine output, byte for byte
    golden_runs = [
        ["classify", "--ring", str(cross), "--json"],
        ["trace", "--ring", str(cross), "--power", "2", "--json"],
        ["sr", "--facets", "1 2; 3 4", "--verify-algebraic", "--json"],
        ["veronese", "--ring", str(plane), "--degree", "3", "--json"],
    ]
    for argv in golden_runs:
        code_a, out_a, _ = run(argv)
        code_b, out_b, _ = run(argv)
        assert code_a == 0 and code_b == 0
        assert out_a == out_b
        json.loads(out_a)

    # spot values
    _, out, _ = run(["classify", "--ring", str(cross), "--json"])
    results = json.loads(out)["results"]
    assert results["dimension"] == 2
    assert results["polynomialRank"] == 0
    _, out, _ = run(["sr", "--facets", "1 2; 3 4",
                     "--verify-algebraic", "--json"])
    assert json.loads(out)["results"]["agree"] is True

    # exit codes, silent stdout in machine mode
    code, out, err = run(["classify", "--ring", str(broken), "--json"])
    assert (code, out) == (2, "") and err
    code, out, err = run(["classify", "--ring", str(cross),
                          "--max-steps", "1", "--json"])
    assert (code, out) == (3, "") and err
    code, out, err = run(["singular", "--ring", str(bare), "--json"])
    assert (code, out) == (4, "") and err
    code, out, err = run(["classify", "--ring", str(skew), "--json"])
    assert (code, out) == (4, "") and err
