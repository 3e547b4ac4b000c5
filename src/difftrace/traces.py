"""Trace ideals of exterior powers of the module of differentials.

The module of differentials of a graded quotient S = Q[x_1..x_n]/I is
presented by the transposed Jacobian of the defining generators.  Trace
ideals of its exterior powers decide, for suitable S, polynomial rank,
regularity, nearly-regularity, and the singular locus:

- the top trace is the whole ring exactly when S is a polynomial ring over a
  graded subring in one variable more than expected (unit propagation);
- for reduced S over Q the top trace cuts out the singular locus when S is
  equidimensional, and detects regularity in general;
- nearly-regularity asks that every trace down the tower contain the
  irrelevant maximal ideal, which the descending chain reduces to a single
  membership test at the top.

The trace chain itself comes from module Groebner bases (`diff_trace`).  The
yes/no questions need only one graded piece of one trace each: the degrees
of the variables for nearly-regularity, degree 0 for regularity and
polynomial rank.  Unless the trace is already cached on the algebra, they
are decided on that piece by linear algebra over Q (`graded`).
"""

from __future__ import annotations

import itertools

from .graded import _insert, trace_contains
from .groebner import IdealHandle, current_budget, radical_membership
from .modsyz import (
    ModulePresentation,
    exterior_power_presentation,
    fitting_ideal,
    trace_ideal,
)
from .poly import Polynomial
from .rings import GradedAlgebra


def jacobian_matrix(S: GradedAlgebra) -> list[list[Polynomial]]:
    """Rows indexed by variables, columns by defining generators."""
    gens = S.defining.gens
    return [[g.partial_derivative(i) for g in gens] for i in range(S.nvars)]


def kaehler_presentation(S: GradedAlgebra) -> ModulePresentation:
    """The differentials presented on dx_1..dx_n with one relation per generator."""
    if S._kaehler_cache is None:
        columns = tuple({i: d for i in range(S.nvars)
                         if not (d := g.partial_derivative(i)).is_zero}
                        for g in S.defining.gens)
        S._kaehler_cache = ModulePresentation(S, S.nvars, columns)
    return S._kaehler_cache


def diff_trace(S: GradedAlgebra, power: int) -> IdealHandle:
    """Trace ideal of the power-th exterior power of the differentials.

    Power zero gives the unit ideal; powers beyond the embedding dimension
    give the lift of the zero ideal.  Results are cached on the algebra.
    The wedge presentation keeps only its first Q-independent relation
    columns (`_column_basis`): the kernel, and so every generator, depends
    only on their span, and each dropped column is one module position less
    in the kernel's Groebner basis.
    """
    if power < 0:
        raise ValueError("exterior power degree cannot be negative")
    cached = S._trace_cache.get(power)
    if cached is None:
        if power == 0:
            cached = S.unit_ideal()
        else:
            omega = kaehler_presentation(S)
            wedge = exterior_power_presentation(omega, power)
            cached = trace_ideal(_column_basis(wedge))
        S._trace_cache[power] = cached
    return cached


def _column_basis(P: ModulePresentation) -> ModulePresentation:
    """P with only its first Q-independent relation columns, in order.

    Each column's nonzero entries make a row {(t, monomial): coefficient}
    of an echelon form over Q; a column that reduces to zero against the
    earlier ones is dropped.  Every row subtraction ticks the ambient budget.
    """
    budget = current_budget()
    pivots: dict = {}
    kept = []
    for column in P.columns:
        rank = len(pivots)
        _insert(pivots, {(t, m): c for t, entry in column.items()
                         for m, c in entry.terms.items()}, budget)
        if len(pivots) > rank:
            kept.append(column)
    return ModulePresentation(P.algebra, P.target_rank, tuple(kept))


def _graded_trace_contains(S: GradedAlgebra, power: int,
                           elements: list[Polynomial]) -> bool:
    """Whether the power-th trace holds the homogeneous elements, solved on
    their graded pieces; e_T of the power-th wedge has degree sum w_i over T."""
    wedge = exterior_power_presentation(kaehler_presentation(S), power)
    shifts = [sum(S.sig.weights[i] for i in T)
              for T in itertools.combinations(range(S.nvars), power)]
    return trace_contains(wedge, shifts, elements)


def _trace_is_whole_ring(S: GradedAlgebra, power: int) -> bool:
    """Read from the cached trace if there is one, else solved in degree 0."""
    cached = S._trace_cache.get(power)
    if cached is not None:
        return cached.is_trivial
    return _graded_trace_contains(S, power, [S.one()])


def polynomial_rank(S: GradedAlgebra) -> int:
    """Largest r such that S splits off a polynomial ring in r variables.

    Reads off the largest power whose trace is the whole ring, scanning
    downward from the dimension.
    """
    for power in range(S.dimension, 0, -1):
        if _trace_is_whole_ring(S, power):
            return power
    return 0


def is_nearly_regular(S: GradedAlgebra) -> bool:
    """Whether every trace up to the dimension contains the maximal ideal.

    The traces descend as the power grows, so the top trace decides: read
    from the cached top trace if there is one, else solved in the degrees of
    the variables.
    """
    top = S.dimension
    cached = S._trace_cache.get(top)
    if cached is not None:
        return S.contains_maximal_ideal(cached)
    return _graded_trace_contains(S, top, S.variables())


def is_regular_via_trace(S: GradedAlgebra) -> bool:
    """Whether the top trace is the whole ring; needs the reduced flag."""
    S.require_reduced("is_regular_via_trace")
    return _trace_is_whole_ring(S, S.dimension)


def singular_locus_trace(S: GradedAlgebra) -> IdealHandle:
    """The top trace, read as cutting out the singular locus.

    The reading needs S reduced and equidimensional; both flags are required.
    """
    S.require_reduced("singular_locus_trace")
    S.require_equidimensional("singular_locus_trace")
    return diff_trace(S, S.dimension)


def singular_locus_jacobian(S: GradedAlgebra) -> IdealHandle:
    """Classical Jacobian ideal: defining ideal plus codimension-size minors."""
    codim = S.nvars - S.dimension
    minors = fitting_ideal(jacobian_matrix(S), codim, S.sig)
    return S.s_ideal(minors.gens)


def radical_equal(I: IdealHandle, J: IdealHandle) -> bool:
    """Whether two ideals have the same radical (mutual radical membership)."""
    if I.sig != J.sig:
        raise ValueError("radical comparison needs one ambient signature")
    return (all(radical_membership(g, J) for g in I.gens)
            and all(radical_membership(g, I) for g in J.gens))
