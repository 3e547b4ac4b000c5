"""Tensor products, fiber products over Q, and Veronese subrings.

The product constructions merge two graded algebras into one combined
signature (renaming colliding variable names by factor index) and carry
closed-form predictions for the top differential trace that can be checked
against the direct computation.
"""

from __future__ import annotations

from typing import Sequence

from .graded import monomials_of_weighted_degree
from .groebner import (
    IdealHandle,
    _lift,
    ideal_equals,
    ideal_intersection,
    eliminate,
)
from .poly import Polynomial, RingSignature
from .rings import AssumptionError, GradedAlgebra
from .traces import diff_trace


class InternalCheckError(RuntimeError):
    """A theorem-backed internal consistency check failed."""


class NameCollisionError(ValueError):
    """The variable names of two factors collide even after renaming."""


def _merged_signature(A: GradedAlgebra, B: GradedAlgebra):
    """Combined signature for a two-factor construction.

    Names shared by both factors are renamed by factor index (x -> x_1 and
    x_2); the construction refuses if renaming itself collides.
    """
    shared = set(A.sig.names) & set(B.sig.names)

    def rename(names: tuple[str, ...], suffix: str) -> list[str]:
        return [f"{n}_{suffix}" if n in shared else n for n in names]

    names = rename(A.sig.names, "1") + rename(B.sig.names, "2")
    if len(set(names)) != len(names):
        raise NameCollisionError(
            "variable-name collision survives the renaming policy; "
            "rename the factor variables by hand")
    weights = A.sig.weights + B.sig.weights
    sig = RingSignature(tuple(names), weights)
    positions_a = list(range(A.nvars))
    positions_b = list(range(A.nvars, A.nvars + B.nvars))
    return sig, positions_a, positions_b


def extend_scalars(handle: IdealHandle, R: GradedAlgebra,
                   positions: Sequence[int]) -> IdealHandle:
    """Extension of an ideal of a factor to an ideal of the product ring."""
    lifted = [_lift(g, R.sig, positions) for g in handle.gens]
    return R.s_ideal(tuple(lifted))


def tensor_product(A: GradedAlgebra, B: GradedAlgebra) -> GradedAlgebra:
    """The tensor product over Q, with flags inherited conjunctively.

    Both factors reduced keeps the product reduced (Q is perfect), and both
    equidimensional keeps it equidimensional.
    """
    sig, pos_a, pos_b = _merged_signature(A, B)
    gens = [_lift(g, sig, pos_a) for g in A.defining.gens]
    gens += [_lift(g, sig, pos_b) for g in B.defining.gens]
    return GradedAlgebra(
        sig, gens,
        asserted_reduced=A.asserted_reduced and B.asserted_reduced,
        asserted_equidimensional=(A.asserted_equidimensional
                                  and B.asserted_equidimensional),
    )


def predicted_tensor_trace(A: GradedAlgebra, B: GradedAlgebra,
                           R: GradedAlgebra | None = None) -> IdealHandle:
    """Top trace of the tensor product, predicted from the factor traces.

    The product of the extended factor traces; equality with their
    intersection is verified as an internal check.  Only the traces' own
    entries are multiplied: a product with a defining generator lies in the
    defining ideal of R, which the returned handle holds anyway.  Needs both
    factors of positive dimension with both flags asserted.
    """
    for factor in (A, B):
        factor.require_reduced("predicted_tensor_trace")
        factor.require_equidimensional("predicted_tensor_trace")
        if factor.dimension == 0:
            raise AssumptionError(
                "predicted_tensor_trace needs factors of positive dimension")
    if R is None:
        R = tensor_product(A, B)
    _, pos_a, pos_b = _merged_signature(A, B)
    ta = extend_scalars(diff_trace(A, A.dimension), R, pos_a)
    tb = extend_scalars(diff_trace(B, B.dimension), R, pos_b)
    defining = set(R.defining.gens)
    products = [f * g for f in ta.gens if f not in defining
                for g in tb.gens if g not in defining]
    product_handle = R.s_ideal(tuple(dict.fromkeys(products)))
    intersection = ideal_intersection(ta, tb)
    if not ideal_equals(product_handle, intersection):
        raise InternalCheckError(
            "tensor trace prediction: product and intersection disagree")
    return product_handle


def fiber_product(A: GradedAlgebra, B: GradedAlgebra) -> GradedAlgebra:
    """The fiber product over Q: both defining ideals plus all mixed products.

    Reducedness is inherited conjunctively; equidimensionality additionally
    needs the factor dimensions to agree, because the product glues the two
    spectra at the irrelevant point.
    """
    sig, pos_a, pos_b = _merged_signature(A, B)
    gens = [_lift(g, sig, pos_a) for g in A.defining.gens]
    gens += [_lift(g, sig, pos_b) for g in B.defining.gens]
    for i in pos_a:
        for j in pos_b:
            gens.append(Polynomial.monomial(
                sig, tuple(1 if k in (i, j) else 0 for k in range(sig.nvars))))
    same_dimension = A.dimension == B.dimension
    return GradedAlgebra(
        sig, gens,
        asserted_reduced=A.asserted_reduced and B.asserted_reduced,
        asserted_equidimensional=(A.asserted_equidimensional
                                  and B.asserted_equidimensional
                                  and same_dimension),
    )


def dagger(handle: IdealHandle, algebra: GradedAlgebra) -> IdealHandle:
    """The ideal itself if proper, the maximal ideal otherwise."""
    if handle.is_trivial:
        return algebra.maximal_ideal
    return handle


def predicted_fiber_trace(A: GradedAlgebra, B: GradedAlgebra,
                          R: GradedAlgebra | None = None) -> IdealHandle:
    """Top trace of the fiber product, predicted from the factor traces.

    Sum of the daggered factor traces at the product dimension, extended to
    the product ring.  A factor of smaller dimension contributes the dagger
    of its vanishing trace.  Needs both flags on both factors.
    """
    for factor in (A, B):
        factor.require_reduced("predicted_fiber_trace")
        factor.require_equidimensional("predicted_fiber_trace")
    if R is None:
        R = fiber_product(A, B)
    top = max(A.dimension, B.dimension)
    _, pos_a, pos_b = _merged_signature(A, B)
    da = extend_scalars(dagger(diff_trace(A, top), A), R, pos_a)
    db = extend_scalars(dagger(diff_trace(B, top), B), R, pos_b)
    return R.s_ideal(tuple(dict.fromkeys(da.gens + db.gens)))


# -- Veronese subrings ----------------------------------------------------------

def veronese_algebra(P: GradedAlgebra, degree: int) -> GradedAlgebra:
    """The degree-c Veronese subring of a standard graded polynomial ring.

    Presented on one variable per degree-c monomial, with the defining ideal
    obtained by eliminating the original variables; the result is standard
    graded, reduced, and equidimensional (it is a domain).
    """
    if degree < 1:
        raise ValueError("Veronese degree must be a positive integer")
    if not P.is_polynomial_ring or any(w != 1 for w in P.sig.weights):
        raise AssumptionError(
            "veronese_algebra needs a standard graded polynomial ring")
    n = P.nvars
    # descending lex: the order in which the new variables z0, z1, ... are named
    monomials = monomials_of_weighted_degree(P.sig, degree)[::-1]
    names = []
    for k in range(len(monomials)):
        name = f"z{k}"
        while name in P.sig.names or name in names:
            name = "z" + name
        names.append(name)
    ext = RingSignature(P.sig.names + tuple(names),
                        P.sig.weights + (degree,) * len(names))
    gens = []
    for k, exps in enumerate(monomials):
        z = Polynomial.variable(ext, n + k)
        mono = Polynomial.monomial(ext, exps + (0,) * len(names))
        gens.append(z - mono)
    relations = eliminate(IdealHandle(ext, gens), n)
    target = RingSignature(tuple(names), (1,) * len(names))
    regraded = [Polynomial(target, g.terms) for g in relations.gens]
    return GradedAlgebra(target, regraded,
                         asserted_reduced=True, asserted_equidimensional=True)
