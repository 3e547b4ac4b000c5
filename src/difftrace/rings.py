"""Weighted-graded quotient rings over Q.

A GradedAlgebra is a polynomial ring with positive integer weights modulo a
weighted-homogeneous ideal, together with two user-asserted flags (reduced,
equidimensional).  The flags are never verified; operations that rely on them
raise AssumptionError when they are missing.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .groebner import (
    IdealHandle,
    ideal_membership,
    krull_dimension,
    normal_form,
)
from .poly import Polynomial, RingSignature


class AssumptionError(RuntimeError):
    """An operation needed a flag (reduced/equidimensional) that is not set."""


class HomogeneityError(ValueError):
    """A defining generator is not weighted-homogeneous of positive degree."""


class GradedAlgebra:
    """A quotient of a weighted polynomial ring by a homogeneous ideal.

    Ideals of the quotient are represented by IdealHandle lifts that contain
    the defining generators, so membership and equality tests delegate to the
    ambient polynomial ring.
    """

    def __init__(self, sig: RingSignature, ideal_gens: Iterable[Polynomial] = (),
                 *, asserted_reduced: bool = False,
                 asserted_equidimensional: bool = False):
        gens = []
        for g in ideal_gens:
            if g.sig != sig:
                raise ValueError("defining generator over a different signature")
            if g.is_zero:
                continue
            degree = g.homogeneous_degree()
            if degree is None:
                raise HomogeneityError(
                    f"defining generator {g} is not weighted-homogeneous")
            if degree == 0:
                raise HomogeneityError(
                    f"defining generator {g} is a unit; the quotient would be zero")
            gens.append(g)
        self.sig = sig
        self.defining = IdealHandle(sig, gens)
        self.asserted_reduced = bool(asserted_reduced)
        self.asserted_equidimensional = bool(asserted_equidimensional)
        self._trace_cache: dict[int, IdealHandle] = {}
        self._kaehler_cache = None

    # -- basic structure --------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.sig.nvars

    @property
    def is_polynomial_ring(self) -> bool:
        return not self.defining.gens

    @cached_property
    def dimension(self) -> int:
        return krull_dimension(self.defining)

    def variables(self) -> list[Polynomial]:
        return [Polynomial.variable(self.sig, i) for i in range(self.nvars)]

    def one(self) -> Polynomial:
        return Polynomial.one(self.sig)

    @cached_property
    def maximal_ideal(self) -> IdealHandle:
        """The irrelevant ideal generated by every variable."""
        return self.s_ideal(self.variables())

    def s_ideal(self, gens: Sequence[Polynomial]) -> IdealHandle:
        """An ideal of the quotient, stored as its lift to the ambient ring.

        Its generators are gens followed by the defining generators, and its
        basis is computed from the defining ideal's cached reduced basis.
        """
        return IdealHandle(self.sig, gens, _base=self.defining)

    def zero_ideal(self) -> IdealHandle:
        return self.s_ideal(())

    def unit_ideal(self) -> IdealHandle:
        return self.s_ideal((self.one(),))

    # -- reporting ---------------------------------------------------------

    def reduce(self, p: Polynomial) -> Polynomial:
        """Canonical representative modulo the defining ideal."""
        return normal_form(p, self.defining)

    def presented_generators(self, handle: IdealHandle) -> tuple[Polynomial, ...]:
        """A minimal homogeneous generating list of an ideal of the quotient.

        The candidates are the residues of the ideal's generators modulo
        the defining ideal, made monic, without duplicates, scanned by
        ascending degree with larger leading monomials first inside each
        degree (see `groebner._minimal_scan`).  The list is cached on a
        handle of this algebra (`s_ideal`), whose basis resumes the same
        scan; any other handle is read as the ideal its generators span in
        the quotient.
        """
        if handle._base is not self.defining:
            handle = self.s_ideal(handle.gens)
        return handle._presented

    def contains_maximal_ideal(self, handle: IdealHandle) -> bool:
        """Whether every variable lies in the ideal (so it contains m)."""
        return all(ideal_membership(x, handle) for x in self.variables())

    def describe(self) -> str:
        inside = ", ".join(str(g) for g in self.defining.gens)
        quotient = f"/({inside})" if inside else ""
        return f"Q[{self.sig.describe()}]{quotient}"

    def __repr__(self) -> str:
        return f"GradedAlgebra({self.describe()})"

    def require_reduced(self, operation: str):
        if not self.asserted_reduced:
            raise AssumptionError(
                f"{operation} needs 'assume: reduced' on {self.describe()}")

    def require_equidimensional(self, operation: str):
        if not self.asserted_equidimensional:
            raise AssumptionError(
                f"{operation} needs 'assume: equidimensional' on {self.describe()}")
