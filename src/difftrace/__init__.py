"""Exact trace ideals of exterior powers of differential modules.

Computes, over Q with weighted gradings: Groebner bases, syzygies over
quotient rings, exterior-power presentations, trace and Fitting ideals, and
the derived classifications (polynomial rank, regularity, nearly-regularity,
singular loci) together with tensor/fiber-product and Stanley-Reisner
constructions.
"""

from .poly import (
    ParseError,
    Polynomial,
    RingSignature,
    ZeroPolynomialError,
    parse_many,
    parse_polynomial,
)
from .groebner import (
    BlockOrder,
    BudgetExceededError,
    DEFAULT_MAX_STEPS,
    IdealHandle,
    StepBudget,
    WeightedGrevlex,
    buchberger,
    eliminate,
    ideal_contains,
    ideal_equals,
    ideal_intersection,
    ideal_membership,
    krull_dimension,
    normal_form,
    radical_membership,
    step_budget,
)
from .rings import AssumptionError, GradedAlgebra, HomogeneityError
from .modsyz import (
    ModulePresentation,
    exterior_power_presentation,
    fitting_ideal,
    free_presentation,
    kernel_columns,
    matrix_minors,
    syzygies,
    trace_ideal,
)
from .traces import (
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
from .constructions import (
    InternalCheckError,
    dagger,
    extend_scalars,
    fiber_product,
    predicted_fiber_trace,
    predicted_tensor_trace,
    tensor_product,
    veronese_algebra,
)
from .simplicial import (
    SimplicialComplex,
    combinatorial_nearly_regular,
    iso_classes,
    parse_facets,
    stanley_reisner_algebra,
)
from .ringfile import RingDescription, RingFileError, load_ring, loads_ring

__version__ = "0.1.0"
