"""Ergodic decomposition of Dirichlet forms on finite weighted measure spaces.

On a finite point set every Dirichlet form is a graph energy with a jump
kernel and a killing vector, direct integrals are weighted direct sums, and
the decomposition of a form over its invariant sets is an exactly checkable
block splitting of the energy matrix, the semigroup and the resolvent.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConsistencyError,
    EmptySpaceError,
    ErgodecError,
    FiberDimensionMismatchError,
    HasKillingError,
    InvalidExponentError,
    InvalidShapeError,
    NegativeTimeError,
    NonFiniteError,
    NonPositiveAlphaError,
    NonPositiveBetaError,
    NonPositivePhiError,
    NonPositiveWeightError,
    NotAPartitionError,
    NotDecomposableError,
    NotInvariantError,
    NotMarkovianError,
    NotPSDError,
    NotPushforwardError,
    NotRepresentableError,
    NotSeparatedError,
    PartitionMismatchError,
)
from .spaces import (
    DisintegrationReport,
    Fiber,
    FiniteMeasureSpace,
    IndexSpace,
    MeasureFamily,
    QuotientMap,
    disintegrate_over_partition,
    is_separated,
    quotient_by_invariant_partition,
    validate_space,
    verify_pseudo_disintegration,
)
from .forms import (
    CarreDuChamp,
    Classification,
    ComponentClassification,
    DirichletForm,
    InvarianceReport,
    YosidaApproximation,
    beurling_deny,
    carre_du_champ,
    classify,
    generator,
    girsanov_transform,
    invariant_sets,
    is_invariant,
    is_irreducible,
    is_markovian,
    resolvent,
    semigroup,
    yosida_form,
)
from .direct_integral import (
    DecomposableOperator,
    DirectIntegralForm,
    DirectIntegralSpace,
    L2Embedding,
    LpIsometryReport,
    SuperpositionResult,
    assemble_form,
    assemble_l2,
    assemble_lp,
    assemble_operator,
    commutes_with_diagonalizables,
    decompose_operator,
    diagonalizable,
    functional_calculus,
    superpose,
)
from .ergodic import (
    CarreDecompositionReport,
    DecompositionClassification,
    DecompositionReport,
    ErgodicDecomposition,
    ErgodicMeasure,
    InvariantMeasureMixture,
    MixtureRelations,
    ProjectiveComparison,
    WeightedDecomposition,
    carre_decomposition,
    classification_decomposition,
    compare_projective,
    decompose,
    decompose_invariant_measure,
    decompose_weighted,
    ergodic_measures,
    invariant_measure_relations,
    verify_decomposition,
)
from .generate import random_form

__version__ = "0.1.0"

__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
