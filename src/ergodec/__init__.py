"""Ergodic decomposition of Dirichlet forms on finite weighted measure spaces.

On a finite point set every Dirichlet form is a graph energy with a jump
kernel and a killing vector, direct integrals are weighted direct sums, and
the decomposition of a form over its invariant sets is an exactly checkable
block splitting of the energy matrix, the semigroup and the resolvent.

The public names are read from their modules on first access, so importing
the package, or one of its modules, loads only what is used.
"""

import importlib as _importlib

_EXPORTS = {
    "errors": (
        "ConsistencyError",
        "EmptySpaceError",
        "ErgodecError",
        "FiberDimensionMismatchError",
        "HasKillingError",
        "InvalidExponentError",
        "InvalidShapeError",
        "NegativeTimeError",
        "NonFiniteError",
        "NonPositiveAlphaError",
        "NonPositiveBetaError",
        "NonPositivePhiError",
        "NonPositiveWeightError",
        "NotAPartitionError",
        "NotDecomposableError",
        "NotInvariantError",
        "NotMarkovianError",
        "NotPSDError",
        "NotPushforwardError",
        "NotRepresentableError",
        "NotSeparatedError",
        "PartitionMismatchError",
    ),
    "spaces": (
        "Fiber",
        "FiniteMeasureSpace",
        "IndexSpace",
        "MeasureFamily",
        "QuotientMap",
        "disintegrate_over_partition",
        "is_separated",
        "quotient_by_invariant_partition",
        "validate_space",
        "verify_pseudo_disintegration",
    ),
    "forms": (
        "CarreDuChamp",
        "Classification",
        "ComponentClassification",
        "DirichletForm",
        "YosidaApproximation",
        "beurling_deny",
        "carre_du_champ",
        "classify",
        "generator",
        "girsanov_transform",
        "invariant_sets",
        "is_invariant",
        "is_irreducible",
        "is_markovian",
        "resolvent",
        "semigroup",
        "yosida_form",
    ),
    "direct_integral": (
        "DecomposableOperator",
        "DirectIntegralForm",
        "L2Embedding",
        "LpIsometryReport",
        "SuperpositionResult",
        "assemble_form",
        "assemble_l2",
        "assemble_lp",
        "assemble_operator",
        "commutes_with_diagonalizables",
        "decompose_operator",
        "diagonalizable",
        "functional_calculus",
        "superpose",
    ),
    "ergodic": (
        "DecompositionClassification",
        "DecompositionReport",
        "ErgodicDecomposition",
        "ErgodicMeasure",
        "InvariantMeasureMixture",
        "MixtureRelations",
        "ProjectiveComparison",
        "WeightedDecomposition",
        "carre_decomposition",
        "classification_decomposition",
        "compare_projective",
        "decompose",
        "decompose_invariant_measure",
        "decompose_weighted",
        "ergodic_measures",
        "invariant_measure_relations",
        "verify_decomposition",
    ),
    "generate": ("random_form",),
    "_tolerance": ("Residual", "worst"),
}

# public name -> module that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
