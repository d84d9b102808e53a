"""Exception types raised by the library."""


class ErgodecError(ValueError):
    """Base class for all validation and tolerance errors."""


class EmptySpaceError(ErgodecError):
    pass


class NonPositiveWeightError(ErgodecError):
    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"non-positive weight at position {index}")


class NonFiniteError(ErgodecError):
    """A weight or matrix entry is NaN or infinite."""


class NotAPartitionError(ErgodecError):
    pass


class NotPushforwardError(ErgodecError):
    """An index weight is not the mass of the block it labels."""


class NotPSDError(ErgodecError):
    def __init__(self, min_eigenvalue, message=None):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            message or f"matrix is not positive semidefinite (min eigenvalue {min_eigenvalue:.3e})"
        )


class NotMarkovianError(ErgodecError):
    def __init__(self, witness=None, violation=None, message=None):
        self.witness = witness
        self.violation = violation
        super().__init__(message or "matrix does not define a Markovian (Dirichlet) form")


class NotRepresentableError(ErgodecError):
    """The generator of a form does not fit in floats."""


class NegativeTimeError(ErgodecError):
    pass


class NonPositiveAlphaError(ErgodecError):
    pass


class NonPositiveBetaError(ErgodecError):
    pass


class HasKillingError(ErgodecError):
    pass


class NonPositivePhiError(ErgodecError):
    pass


class NotSeparatedError(ErgodecError):
    def __init__(self, witness=None, message=None):
        self.witness = witness
        super().__init__(message or f"family is not separated (point {witness!r} in two supports)")


class InvalidExponentError(ErgodecError):
    pass


class FiberDimensionMismatchError(ErgodecError):
    pass


class NotDecomposableError(ErgodecError):
    def __init__(self, off_block_norm, message=None):
        self.off_block_norm = off_block_norm
        super().__init__(
            message or f"operator is not block-diagonal over the fibers (off-block norm {off_block_norm:.3e})"
        )


class PartitionMismatchError(ErgodecError):
    pass


class NotInvariantError(ErgodecError):
    def __init__(self, defect, message=None):
        self.defect = defect
        super().__init__(message or f"measure is not invariant (defect {defect:.3e})")


class InvalidShapeError(ErgodecError):
    pass


class ConsistencyError(ErgodecError):
    """Two internal criteria that must agree on a valid form disagree."""

    def __init__(self, message, defects=None):
        self.defects = defects
        super().__init__(message)
