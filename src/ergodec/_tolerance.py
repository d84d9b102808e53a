"""The tolerance policy: every threshold of the library, in one place.

One relative tolerance ``TAU`` decides every fact about a valid form, each
against the scale of the quantity it compares.  A jump weight joins two
points when it exceeds ``TAU`` times the largest jump weight, in
``invariant_sets`` and ``is_invariant`` alike.  A point carries killing when
k(x) exceeds ``TAU`` times A(x, x); over mu(x) both are rates of the
generator L = -diag(mu)^{-1} A, so the verdict of ``killing_free`` and
``classify`` depends on A / mu alone.  Checks of identities that these
verdicts imply (T_1 mass, energy floor, stationarity, leakage) allow
``TAU`` times the scale of the checked quantity as roundoff, about
n * 2.2e-16 for n up to 4500.  Input validation keeps its own margins,
relative to 1 + max |A|.  Each reported residual is a :class:`Residual`,
which carries its own tolerance and alone decides whether it passes.
"""

import math
from dataclasses import dataclass

#: The relative tolerance of every decision about a valid form.
TAU = 1e-12

#: Default tolerance of reported residuals, and of the CLI's ``--tolerance``.
RESIDUAL_TOLERANCE = 1e-10

#: Validation margins: asymmetry and the rebuild from jump and killing, the
#: contraction-witness search, and the PSD check (relative to max(1, norm)).
SYMMETRY_RTOL = 1e-13
MARKOV_RTOL = 1e-14
PSD_RTOL = 1e-12


@dataclass(frozen=True)
class Residual:
    """The defect ``value`` of the identity ``name``, checked against ``tolerance``.

    ``name`` is a string, or a (string, parameter) pair for an identity
    checked at several parameters, such as ``("semigroup", 0.1)``.  The
    identity passes when ``value <= tolerance``, so a NaN value fails.
    """

    name: object
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance

    @property
    def share(self) -> float:
        """value / tolerance; over a zero tolerance, 0 for a zero value and inf for a positive one."""
        if self.tolerance > 0:
            return float(self.value) / float(self.tolerance)
        return 0.0 if self.value == 0 else math.inf if self.value > 0 else math.nan


def worst(residuals) -> Residual:
    """The residual of largest share of its tolerance, a NaN value first, then any failing one."""
    return max(residuals, key=lambda r: (r.value != r.value, not r.passed, r.share))
