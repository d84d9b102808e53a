"""Embeddings into weighted direct sums of L2 and Lp spaces, decomposable
operators, and direct integrals of quadratic forms over a finite index space.

The direct-sum L2 space over a family is the
:class:`~ergodec.spaces.MeasureFamily` itself.  A decomposable operator is a
block family acting fiberwise; its assembled matrix is block diagonal in the
family's stacked coordinates, and its operator norm is the maximum of the
fiber norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import (
    StackedLayout,
    _block,
    chebyshev_coefficients,
    chebyshev_matrix,
    polynomial_matrix,
    resolvent_from_eig,
    semigroup_from_eig,
    symmetrized_eig,
    weighted_operator_norm,
)
from ._stream import Seed0Stream
from .errors import (
    FiberDimensionMismatchError,
    InvalidExponentError,
    NotDecomposableError,
    NotSeparatedError,
)
from ._tolerance import RESIDUAL_TOLERANCE, TAU, Residual
from .forms import DirichletForm, _matrix_scale, is_markovian
from .spaces import FiniteMeasureSpace, MeasureFamily, QuotientMap, is_separated


@dataclass(frozen=True, eq=False)
class L2Embedding:
    """The diagonal embedding of L2(mu) into the direct sum over a family.

    Calling the embedding restricts a global vector to every fiber support.
    The map is always an isometry when the family pseudo-disintegrates the
    ambient measure; it is unitary exactly when the family is separated, in
    which case :meth:`inverse` reassembles a global vector.
    """

    space: FiniteMeasureSpace
    family: MeasureFamily
    separated: bool

    @cached_property
    def _layout(self) -> StackedLayout:
        """The fiber supports in index label order; they overlap unless the family is separated."""
        return StackedLayout([self.space.indices_of(f.support) for f in self.family.fiber_spaces()])

    def _check_separated(self) -> None:
        """Raise :class:`NotSeparatedError`, with a point of two supports, unless separated."""
        if not self.separated:
            raise NotSeparatedError(witness=is_separated(self.family)[1])

    def __call__(self, f) -> tuple:
        f = np.asarray(f, dtype=float)
        return tuple(f[idx] for idx in self._layout.blocks)

    def inverse(self, field) -> np.ndarray:
        self._check_separated()
        out = np.zeros(self.space.n)
        for idx, u in zip(self._layout.blocks, field):
            out[idx] = np.asarray(u, dtype=float)
        return out


def assemble_l2(space: FiniteMeasureSpace, family: MeasureFamily) -> L2Embedding:
    """Build the diagonal embedding of L2(mu) into the direct sum over a family."""
    separated, _ = is_separated(family)
    return L2Embedding(space, family, separated)


@dataclass(frozen=True)
class LpIsometryReport:
    """The residual ``"norm"`` of the Lp isometry, and whether the lattice operations commute."""

    residuals: tuple
    lattice_exact: bool


def assemble_lp(
    space: FiniteMeasureSpace,
    family: MeasureFamily,
    p: float,
    *,
    trials: int = 20,
    rng=None,
) -> LpIsometryReport:
    """Check the Lp isometry of the diagonal embedding for a separated family.

    For random test vectors f the report compares ||f||_p on the ambient
    space with (sum_z nu(z) ||f_z||_p^p)^(1/p) over the fibers, and verifies
    that the embedding commutes with the lattice operations exactly; the
    worst norm defect is checked against ``RESIDUAL_TOLERANCE``.  The
    vectors are drawn from ``rng``, by default the stream of
    ``numpy.random.default_rng(0)``, reproduced without importing
    ``numpy.random``.

    Raises
    ------
    NotSeparatedError, InvalidExponentError
    """
    if p < 1:
        raise InvalidExponentError(f"p must satisfy p >= 1, got {p}")
    embed = assemble_l2(space, family)
    embed._check_separated()
    rng = Seed0Stream() if rng is None else rng

    defects = [0.0]
    lattice_exact = True
    for _ in range(trials):
        f = rng.uniform(-1.0, 1.0, size=space.n)
        g = rng.uniform(-1.0, 1.0, size=space.n)
        fibered = sum(
            nu * fiber.lp_norm(u, p) ** p
            for nu, fiber, u in zip(family.index.nu, family.fiber_spaces(), embed(f))
        ) ** (1.0 / p)
        defects.append(abs(space.lp_norm(f, p) - fibered))
        meet = embed(np.minimum(f, g))
        for u, a, b in zip(meet, embed(f), embed(g)):
            if not np.array_equal(u, np.minimum(a, b)):
                lattice_exact = False
        pos = embed(np.maximum(f, 0.0))
        for u, a in zip(pos, embed(f)):
            if not np.array_equal(u, np.maximum(a, 0.0)):
                lattice_exact = False
    return LpIsometryReport((Residual("norm", float(np.max(defects)), RESIDUAL_TOLERANCE),), lattice_exact)


@dataclass(frozen=True, eq=False)
class DecomposableOperator:
    """A block family of fiber operators with its assembled global matrix."""

    family: MeasureFamily
    blocks: tuple

    def __post_init__(self):
        blocks = tuple(np.asarray(b, dtype=float) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if len(blocks) != self.family.index.size:
            raise FiberDimensionMismatchError("one block per fiber required")
        for b, d in zip(blocks, self.family.dims):
            if b.shape != (d, d):
                raise FiberDimensionMismatchError(
                    f"block shape {b.shape} does not match fiber dimension {d}"
                )

    @cached_property
    def assembled(self) -> np.ndarray:
        n = self.family.dim
        return self.family._layout.assemble(np.zeros((n, n)), self.blocks)

    @cached_property
    def operator_norm(self) -> float:
        """Norm in the direct-sum space; the ess-sup over fibers collapses to a max."""
        return max(
            weighted_operator_norm(b, f.mu)
            for b, f in zip(self.blocks, self.family.fiber_spaces())
        )

    def apply(self, field) -> tuple:
        return tuple(b @ np.asarray(u, dtype=float) for b, u in zip(self.blocks, field))


def assemble_operator(family: MeasureFamily, blocks) -> DecomposableOperator:
    return DecomposableOperator(family, tuple(blocks))


def decompose_operator(matrix, structure) -> DecomposableOperator:
    """Split an operator into fiber blocks, or fail with its off-block mass.

    Parameters
    ----------
    matrix : (n, n) array
        For a ``QuotientMap`` structure, an operator on L2(mu) in point
        coordinates; for a ``MeasureFamily``, an operator in its stacked
        coordinates.
    structure : QuotientMap or MeasureFamily
        For a ``QuotientMap``, the blocks and fibers (its ``family``) follow
        the quotient's index label order, and the operator keeps its labels.

    Raises
    ------
    NotDecomposableError
        If the off-block part has weighted operator norm above ``TAU`` times
        1 + max |matrix|; the error carries the off-block norm.
    """
    matrix = np.asarray(matrix, dtype=float)
    if isinstance(structure, QuotientMap):
        family, layout, weights = structure.family, structure._layout, structure.space.mu
    else:
        family, layout, weights = structure, structure._layout, structure.stacked_weights

    blocks = tuple(matrix[_block(idx)].copy() for idx in layout.blocks)  # not views of the input
    block_part = layout.assemble(np.zeros_like(matrix), blocks)
    off_norm = weighted_operator_norm(matrix - block_part, weights)
    if off_norm > TAU * _matrix_scale(matrix):
        raise NotDecomposableError(off_norm)
    return DecomposableOperator(family, blocks)


def diagonalizable(family: MeasureFamily, values) -> DecomposableOperator:
    """The operator multiplying each fiber by a scalar function of the index.

    ``values`` is a mapping from index labels or a sequence aligned with
    them; the indicator of a label set yields the multiplication by the
    indicator of the corresponding point set.
    """
    if isinstance(values, dict):
        scalars = [float(values[z]) for z in family.index.labels]
    else:
        scalars = [float(v) for v in values]
        if len(scalars) != family.index.size:
            raise ValueError("one scalar per index label required")
    return DecomposableOperator(family, tuple(c * np.eye(d) for c, d in zip(scalars, family.dims)))


def commutes_with_diagonalizables(matrix, family: MeasureFamily):
    """Test commutation with every fiber-indicator multiplication operator.

    Commutation with all of them characterizes decomposability.  Returns
    ``(True, None)`` or ``(False, witness_label)`` with the label of the
    first indicator whose commutator has weighted operator norm above
    ``TAU`` times 1 + max |matrix|, the threshold of :func:`decompose_operator`.
    """
    matrix = np.asarray(matrix, dtype=float)
    scale = _matrix_scale(matrix)
    for z, idx in zip(family.index.labels, family._layout.blocks):
        ind = np.zeros(family.dim)
        ind[idx] = 1.0
        commutator = matrix * ind[None, :] - ind[:, None] * matrix
        if weighted_operator_norm(commutator, family.stacked_weights) > TAU * scale:
            return False, z
    return True, None


def functional_calculus(
    operator: DecomposableOperator, phi, *, degree: int = 50
) -> DecomposableOperator:
    """Apply a function to a decomposable operator, block by block.

    ``phi`` is either a sequence of power-basis polynomial coefficients
    (ascending) or a callable, in which case it is replaced by its Chebyshev
    interpolant of the given degree on [-||B||, ||B||] before evaluation.
    The same polynomial applied to the assembled matrix gives the identical
    operator, which is the content of the blockwise functional calculus.
    """
    if callable(phi):
        bound = max(operator.operator_norm, np.finfo(float).tiny)
        coef = chebyshev_coefficients(phi, bound, degree)
        blocks = tuple(chebyshev_matrix(b, coef, bound) for b in operator.blocks)
    else:
        coef = np.asarray(phi, dtype=float)
        blocks = tuple(polynomial_matrix(b, coef) for b in operator.blocks)
    return DecomposableOperator(operator.family, blocks)


@dataclass(frozen=True, eq=False)
class DirectIntegralForm:
    """The direct integral of a family of quadratic forms over the fibers.

    The assembled energy matrix in stacked coordinates is the block diagonal
    of nu(z) * A_z, so Q(u) = sum_z nu(z) E_z(u_z) holds exactly.
    """

    family: MeasureFamily
    matrices: tuple

    def __post_init__(self):
        matrices = tuple(np.asarray(m, dtype=float) for m in self.matrices)
        object.__setattr__(self, "matrices", matrices)
        if len(matrices) != self.family.index.size:
            raise FiberDimensionMismatchError("one fiber form per index label required")
        for m, d in zip(matrices, self.family.dims):
            if m.shape != (d, d):
                raise FiberDimensionMismatchError(
                    f"fiber form shape {m.shape} does not match fiber dimension {d}"
                )

    @cached_property
    def assembled_matrix(self) -> np.ndarray:
        n = self.family.dim
        return self.family._layout.assemble(np.zeros((n, n)), self.matrices, self.family.index.nu)

    def energy(self, field) -> float:
        return float(
            sum(
                nu * (np.asarray(u) @ m @ np.asarray(u))
                for nu, m, u in zip(self.family.index.nu, self.matrices, field)
            )
        )

    @cached_property
    def _fiber_eigs(self) -> tuple:
        return tuple(
            symmetrized_eig(m, f.mu) for m, f in zip(self.matrices, self.family.fiber_spaces())
        )

    def is_dirichlet(self):
        """Markovianity of the assembled form, decided fiber by fiber.

        Returns ``(True, None)`` when every fiber form is Markovian, else
        ``(False, witness_field)`` where the witness is the lift of a
        contraction-violating vector from a bad fiber.
        """
        for i, (m, fiber) in enumerate(zip(self.matrices, self.family.fiber_spaces())):
            ok, payload = is_markovian(m, fiber)
            if not ok:
                field = [np.zeros(d) for d in self.family.dims]
                field[i] = payload
                return False, tuple(field)
        return True, None

    def semigroup(self, t: float) -> DecomposableOperator:
        blocks = tuple(semigroup_from_eig(e, t) for e in self._fiber_eigs)
        return DecomposableOperator(self.family, blocks)

    def resolvent(self, alpha: float) -> DecomposableOperator:
        blocks = tuple(resolvent_from_eig(e, alpha) for e in self._fiber_eigs)
        return DecomposableOperator(self.family, blocks)


def _fiber_matrix(entry, fiber: FiniteMeasureSpace) -> np.ndarray:
    if isinstance(entry, DirichletForm):
        if entry.space.points != fiber.points:
            raise FiberDimensionMismatchError("fiber form defined over the wrong fiber")
        return np.asarray(entry.matrix)
    m = np.asarray(entry, dtype=float)
    if m.shape != (fiber.n, fiber.n):
        raise FiberDimensionMismatchError(
            f"fiber form shape {m.shape} does not match fiber dimension {fiber.n}"
        )
    return m


def assemble_form(family: MeasureFamily, fiber_forms) -> DirectIntegralForm:
    """Assemble per-fiber quadratic forms (matrices or Dirichlet forms)."""
    fiber_forms = tuple(fiber_forms)
    if len(fiber_forms) != family.index.size:
        raise FiberDimensionMismatchError("one fiber form per index label required")
    matrices = tuple(
        _fiber_matrix(entry, fiber) for entry, fiber in zip(fiber_forms, family.fiber_spaces())
    )
    return DirectIntegralForm(family, matrices)


@dataclass(frozen=True, eq=False)
class SuperpositionResult:
    """A superposed form on the ambient space and its direct-integral twin."""

    energy_matrix: np.ndarray
    form: DirectIntegralForm
    embedding: L2Embedding
    isomorphism_defect: float

    def energy(self, f, g=None) -> float:
        f = np.asarray(f, dtype=float)
        g = f if g is None else np.asarray(g, dtype=float)
        return float(f @ self.energy_matrix @ g)


def superpose(
    space: FiniteMeasureSpace,
    family: MeasureFamily,
    fiber_forms,
    *,
    trials: int = 20,
    rng=None,
) -> SuperpositionResult:
    """Superpose fiber forms into a form on global functions.

    The superposition evaluates sum_z nu(z) E_z(f restricted to the fiber)
    directly on f in L2(mu).  For a separated family the diagonal embedding
    is a unitary lattice isomorphism between the superposition and the
    direct integral of the same fibers; the report carries the residual of
    that isomorphism on random vectors, measured through the graph norms.
    The vectors are drawn from ``rng``, by default the stream of
    ``numpy.random.default_rng(0)``, reproduced without importing
    ``numpy.random``.
    """
    embed = assemble_l2(space, family)
    embed._check_separated()
    form = assemble_form(family, fiber_forms)
    energy_matrix = embed._layout.assemble(np.zeros((space.n, space.n)), form.matrices, family.index.nu)

    rng = Seed0Stream() if rng is None else rng
    defects = [0.0]
    for _ in range(trials):
        f = rng.uniform(-1.0, 1.0, size=space.n)
        field = embed(f)
        graph_ambient = float(f @ energy_matrix @ f) + space.norm(f) ** 2
        graph_fibered = form.energy(field) + family.norm(field) ** 2
        defects.append(abs(graph_ambient - graph_fibered))
    return SuperpositionResult(energy_matrix, form, embed, float(np.max(defects)))
