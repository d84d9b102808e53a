"""Finite measure spaces, index spaces, disintegrations and quotient maps.

Measures on a finite point set are stored as weight vectors aligned with a
fixed point order.  Full support is enforced throughout: zero or negative
weights are rejected rather than dropped, so every validated space carries a
strictly positive measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from ._linalg import StackedLayout
from ._stream import Seed0Stream
from ._tolerance import TAU, Residual
from .errors import (
    EmptySpaceError,
    ErgodecError,
    NonFiniteError,
    NonPositiveWeightError,
    NotAPartitionError,
    NotPushforwardError,
    NotRepresentableError,
)

Label = Hashable


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _check_labels(labels: tuple, field: str) -> None:
    """Raise a typed error unless the labels are hashable and distinct."""
    try:
        if len(set(labels)) == len(labels):
            return
    except TypeError:
        raise ErgodecError(f"{field!r} labels must be hashable") from None
    seen = set()
    for label in labels:
        if label in seen:
            raise ErgodecError(f"{field!r} labels must be distinct; {label!r} repeats")
        seen.add(label)


def _check_weights(weights: np.ndarray) -> None:
    """Raise on the first weight that is not strictly positive and finite."""
    if weights.min() > 0 and weights.max() < np.inf:  # a NaN fails the first test
        return
    i = int(np.argmax(~(weights > 0) | (weights == np.inf)))
    if not weights[i] > 0:
        raise NonPositiveWeightError(i)
    raise NonFiniteError(f"infinite weight at position {i}")


@dataclass(frozen=True, eq=False)
class FiniteMeasureSpace:
    """A finite ordered point set with strictly positive weights.

    Parameters
    ----------
    points : sequence of hashable labels
        Point labels; order fixes the coordinate convention for every vector
        and matrix over this space.
    mu : sequence of float
        Weight of each point, aligned with ``points``.  All weights must be
        strictly positive and finite, and so must their total mass.
    """

    points: tuple
    mu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "mu", _readonly(self.mu))
        if len(self.points) == 0:
            raise EmptySpaceError("a measure space needs at least one point")
        if self.mu.ndim != 1 or len(self.mu) != len(self.points):
            raise ValueError("weight vector must align with the point list")
        _check_weights(self.mu)
        with np.errstate(over="ignore"):
            if self.total_mass == np.inf:
                raise NonFiniteError("the total mass of the weights overflows to inf")
        _check_labels(self.points, "points")

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def total_mass(self) -> float:
        return float(self.mu.sum())

    @cached_property
    def _positions(self) -> dict:
        return {x: i for i, x in enumerate(self.points)}

    def index_of(self, label) -> int:
        return self._positions[label]

    def indices_of(self, labels) -> np.ndarray:
        return np.array([self._positions[x] for x in labels], dtype=int)

    def inner(self, f, g) -> float:
        """L2(mu) inner product of two vectors over the points."""
        return float(np.dot(np.asarray(f) * self.mu, np.asarray(g)))

    def norm(self, f) -> float:
        f = np.asarray(f)
        return float(np.sqrt(np.dot(f * f, self.mu)))

    def lp_norm(self, f, p) -> float:
        return float(np.dot(np.abs(np.asarray(f)) ** p, self.mu) ** (1.0 / p))

    def normalized(self) -> "FiniteMeasureSpace":
        """The same point set carrying the probability-rescaled measure.

        Raises :class:`NotRepresentableError`, naming the point, when a weight
        divided by the total mass underflows to 0.
        """
        mu = self.mu / self.total_mass
        if not mu.all():
            x = self.points[int(np.argmin(mu))]
            raise NotRepresentableError(
                f"the normalized measure does not fit in floats: "
                f"mu({x!r}) / {self.total_mass:.3e} underflows to 0"
            )
        return FiniteMeasureSpace(self.points, mu)


def validate_space(raw: Iterable[tuple]) -> FiniteMeasureSpace:
    """Check a labelled weight list and return the measure space it defines.

    Parameters
    ----------
    raw : iterable of (label, weight) pairs

    Raises
    ------
    EmptySpaceError
        If the list is empty.
    NonPositiveWeightError
        If any weight is zero or negative; carries the offending position.
    """
    pairs = list(raw)
    if not pairs:
        raise EmptySpaceError("empty weight list")
    labels = [x for x, _ in pairs]
    weights = [w for _, w in pairs]
    return FiniteMeasureSpace(tuple(labels), weights)


@dataclass(frozen=True, eq=False)
class IndexSpace(FiniteMeasureSpace):
    """The index space (Z, nu) of a direct sum: a finite measure space whose
    points are the labels and whose weights are nu."""

    labels = property(lambda self: self.points)
    nu = property(lambda self: self.mu)
    size = property(lambda self: self.n)

    def position(self, label) -> int:
        return self._positions[label]

    def weight(self, label) -> float:
        return float(self.mu[self._positions[label]])


@dataclass(frozen=True, eq=False)
class Fiber(FiniteMeasureSpace):
    """A fiber measure: a finite measure space on a subset of the ambient points."""

    support = property(lambda self: self.points)
    weights = property(lambda self: self.mu)


@dataclass(frozen=True, eq=False)
class MeasureFamily:
    """An indexed family of fiber measures over a common ambient point set.

    The family is the carrier of a pseudo-disintegration: it does not itself
    know the ambient measure, so the defining identity is checked by
    :func:`verify_pseudo_disintegration` against a given space.  Fibers may
    overlap; separation is a property, not a constructor requirement.

    It is also the direct sum of the fibers' L2 spaces over the index: a
    vector field is a tuple of per-fiber vectors in index label order, with
    ||u||^2 = sum_z nu(z) ||u_z||^2, the L2 norm of its stacked coordinates
    (the fibers' points in index label order) under the weights nu(z) * mu_z.
    """

    index: IndexSpace
    fibers: Mapping[Label, Fiber]

    def __post_init__(self):
        fibers = {z: f for z, f in self.fibers.items()}
        object.__setattr__(self, "fibers", fibers)
        if set(fibers) != set(self.index.labels):
            raise ValueError("fiber keys must coincide with the index labels")
        object.__setattr__(self, "_spaces", tuple(fibers[z] for z in self.index.labels))

    def fiber(self, label) -> Fiber:
        return self.fibers[label]

    def fiber_spaces(self) -> tuple:
        """The fibers in index label order, built once."""
        return self._spaces

    @cached_property
    def dims(self) -> tuple:
        return tuple(f.n for f in self._spaces)

    @property
    def dim(self) -> int:
        return sum(self.dims)

    @cached_property
    def _layout(self) -> StackedLayout:
        """Stacked positions of every fiber in index label order: contiguous, disjoint ranges."""
        return StackedLayout(np.split(np.arange(self.dim), np.cumsum(self.dims[:-1])))

    @cached_property
    def stacked_weights(self) -> np.ndarray:
        """Pointwise weights of the stacked coordinates: nu(z) * mu_z."""
        return np.concatenate([nu * f.mu for nu, f in zip(self.index.nu, self._spaces)])

    def stack(self, field) -> np.ndarray:
        return np.concatenate([np.asarray(u, dtype=float) for u in field])

    def inner(self, u, v) -> float:
        """Inner product of two vector fields in the direct sum."""
        return float(sum(nu * f.inner(a, b)
                         for nu, f, a, b in zip(self.index.nu, self._spaces, u, v)))

    def norm(self, u) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))


@dataclass(frozen=True, eq=False)
class QuotientMap:
    """A total map from points to fiber labels with the pushforward index measure.

    Every point goes to an index label, every label receives a point, and
    the weight of each label is the mass of its block, within ``TAU`` times
    that mass; otherwise construction raises :class:`NotAPartitionError` or
    :class:`NotPushforwardError`.
    """

    space: FiniteMeasureSpace
    assignment: Mapping[Label, Label]
    index: IndexSpace

    def __post_init__(self):
        assignment = dict(self.assignment)
        object.__setattr__(self, "assignment", assignment)
        if set(assignment) != set(self.space.points):
            raise NotAPartitionError("assignment must cover exactly the points of the space")
        labels = self.index._positions
        for x, z in assignment.items():
            try:
                known = z in labels
            except TypeError:  # unhashable, so no label
                known = False
            if not known:
                raise NotAPartitionError(f"point {x!r} is assigned to {z!r}, which is not an index label")
        members = {z: [] for z in self.index.labels}
        for i, x in enumerate(self.space.points):
            members[assignment[x]].append(i)
        for z, idx in members.items():
            if not idx:
                raise NotAPartitionError(f"index label {z!r} has no points")
        object.__setattr__(self, "_layout", StackedLayout(members.values()))  # in index label order
        for z, idx, nu in zip(self.index.labels, self._layout.blocks, self.index.nu):
            mass = float(self.space.mu[idx].sum())
            if abs(nu - mass) > TAU * mass:
                raise NotPushforwardError(
                    f"index weight {float(nu)!r} of {z!r} is not the mass {mass!r} of its block"
                )

    @cached_property
    def blocks(self) -> dict:
        """Mapping fiber label -> tuple of its points, in point order."""
        points = self.space.points
        return {z: tuple(points[i] for i in idx.tolist())
                for z, idx in zip(self.index.labels, self._layout.blocks)}

    def block_indices(self, label) -> np.ndarray:
        return self._layout.blocks[self.index.position(label)]

    @cached_property
    def family(self) -> MeasureFamily:
        """The conditional measures in index label order: the fiber of ``z`` is
        mu on ``blocks[z]`` divided by its pushforward mass nu(z), a probability."""
        fibers = {
            z: Fiber(self.blocks[z], self.space.mu[idx] / mass)
            for z, idx, mass in zip(self.index.labels, self._layout.blocks, self.index.nu)
        }
        return MeasureFamily(self.index, fibers)

    def __call__(self, point):
        return self.assignment[point]


def _canonical_blocks(space: FiniteMeasureSpace, partition: Sequence[Iterable[Label]]) -> list:
    """The point positions of each block, ascending, with blocks ordered by their smallest."""
    blocks = []
    for part in partition:
        labels = list(part)
        if not labels:
            raise NotAPartitionError("empty block in partition")
        try:
            blocks.append(sorted(space.index_of(x) for x in labels))
        except KeyError as exc:
            raise NotAPartitionError(f"unknown point {exc.args[0]!r} in partition") from exc
    blocks.sort(key=lambda b: b[0])
    covered = {i for b in blocks for i in b}
    if sum(len(b) for b in blocks) != len(covered) or len(covered) != space.n:
        raise NotAPartitionError("blocks must cover the space exactly once")
    return blocks


def quotient_by_invariant_partition(
    space: FiniteMeasureSpace, partition: Sequence[Iterable[Label]]
) -> QuotientMap:
    """Build the quotient map of a partition, with the pushforward measure.

    Fiber labels are deterministic: blocks are ordered by their smallest
    point position and labelled ``z0, z1, ...``, so repeated runs produce
    byte-identical reports.
    """
    blocks = _canonical_blocks(space, partition)
    labels = tuple(f"z{i}" for i in range(len(blocks)))
    nu = [float(space.mu[b].sum()) for b in blocks]
    assignment = {space.points[i]: z for z, b in zip(labels, blocks) for i in b}
    return QuotientMap(space, assignment, IndexSpace(labels, nu))


def disintegrate_over_partition(
    space: FiniteMeasureSpace, partition: Sequence[Iterable[Label]]
) -> tuple[QuotientMap, MeasureFamily]:
    """Disintegrate a measure over the blocks of a partition.

    Each fiber receives the conditional probability measure
    ``mu restricted to the block, divided by the block mass``; the index
    weight of a fiber is the block mass.  The resulting family is separated,
    strongly consistent with the quotient map, and satisfies the
    pseudo-disintegration identity exactly in exact arithmetic.

    Raises
    ------
    NotAPartitionError
        If the blocks fail to cover the space exactly once.
    """
    qmap = quotient_by_invariant_partition(space, partition)
    return qmap, qmap.family


def is_separated(family: MeasureFamily):
    """Decide whether fiber supports are pairwise disjoint.

    Returns ``(True, supports)`` with the supports as a separating family,
    or ``(False, witness)`` with a point lying in two supports.
    """
    seen = set()
    for z in family.index.labels:
        for x in family.fibers[z].support:
            if x in seen:
                return False, x
            seen.add(x)
    return True, tuple(family.fibers[z].support for z in family.index.labels)


def verify_pseudo_disintegration(
    space: FiniteMeasureSpace,
    family: MeasureFamily,
    *,
    trials: int = 20,
    rng=None,
) -> tuple:
    """Measure how far a family is from disintegrating the ambient measure.

    Returns two residuals: ``"point"``, the worst singleton defect
    ``|mu({x}) - sum_z nu(z) mu_z({x})|`` against ``TAU`` times max mu, and
    ``"integral"``, for ``trials`` random test functions g, the defect of the
    iterated integral against the plain integral of g, against ``TAU`` times
    the total mass.  The functions are drawn from ``rng``, by default the
    stream of ``numpy.random.default_rng(0)``, reproduced without importing
    ``numpy.random``.  Report-style: never raises on a failing family.
    """
    rng = Seed0Stream() if rng is None else rng
    mixed = np.zeros(space.n)
    for z in family.index.labels:
        fib = family.fibers[z]
        mixed[space.indices_of(fib.support)] += family.index.weight(z) * fib.weights
    point_defect = float(np.abs(mixed - space.mu).max())

    integral_defects = [0.0]
    for _ in range(trials):
        g = rng.uniform(-1.0, 1.0, size=space.n)
        lhs = float(np.dot(g, space.mu))
        rhs = float(np.dot(g, mixed))
        integral_defects.append(abs(lhs - rhs))

    return (Residual("point", point_defect, TAU * float(space.mu.max())),
            Residual("integral", float(np.max(integral_defects)), TAU * space.total_mass))
