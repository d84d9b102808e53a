"""Dirichlet forms on finite weighted spaces.

A symmetric positive semidefinite matrix A over a finite measure space is a
Dirichlet (Markovian) energy matrix exactly when its off-diagonal entries are
nonpositive and its row sums are nonnegative.  Such a matrix is canonically
represented by a symmetric jump kernel J >= 0 and a killing vector k >= 0 via

    E(f, g) = 1/2 sum_{x,y} J(x,y) (f(x)-f(y)) (g(x)-g(y)) + sum_x k(x) f(x) g(x),

with J(x,y) = -A(x,y) off the diagonal and k(x) = sum_y A(x,y).  The generator
L = -diag(mu)^{-1} A is self-adjoint in L2(mu) and drives the sub-Markovian
semigroup e^{tL} and resolvent (alpha - L)^{-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from ._linalg import (
    StackedLayout,
    _dropped_couplings,
    _split_blocks,
    dots,
    resolvent_from_eig,
    semigroup_action,
    semigroup_from_eig,
    symmetrized_eig,
)
from ._tolerance import SYMMETRY_RTOL, TAU, Residual
from ._validation import (
    _asymmetry,
    _check_finite,
    _check_range,
    _jump,
    _killing,
    _matrix_scale,
    _symmetrize,
    _symmetrized,
    _validated,
    is_markovian,
)
from .errors import (
    ConsistencyError,
    HasKillingError,
    NegativeTimeError,
    NonPositiveAlphaError,
    NonPositiveBetaError,
    NonPositivePhiError,
    NotRepresentableError,
)
from .spaces import FiniteMeasureSpace

#: Relative threshold below which a jump weight does not join two components.
COMPONENT_THRESHOLD = TAU

_HALF_MAX = np.finfo(float).max / 2


def _killed(form: DirichletForm) -> np.ndarray:
    """The points that carry killing: k(x) > TAU * A(x, x), or k(x) / mu(x) > TAU * |L(x, x)|."""
    return form.killing > TAU * np.diagonal(form.matrix)


def _generator_scale(form: DirichletForm) -> float:
    """gamma = max_x b(x) / mu(x) (:func:`_row_bounds`), which bounds every entry of L and twice
    its spectrum: max_x A(x, x) / mu(x) on a dominant matrix."""
    return float(form._rates.max())


def _largest_jump(q: np.ndarray) -> float:
    """The largest jump weight max(-q, 0) off the diagonal of a symmetric matrix."""
    n = len(q)
    off_diagonal = q.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]  # a view, no copy
    return -float(off_diagonal.min(initial=0.0))


@dataclass(frozen=True, eq=False)
class DirichletForm:
    """A validated Dirichlet energy matrix over a finite measure space.

    Construct through :meth:`from_matrix` or :meth:`from_jump_kernel`; the
    constructor enforces symmetry, positive semidefiniteness, Markovianity,
    and that the matrix is rebuilt by its jump/killing data.
    :meth:`from_jump_kernel` skips these checks when a one-pass certificate
    on its input proves them (see there); every other input goes through
    the constructor.

    A form stores one n x n array, its matrix, and the killing vector.  The
    jump kernel is derived from the matrix on first access.  A matrix that
    validation accepts within its margins may not be diagonally dominant;
    its row bounds (:func:`_row_bounds`) are stored then, and set the scale
    of the generator in place of the diagonal.
    """

    space: FiniteMeasureSpace
    matrix: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.matrix, dtype=float)
        if raw.shape != (self.space.n, self.space.n):
            raise ValueError("matrix shape does not match the space")
        scale = _matrix_scale(raw)  # not finite unless every entry is, and then no check fails
        if math.isfinite(scale) and _asymmetry(raw) > SYMMETRY_RTOL * scale:
            raise ValueError("energy matrix must be symmetric")
        _check_finite(raw)
        matrix = _symmetrized(raw)
        _check_finite(matrix)  # an entry past float max / 2 that the symmetrization doubled
        killing, bounds = _validated(matrix, raw, self.space)
        matrix.flags.writeable = False
        killing.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_killing", killing)
        object.__setattr__(self, "_bounds", bounds)

    @classmethod
    def from_matrix(cls, space: FiniteMeasureSpace, matrix) -> "DirichletForm":
        """The validated form of 0.5 (A + A^T); that symmetrization is the one copy of ``matrix``."""
        return cls._from_symmetrized(space, _symmetrized(np.asarray(matrix, dtype=float)))

    @classmethod
    def _from_symmetrized(cls, space: FiniteMeasureSpace, matrix) -> "DirichletForm":
        """The form of a bitwise symmetric ``matrix``, validated in place: it becomes the form's matrix.

        Off the diagonal each entry is at most float max / 2 or not finite,
        as in 0.5 (A + A^T) or a symmetrized kernel, so the constructor's
        symmetry check and symmetrization are bitwise no-ops there, and the
        result is the constructor's.  A diagonal entry past float max / 2, a
        row sum of a kernel, is validated as the inf that symmetrization
        makes of it, against one copy of the matrix, where the constructor
        refuses it as not finite.
        """
        if matrix.shape != (space.n, space.n):
            raise ValueError("matrix shape does not match the space")
        _check_finite(matrix)
        raw = matrix
        if (np.abs(np.diagonal(matrix)) > _HALF_MAX).any():
            raw = matrix.copy()
            _symmetrize(matrix)
        return cls._unchecked(space, matrix, *_validated(matrix, raw, space))

    @classmethod
    def _unchecked(cls, space: FiniteMeasureSpace, matrix, killing=None, bounds=None) -> "DirichletForm":
        """Wrap a bitwise symmetric matrix into a form without validation.

        The matrix becomes read-only, and the killing vector, unless given,
        is read from it as :func:`is_markovian` reads it.  ``bounds`` are
        its row bounds (:func:`_row_bounds`), None when they are the diagonal.
        """
        matrix.flags.writeable = False
        killing = _killing(matrix) if killing is None else killing
        killing.flags.writeable = False
        form = object.__new__(cls)
        object.__setattr__(form, "space", space)
        object.__setattr__(form, "matrix", matrix)
        object.__setattr__(form, "_killing", killing)
        object.__setattr__(form, "_bounds", bounds)
        return form

    @classmethod
    def from_jump_kernel(cls, space: FiniteMeasureSpace, jump, killing=None) -> "DirichletForm":
        """Build the form of a symmetric jump kernel and optional killing vector.

        The kernel is symmetrized and its diagonal dropped.  When the input
        holds a certificate, one O(n^2) pass, the form is built without the
        constructor's checks: the shapes are (n, n) and (n,), every kernel
        and killing entry is >= 0, and every diagonal entry
        ``jump.sum(1) + killing`` is finite.  NaN fails ``>= 0`` and an
        infinite entry makes its row sum infinite, so certified input is
        finite, and its matrix is bitwise symmetric, Markovian and
        diagonally dominant, hence PSD.  The result equals the validated
        form exactly: the same matrix operations, with the killing read from
        the matrix as :func:`is_markovian` does.  The kernel is not kept: the
        form derives :attr:`jump` from its matrix on first access, equal to
        the symmetrized input off the diagonal.  Input without the
        certificate (a negative, NaN or infinite entry, a row sum that
        overflows, a shape that does not match) goes through the
        constructor, with its errors and witnesses.  Both paths refuse a
        form out of range (:func:`_check_range`).
        """
        jump = np.asarray(jump, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            jump = jump + jump.T
        jump *= 0.5
        return cls._from_symmetric_kernel(space, jump, killing)

    @classmethod
    def _from_symmetric_kernel(cls, space: FiniteMeasureSpace, jump, killing=None) -> "DirichletForm":
        """The form of a bitwise symmetric kernel, written in place over ``jump``.

        The form takes ``jump`` over as its matrix, so a kernel costs no
        second n x n array.  The certificate is that of
        :meth:`from_jump_kernel`, with every kernel entry at most float
        max / 2: a larger one overflows when :meth:`from_jump_kernel`
        symmetrizes it.  Uncertified input is symmetrized again as there, in
        place, and validated by :meth:`_from_symmetrized`.  The diagonal is
        written after ``0 - jump``, so the matrix equals
        ``np.diag(diag) - jump`` bitwise, zeros included.
        """
        np.fill_diagonal(jump, 0.0)  # a kernel carries no diagonal
        killing = np.zeros(space.n) if killing is None else np.asarray(killing, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite diag is not certified
            diag = jump.sum(axis=1) + killing
        certified = (
            jump.shape == (space.n, space.n)
            and killing.shape == (space.n,)
            and 0.0 <= jump.min() and jump.max() <= _HALF_MAX  # NaN fails both
            and (killing >= 0).all()
            and np.isfinite(diag).all()
        )
        if not certified:
            _symmetrize(jump)  # bitwise the input, but inf past float max / 2
            with np.errstate(over="ignore", invalid="ignore"):
                diag = jump.sum(axis=1) + killing
        matrix = np.subtract(0.0, jump, out=jump)  # 0 - 0 is +0.0, as np.diag(diag) - jump gives
        np.fill_diagonal(matrix, diag)
        if not certified:
            return cls._from_symmetrized(space, matrix)
        _check_range(matrix, space)
        return cls._unchecked(space, matrix)

    @property
    def n(self) -> int:
        return self.space.n

    @cached_property
    def jump(self) -> np.ndarray:
        """The jump kernel J(x, y) = max(-A(x, y), 0) off the diagonal, derived on first access."""
        jump = _jump(self.matrix)
        jump.flags.writeable = False
        return jump

    @property
    def killing(self) -> np.ndarray:
        return self._killing

    @property
    def killing_free(self) -> bool:
        """No point carries killing, k(x) <= TAU * A(x, x): the conservative verdict of :func:`classify`.

    Divided by mu(x), k(x) is the killing rate and A(x, x) the total rate of
    the generator at x, so the verdict depends only on A / mu, and the
    threshold covers the roundoff of the row sums the killing is read from.
    """
        return not _killed(self).any()

    @cached_property
    def generator(self) -> np.ndarray:
        """The matrix L = -diag(mu)^{-1} A, with E(f, g) = <-Lf, g> in L2(mu)."""
        gen = -self.matrix / self.space.mu[:, None]
        gen.flags.writeable = False
        return gen

    @cached_property
    def _rates(self) -> np.ndarray:
        """b(x) / mu(x) per point (:func:`_row_bounds`): A(x, x) / mu(x) on a dominant matrix."""
        bounds = np.diagonal(self.matrix) if self._bounds is None else self._bounds
        return bounds / self.space.mu

    @cached_property
    def _eig(self):
        return symmetrized_eig(self.matrix, self.space.mu)

    @cached_property
    def _invariant_sets(self) -> tuple:
        points = self.space.points
        return tuple(tuple(points[i] for i in idx.tolist()) for idx in self._layout.blocks)

    @cached_property
    def _layout(self) -> StackedLayout:
        """The positions of the blocks of :func:`invariant_sets`, stacked by size."""
        return StackedLayout(_jump_components(self))

    @cached_property
    def _dropped(self) -> np.ndarray:
        """The couplings :func:`invariant_sets` dropped, summed per point (:func:`_dropped_couplings`)."""
        return _dropped_couplings(self.matrix, self._layout)

    @cached_property
    def _block_eigs(self) -> tuple:
        """One stacked eigendecomposition per stack of ``_layout``, of its blocks split as the
        fibers of :func:`~ergodec.ergodic.decompose` are; one block keeps ``_eig``."""
        if self._layout.count == 1:
            return (tuple(a[None] for a in self._eig),)
        return tuple(symmetrized_eig(_split_blocks(self.matrix, p, self._dropped), self.space.mu[p])
                     for _, p in self._layout.stacks)

    @property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of -L in L2(mu), ascending and clipped at 0: the merged spectra of the
        -L_B, each within the 2-norm of what the split drops (Weyl's inequality)."""
        w = self._layout.concatenate([eig[0] for eig in self._block_eigs])
        return np.clip(np.sort(w, kind="stable"), 0.0, None)

    def energy(self, f, g=None) -> float:
        f = np.asarray(f, dtype=float)
        g = f if g is None else np.asarray(g, dtype=float)
        return float(f @ self.matrix @ g)


def beurling_deny(form: DirichletForm):
    """The canonical (jump kernel, killing vector) pair of a Dirichlet form."""
    return form.jump, form.killing


def generator(form: DirichletForm) -> np.ndarray:
    return form.generator


def semigroup(form: DirichletForm, t: float) -> np.ndarray:
    """The sub-Markovian semigroup matrix e^{tL} at time t >= 0."""
    if t < 0:
        raise NegativeTimeError(f"time must be nonnegative, got {t}")
    return semigroup_from_eig(form._eig, t)


def resolvent(form: DirichletForm, alpha: float) -> np.ndarray:
    """The resolvent matrix (alpha - L)^{-1} for alpha > 0."""
    if alpha <= 0:
        raise NonPositiveAlphaError(f"alpha must be positive, got {alpha}")
    return resolvent_from_eig(form._eig, alpha)


@dataclass(frozen=True, eq=False)
class YosidaApproximation:
    """The Yosida regularization beta <f - beta G_beta f, g> of a form.

    Spectrally this replaces each eigenvalue lam of -L by beta*lam/(beta+lam),
    so the approximation increases monotonically to the energy as beta grows,
    with defect at most lam_max * E(f) / beta.
    """

    form: DirichletForm
    beta: float

    def energy(self, f, g=None) -> float:
        f = np.asarray(f, dtype=float)
        g = f if g is None else np.asarray(g, dtype=float)
        smoothed = self.beta * (f - self.beta * (resolvent(self.form, self.beta) @ f))
        return self.form.space.inner(smoothed, g)

    def __call__(self, f, g=None) -> float:
        return self.energy(f, g)


def yosida_form(form: DirichletForm, beta: float) -> YosidaApproximation:
    if beta <= 0:
        raise NonPositiveBetaError(f"beta must be positive, got {beta}")
    return YosidaApproximation(form, beta)


@dataclass(frozen=True, eq=False)
class CarreDuChamp:
    """Pointwise energy density of a Dirichlet form.

    gamma(f, g)(x) = [sum_y J(x,y)(f(x)-f(y))(g(x)-g(y)) + k(x) f(x) g(x)] / (2 mu(x)).

    The killing contribution keeps the product identity

        E(f, gh) + E(fh, g) - E(fg, h) = 2 * integral of h * gamma(f, g) d(mu)

    exact for every Markovian form; the price is that the integral of
    gamma(f, f) equals E(f) only when the killing vanishes.
    """

    form: DirichletForm

    def __call__(self, f, g=None) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        g = f if g is None else np.asarray(g, dtype=float)
        df = f[:, None] - f[None, :]
        dg = g[:, None] - g[None, :]
        jump_part = (self.form.jump * df * dg).sum(axis=1)
        return 0.5 * (jump_part + self.form.killing * f * g) / self.form.space.mu

    def integral(self, f, g=None) -> float:
        return float(np.dot(self(f, g), self.form.space.mu))


def carre_du_champ(form: DirichletForm) -> CarreDuChamp:
    return CarreDuChamp(form)


def is_invariant(form: DirichletForm, subset: Iterable):
    """Test invariance of a point subset under the dynamics of a form.

    Evaluates the four finite-dimensional criteria: commutation of the
    semigroup with multiplication by the indicator (t in {0.3, 1}), leakage
    of the semigroup and of the resolvent (alpha in {1, 5}) out of the
    subset, and splitting of the energy across the subset and its
    complement.  The verdict is returned with one residual per criterion,
    each against the threshold of :func:`invariant_sets`,
    ``COMPONENT_THRESHOLD`` times the largest jump weight.  The energy
    splitting decides: its residual is the largest jump weight across the
    boundary, so every block of :func:`invariant_sets` and every union of
    blocks is invariant.

    An invariant verdict is checked against the dynamics: the generator
    differs from its split over the subset by the entries C across the
    boundary, so by Duhamel the symmetrized entries sqrt(mu(x) / mu(y))
    G(x, y) across it are at most t rho for G = T_t and rho / alpha^2 for
    the resolvent, with rho the largest row or column sum of
    D^{-1/2} C D^{-1/2}.  Past that bound, plus roundoff of TAU (1 + t gamma)
    and TAU (1 + gamma / alpha) / alpha with gamma = max b(x) / mu(x) (:func:`_row_bounds`),
    :class:`ConsistencyError` is raised.  A jump just above the threshold
    leaks no more than roundoff, so non-invariance is not cross checked.

    When the eigendecomposition of the whole form fails, :class:`NotRepresentableError` is
    raised; :func:`~ergodec.ergodic.verify_decomposition` needs it too and refuses the form.
    """
    labels = list(subset)
    mask = np.zeros(form.n, dtype=bool)
    if labels:
        mask[form.space.indices_of(labels)] = True
    q, times, alphas = form.matrix, (0.3, 1.0), (1.0, 5.0)
    out, back = np.ix_(mask, ~mask), np.ix_(~mask, mask)
    proper = bool(mask.any() and not mask.all())

    def off_block(m) -> float:
        return float(max(np.abs(m[out]).max(), np.abs(m[back]).max())) if proper else 0.0

    ts = tuple(semigroup(form, t) for t in times)
    gs = tuple(resolvent(form, a) for a in alphas)
    # [T_t, 1_S] is T_t across the boundary of S, up to sign, and 0 elsewhere: its max is the leakage.
    leakage = max(off_block(t) for t in ts)
    defects = {
        "semigroup_commutation": leakage,
        "semigroup_leakage": leakage,
        "resolvent_leakage": max(off_block(g) for g in gs),
        "energy_splitting": 0.0 - float(q[out].min(initial=0.0)),  # +0.0 when no jump crosses
    }
    threshold = COMPONENT_THRESHOLD * _largest_jump(q)
    residuals = tuple(Residual(name, value, threshold) for name, value in defects.items())
    invariant = residuals[-1].passed
    if invariant and proper:
        sqrt_mu = np.sqrt(form.space.mu)
        inside, outside = sqrt_mu[mask][:, None], sqrt_mu[~mask][None, :]
        ratio = inside / outside
        coupling = np.abs(q[out]) / inside / outside  # -q, the jumps, unless inside the margins
        rho = float(max(coupling.sum(axis=1).max(), coupling.sum(axis=0).max()))
        gamma = _generator_scale(form)
        bounds = ([t * rho + TAU * (1.0 + t * gamma) for t in times]
                  + [rho / a ** 2 + TAU * (1.0 + gamma / a) / a for a in alphas])
        for m, bound in zip((*ts, *gs), bounds):
            leak = float(max(np.abs(m[out] * ratio).max(), np.abs(m[back] / ratio.T).max()))
            if leak > bound:
                raise ConsistencyError(
                    f"invariance criteria disagree: leakage {leak:.3e} out of an invariant "
                    f"subset exceeds its bound {bound:.3e}",
                    defects,
                )
    return invariant, residuals


def invariant_sets(form: DirichletForm) -> tuple:
    """The minimal invariant partition: connected components of the jump graph.

    A jump weight at or below ``COMPONENT_THRESHOLD`` times the largest
    weight is treated as zero so that numerically vanishing couplings cannot
    merge components; :func:`is_invariant` decides with the same threshold,
    so it accepts every block.  Blocks are ordered by smallest point
    position.  The partition is computed once per form, whose matrix is
    read-only, and kept on it.

    The graph is read from the matrix: off the diagonal the jump weight is
    max(-q, 0), so a weight above a threshold c >= 0 is an entry q < -c.  A
    diagonal entry below -c only adds a loop, which joins nothing.
    """
    return form._invariant_sets


def _jump_components(form: DirichletForm) -> list:
    """The positions of the blocks of :func:`invariant_sets`, searched breadth first by levels."""
    q = form.matrix
    n = form.n
    jmax = _largest_jump(q)
    adjacency = q < -COMPONENT_THRESHOLD * jmax if jmax > 0 else np.zeros((n, n), dtype=bool)
    unseen = np.ones(n, dtype=bool)
    blocks = []
    for start in range(n):
        if not unseen[start]:
            continue
        unseen[start] = False
        levels = [[start]]
        reached = adjacency[start] & unseen
        while reached.any():
            frontier = np.flatnonzero(reached)
            unseen[frontier] = False
            levels.append(frontier)
            reached = adjacency[frontier].any(axis=0)
            reached &= unseen
        blocks.append(np.sort(np.concatenate(levels)))
    return blocks


def _irreducible(matrices: np.ndarray) -> np.ndarray:
    """Per matrix of a (k, s, s) stack, whether :func:`invariant_sets` of its form finds one block.

    Each jump graph, with the threshold of :func:`invariant_sets` on its own
    largest jump, is searched breadth first from its first point, one level
    of every graph at a time.
    """
    k, s = matrices.shape[:2]
    off_diagonal = matrices.reshape(k, -1)[:, 1:].reshape(k, s - 1, s + 1)[:, :, :s]
    jmax = -off_diagonal.min(axis=(1, 2), initial=0.0)
    adjacency = (matrices < (-COMPONENT_THRESHOLD * jmax)[:, None, None]) & (jmax > 0)[:, None, None]
    reached = np.zeros((k, s), dtype=bool)
    reached[:, 0] = True
    frontier = reached.copy()
    while frontier.any():
        b, x = np.nonzero(frontier)
        starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
        hit = np.zeros_like(reached)
        hit[b[starts]] = np.logical_or.reduceat(adjacency[b, x], starts, axis=0)
        frontier = hit & ~reached
        reached |= frontier
    return reached.all(axis=1)


def is_irreducible(form: DirichletForm) -> bool:
    """True when only the trivial subsets are invariant."""
    return len(invariant_sets(form)) == 1


def _density(form: DirichletForm, phi) -> np.ndarray:
    """``phi`` as a float vector, checked as every reweighting of ``form`` needs."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (form.n,):
        raise ValueError("density must be a vector over the points")
    if not np.all(phi > 0):
        raise NonPositivePhiError("density must be strictly positive")
    if not form.killing_free:
        raise HasKillingError("the reweighting transform requires a killing-free form")
    return phi


def girsanov_transform(form: DirichletForm, phi) -> DirichletForm:
    """Reweight a killing-free form by a strictly positive density.

    The transformed form lives on L2(phi^2 mu) and has jump kernel
    J(x,y) * (phi(x)^2 + phi(y)^2) / 2, which realizes

        E_phi(f, g) = sum_x gamma(f, g)(x) phi(x)^2 mu(x)

    exactly.  Killing is refused: the reweighting identity needs the energy
    to be carried by jumps alone.  A reweighted measure phi^2 mu that does not
    fit in floats, a weight that overflows to inf or underflows to 0 or a
    total mass that overflows, raises :class:`NotRepresentableError` naming it.
    """
    phi = _density(form, phi)
    points, mu = form.space.points, form.space.mu
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below refuse what overflows
        phi_sq = phi * phi
        weights = phi_sq * mu
        total = float(weights.sum())
        weight = 0.5 * (phi_sq[:, None] + phi_sq[None, :])
        jump = form.jump * weight
    lost = ~((weights > 0) & (weights < np.inf))
    if lost.any():
        x = int(np.argmax(lost))
        raise NotRepresentableError(
            f"the reweighted measure phi^2 mu does not fit in floats: at point {points[x]!r}, "
            f"phi^2 mu = ({phi[x]:.3e})^2 * {mu[x]:.3e} "
            f"{'overflows to inf' if weights[x] > 0 else 'underflows to 0'}"
        )
    if total == np.inf:
        raise NotRepresentableError(
            "the reweighted measure phi^2 mu does not fit in floats: its total mass overflows to inf"
        )
    return DirichletForm.from_jump_kernel(FiniteMeasureSpace(points, weights), jump)


@dataclass(frozen=True)
class ComponentClassification:
    """Verdicts on a block B: ``mass_defect`` is max_B |1 - T_1 1|, ``energy_floor``
    the bottom eigenvalue of -L_B in L2(mu), not clipped at 0."""

    points: tuple
    conservative: bool
    transient: bool
    recurrent: bool
    mass_defect: float
    energy_floor: float


@dataclass(frozen=True)
class Classification:
    """Global and per-component conservativeness / transience / recurrence flags."""

    conservative: bool
    transient: bool
    recurrent: bool
    per_component: Mapping[str, ComponentClassification]
    conservative_part: tuple
    transient_part: tuple


def classify(form: DirichletForm) -> Classification:
    """Classify a form component by component.

    On a connected finite component the three notions collapse to the
    presence of killing, and the verdict is read from it: a component where
    no point carries killing (see :attr:`DirichletForm.killing_free`) is
    conservative and recurrent, as the constant has zero energy; killing
    anywhere makes it transient, as its energy matrix is positive definite.
    Global flags are the conjunction over the components, so
    ``classify(form).conservative`` is ``form.killing_free``, and the space
    splits as the union of recurrent blocks plus the union of transient
    blocks, with nothing left over.

    Each block B is read from its own eigendecomposition (the global one
    when there is one block), split as the fibers of
    :func:`~ergodec.ergodic.decompose` are, so its row sums are those of the
    whole matrix; the blocks of one size are checked together.  Two bounds
    implied by the killing K_B of the block are checked, and a violation
    raises :class:`ConsistencyError` for the first failing block: the mass
    defect m = 1 - T_1 1 satisfies sum_B k (1 - m) <= <mu, m>_B <= K_B, as
    <mu, m>_B integrates sum_B k T_s 1 over s in [0, 1] and
    T_1 1 <= T_s 1 <= 1; the energy floor, the bottom eigenvalue of -L_B in
    L2(mu), lies in [0, K_B / m_B], the weighted Rayleigh quotient of the
    constant.  The roundoff allowed is TAU (1 + gamma) sqrt(m_B M) for the
    mass, with gamma = max b(x) / mu(x) (:func:`_row_bounds`, A(x, x) on a
    dominant matrix), block mass m_B and total mass M,
    and TAU gamma_B, the same maximum over B, for the floor.  A floor below 0
    may reach Gershgorin's bound for -L_B, below 0 only on a block that
    validation let through inside its margins.
    """
    mu, k, killed = form.space.mu, form.killing, _killed(form)
    rates = form._rates
    mass_slack = TAU * (1.0 + float(rates.max())) * math.sqrt(form.space.total_mass)
    verdicts = [
        _block_verdicts(eig, mu[p], k[p], rates[p], killed[p], mass_slack,
                        lambda p=p: _split_blocks(form.matrix, p, form._dropped))
        for (_, p), eig in zip(form._layout.stacks, form._block_eigs)
    ]
    return _classification(invariant_sets(form), [form._layout.blockwise(c) for c in zip(*verdicts)])


def _block_verdicts(eig, mu, k, rates, killed, mass_slack, blocks) -> tuple:
    """The checks of :func:`classify` on a stack of k blocks, from their stacked eigendecomposition.

    ``mu``, ``k``, ``rates`` (b(x) / mu(x), :func:`_row_bounds`) and ``killed`` are (k, s),
    ``mass_slack`` is TAU (1 + gamma) sqrt(M), one or one per block, and
    ``blocks()`` gives the split blocks, read only for Gershgorin's bound.
    Returns, per block, whether a bound fails, the mass loss, the energy
    floor, the killing K_B, the transient verdict and max |1 - T_1 1|.
    """
    t1 = semigroup_action(eig, 1.0, np.ones(mu.shape))
    mass, killing = mu.sum(axis=-1), k.sum(axis=-1)
    energy_floor, floor_slack = eig[0][:, 0], TAU * rates.max(axis=-1)
    lowest = -floor_slack
    low = energy_floor < lowest
    if low.any():  # inside the validation margins: Gershgorin's bound for -L_B
        a = blocks()
        gershgorin = (2.0 * np.diagonal(a, axis1=-2, axis2=-1) - np.abs(a).sum(axis=-1)) / mu
        lowest = np.where(low, lowest + np.minimum(gershgorin.min(axis=-1), 0.0), lowest)
    with np.errstate(over="ignore", invalid="ignore"):  # overflows only where slack is inf
        slack = mass_slack * np.sqrt(mass)
        lost, kept = mass - dots(mu, t1), dots(k, t1)
        failed = ((lost > killing + slack) | (lost < kept - slack) | (energy_floor < lowest)
                  | (energy_floor > killing / mass + floor_slack))
    return failed, lost, energy_floor, killing, killed.any(axis=-1), np.abs(t1 - 1.0).max(axis=-1)


def _classification(blocks, verdicts) -> Classification:
    """The classification of ``blocks`` from the per-block columns of :func:`_block_verdicts`."""
    failed, lost, energy_floor, killing, transient, mass_defect = verdicts
    if failed.any():
        b = int(np.argmax(failed))
        raise ConsistencyError(
            f"classification criteria disagree on block {blocks[b]}",
            {"mass_loss": float(lost[b]), "energy_floor": float(energy_floor[b]),
             "killing": float(killing[b])},
        )
    per, cons_points, trans_points = {}, [], []
    for i, (block, t, m, floor) in enumerate(zip(blocks, transient.tolist(), mass_defect.tolist(),
                                                  energy_floor.tolist())):
        per[f"z{i}"] = ComponentClassification(block, not t, t, not t, m, floor)
        (trans_points if t else cons_points).extend(block)
    return Classification(
        conservative=all(c.conservative for c in per.values()),
        transient=all(c.transient for c in per.values()),
        recurrent=all(c.recurrent for c in per.values()),
        per_component=per,
        conservative_part=tuple(cons_points),
        transient_part=tuple(trans_points),
    )
