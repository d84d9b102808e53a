"""Ergodic decomposition pipelines for Dirichlet forms on finite spaces.

``decompose`` splits a form over its minimal invariant partition into
irreducible fiber forms on probability fibers; ``decompose_weighted`` runs
the same split through a strictly positive reweighting density and undoes
the reweighting fiberwise, which is unique only up to the projective factor
between the induced index measures.  Invariant measures of the semigroup
are mixtures of the per-fiber stationary measures, and the classification
of the global form is the conjunction of the fiber classifications.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import (
    _split_blocks,
    _stack_index,
    dots,
    resolvent_from_eig,
    semigroup_action,
    semigroup_from_eig,
    symmetrized_eig,
)
from ._stream import Seed0Stream
from ._tolerance import RESIDUAL_TOLERANCE, TAU, Residual, worst
from ._validation import _row_bounds
from .errors import ConsistencyError, NotInvariantError, NotRepresentableError, PartitionMismatchError
from .forms import (
    COMPONENT_THRESHOLD,
    Classification,
    DirichletForm,
    _block_verdicts,
    _classification,
    _density,
    _generator_scale,
    _irreducible,
    _killed,
    _killing,
    _largest_jump,
    _matrix_scale,
    carre_du_champ,
    classify,
    girsanov_transform,
    invariant_sets,
    resolvent,
    semigroup,
)
from .spaces import (
    FiniteMeasureSpace,
    MeasureFamily,
    QuotientMap,
    disintegrate_over_partition,
)


def _max_abs_difference(out: np.ndarray, other: np.ndarray) -> float:
    """max |out - other|, computed in the buffer ``out``."""
    out -= other
    return float(np.abs(out, out=out).max())


def _generator_defect(form: DirichletForm, positions: np.ndarray, matrices: np.ndarray,
                      mu: np.ndarray) -> float:
    """max |L_z - form.generator[B, B]| over a stack of fibers, their ``matrices`` over ``mu`` at
    the (k, s) ``positions``, filling neither generator cache."""
    block_generator = np.negative(form.matrix[_stack_index(positions)])  # a new array, never a view
    block_generator /= form.space.mu[positions][:, :, None]
    defect = np.negative(matrices)
    defect /= mu[:, :, None]
    return _max_abs_difference(defect, block_generator)


def _reassembled_energy(dec: ErgodicDecomposition, fibers, f, g) -> float:
    """sum_z nu(z) E_z(f, g restricted to z) over fiber forms on the blocks of a decomposition."""
    f = np.asarray(f, dtype=float)
    g = f if g is None else np.asarray(g, dtype=float)
    blocks = zip(dec.quotient.index.nu, dec.form._layout.blocks, fibers)
    return sum(float(w) * fiber.energy(f[idx], g[idx]) for w, idx, fiber in blocks)


def _reassembly_residual(defect: float, form: DirichletForm) -> Residual:
    """max |sum_z nu(z) A_z - A| against ``RESIDUAL_TOLERANCE`` times 1 + max |A|."""
    return Residual("form_reassembly", defect, RESIDUAL_TOLERANCE * _matrix_scale(form.matrix))


def _reassembled_matrix(dec: ErgodicDecomposition, fibers) -> np.ndarray:
    """sum_z nu(z) A_z, fiber matrices on the blocks of a decomposition weighted and assembled."""
    n = dec.form.n
    return dec.form._layout.assemble(np.zeros((n, n)), [f.matrix for f in fibers], dec.quotient.index.nu)


@dataclass(frozen=True, eq=False)
class ErgodicDecomposition:
    """A Dirichlet form split over its minimal invariant partition.

    The quotient and family live over the probability-normalized measure
    (the total mass is recorded in ``normalization_scale``); the fiber data
    does not depend on the normalization.  Each fiber form is the Dirichlet
    form of the restricted semigroup on L2 of its probability fiber measure,
    so the fiber generators are exactly the diagonal blocks of the global
    generator and

        E(f) = normalization_scale * sum_z nu(z) E_z(f restricted to z)

    holds exactly.
    """

    form: DirichletForm
    quotient: QuotientMap
    fibers: tuple
    normalization_scale: float

    @property
    def labels(self) -> tuple:
        return self.quotient.index.labels

    @property
    def family(self) -> MeasureFamily:
        return self.quotient.family

    @cached_property
    def _fiber_stacks(self) -> tuple:
        """``(matrices, mu)`` of the fibers per stack of the form's layout, whose blocks are the
        quotient's in the same order; a stack of one is a view."""
        layout = self.form._layout
        return tuple(zip(layout.stack([f.matrix for f in self.fibers]),
                         layout.stack([f.space.mu for f in self.fibers])))

    @cached_property
    def _fiber_eigs(self) -> tuple:
        """The symmetrized eigendecomposition of each stack of fibers: one ``eigh`` per block size."""
        return tuple(symmetrized_eig(a, mu) for a, mu in self._fiber_stacks)

    @cached_property
    def _fibers_irreducible(self) -> np.ndarray:
        """Per fiber, whether :func:`~ergodec.forms.invariant_sets` finds it one block."""
        return self.form._layout.blockwise([_irreducible(a) for a, _ in self._fiber_stacks])

    @cached_property
    def residuals(self) -> tuple:
        """The max-abs defects of the energy reassembly and of the fiber generators, on first
        access, against ``RESIDUAL_TOLERANCE`` times their scales 1 + max |A| and 1 + gamma."""
        generator_defects = [_generator_defect(self.form, p, a, mu)
                             for (_, p), (a, mu) in zip(self.form._layout.stacks, self._fiber_stacks)]
        return (
            _reassembly_residual(self._reassembly, self.form),
            Residual("fiber_generator", float(np.max(generator_defects)),
                     RESIDUAL_TOLERANCE * (1.0 + _generator_scale(self.form))),
        )

    @cached_property
    def _reassembly(self) -> float:
        """The ``form_reassembly`` residual, which :func:`verify_decomposition` reads alone."""
        return _max_abs_difference(self.reassembled_matrix(), self.form.matrix)

    @cached_property
    def fiber_forms(self) -> dict:
        return dict(zip(self.labels, self.fibers))

    def reassembled_energy(self, f, g=None) -> float:
        return self.normalization_scale * _reassembled_energy(self, self.fibers, f, g)

    def reassembled_matrix(self) -> np.ndarray:
        out = _reassembled_matrix(self, self.fibers)
        out *= self.normalization_scale
        return out


def _representable(form: DirichletForm) -> tuple:
    """The probability-normalized space and the block masses m_B, in the order of
    :func:`~ergodec.forms.invariant_sets`, of a form whose fibers fit in floats.

    :meth:`~ergodec.spaces.FiniteMeasureSpace.normalized` refuses a weight
    that underflows.  A jump above the threshold of :func:`invariant_sets`
    joins its points and a positive killing counted by
    :func:`~ergodec.forms.classify` makes its block transient; divided by m_B,
    either one must stay at or above the smallest normal float, or the fiber
    A_B / m_B would split or lose its verdict.  A block's rows are searched
    only when the threshold over m_B is below it.  Each refusal is a
    :class:`NotRepresentableError`.
    """
    normalized = form.space.normalized()
    tiny = np.finfo(float).tiny
    points, layout, mu = form.space.points, form._layout, form.space.mu
    masses = layout.blockwise([mu[p].sum(axis=-1) for _, p in layout.stacks])
    block_mass = masses[layout.block_of]
    lost = _killed(form) & (form.killing > 0) & (form.killing / block_mass < tiny)
    if lost.any():
        x = int(np.argmax(lost))
        raise NotRepresentableError(
            f"the fibers do not fit in floats: the killing {form.killing[x]:.3e} at "
            f"{points[x]!r} over its block mass {block_mass[x]:.3e} underflows"
        )
    threshold = COMPONENT_THRESHOLD * _largest_jump(form.matrix)
    for b in np.flatnonzero(~(threshold / masses >= tiny)):  # the threshold over m_B underflows
        idx, mass = layout.blocks[b], masses[b]
        for x in idx:
            row = form.matrix[x, idx]
            lost = (row < -threshold) & (row / mass > -tiny)
            if lost.any():
                y = idx[np.argmax(lost)]
                raise NotRepresentableError(
                    f"the fibers do not fit in floats: the jump {-form.matrix[x, y]:.3e} from "
                    f"{points[x]!r} to {points[y]!r} over their block mass {mass:.3e} underflows"
                )
    return normalized, masses


def decompose(form: DirichletForm) -> ErgodicDecomposition:
    """Split a Dirichlet form into irreducible fibers over its invariant partition.

    The measure is normalized to a probability internally and the scale is
    recorded; only the index weights depend on the scale.  Fiber energy
    matrices are the diagonal blocks of the energy matrix divided by the raw
    block mass, which is the unique choice making the fiber semigroups the
    blocks of the global semigroup on the probability fibers (checked via
    the generator blocks in :attr:`ErgodicDecomposition.residuals`).  The
    jump weights that :func:`~ergodec.forms.invariant_sets` treats as zero
    are taken off the diagonal as well (see ``_split_blocks``), so a fiber
    carries the killing of its points and no more, and gets the verdicts of
    :func:`~ergodec.forms.classify` on the whole form.

    Fibers are not re-validated: a principal block of a validated form over
    an invariant set is Markovian and positive semidefinite by construction,
    and stays bitwise symmetric when divided by m_B and given a diagonal, so
    each fiber form wraps its matrix over the family's own fiber measure,
    without the ``eigvalsh`` and witness search of
    :func:`~ergodec.forms.is_markovian`.  :func:`verify_decomposition` stays
    the independent dense check of the result.  The fibers of one size are
    split from the matrix as one stack, and their matrices are views of it.
    A form whose normalized measure or fibers underflow raises
    :class:`NotRepresentableError`.
    """
    normalized, masses = _representable(form)
    qmap, family = disintegrate_over_partition(normalized, invariant_sets(form))
    spaces, fibers = family.fiber_spaces(), [None] * len(masses)
    for members, positions in form._layout.stacks:
        stack = _split_blocks(form.matrix, positions, form._dropped, masses[members])
        bounds = [None] * len(stack) if form._bounds is None else _row_bounds(stack)
        for b, a, k, bound in zip(members.tolist(), stack, _killing(stack), bounds):
            fibers[b] = DirichletForm._unchecked(spaces[b], a, k, bound)
    return ErgodicDecomposition(
        form=form,
        quotient=qmap,
        fibers=tuple(fibers),
        normalization_scale=form.space.total_mass,
    )


@dataclass(frozen=True)
class DecompositionReport:
    """The residuals of a decomposition's identities, ``"form"``, ``("semigroup", t)``,
    ``("resolvent", alpha)`` and ``"isometry"`` in that order, and whether each fiber is irreducible."""

    residuals: tuple
    fibers_irreducible: tuple

    @property
    def passed(self) -> bool:
        return worst(self.residuals).passed and all(self.fibers_irreducible)


def verify_decomposition(
    dec: ErgodicDecomposition,
    *,
    tolerance: float = RESIDUAL_TOLERANCE,
    times=(0.1, 1.0, 10.0),
    alphas=(0.5, 1.0, 10.0),
    trials: int = 20,
    rng=None,
) -> DecompositionReport:
    """Re-derive the decomposition identities and report their residuals.

    Checks the energy reassembly on the standard basis, the blockwise
    splitting of the semigroup and the resolvent at the given parameters,
    the isometry of the diagonal embedding on random vectors, and that each
    fiber is irreducible.  Every residual is checked against ``tolerance``.
    The vectors are drawn from ``rng``, by default the stream
    of ``numpy.random.default_rng(0)``, reproduced without importing
    ``numpy.random``.

    Every eigendecomposition is taken before the first n x n product, and
    each global product is released before the next one is built: the
    fiber blocks are subtracted from it in place, which off the blocks
    leaves its entries as they are, bit for bit.  The global form is the
    independent oracle: its eigendecomposition and its products are dense,
    while the fibers of one size take one ``eigh`` and one product per
    parameter as a stack, each fiber with the bits of its own call.
    """
    form = dec.form
    n = form.n
    form_defect = Residual("form", dec._reassembly / _matrix_scale(form.matrix), tolerance)

    form._eig  # cached on the form for the products below
    fiber_eigs, layout = dec._fiber_eigs, form._layout

    def splitting_defect(operator, fiber_operator, parameter) -> float:
        """The Frobenius norm of the global operator minus its fiber blocks.

        Entries (x, y) carry a factor sqrt(mu(y) / mu(x)), so on weights
        hundreds of orders of magnitude apart the norm can overflow to inf,
        which fails the check without a warning.
        """
        out = operator(form, parameter)
        for (_, positions), eig in zip(layout.stacks, fiber_eigs):
            out[_stack_index(positions)] -= fiber_operator(eig, parameter)
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(out, "fro"))

    splittings = [Residual(("semigroup", t), splitting_defect(semigroup, semigroup_from_eig, t), tolerance)
                  for t in times]
    splittings += [Residual(("resolvent", a), splitting_defect(resolvent, resolvent_from_eig, a), tolerance)
                   for a in alphas]

    # ||f||^2 against sum_z nu(z) ||f restricted to z||^2 over the family, the
    # fiber terms summed in index order as MeasureFamily.inner sums them.
    rng = Seed0Stream() if rng is None else rng
    f = rng.uniform(-1.0, 1.0, size=trials * n).reshape(trials, n)
    family, terms = dec.family, np.empty((trials, layout.count))
    for (members, positions), mu in zip(layout.stacks, layout.stack([z.mu for z in family.fiber_spaces()])):
        g = f[:, positions]
        terms[:, members] = family.index.nu[members] * dots(g * mu, g)
    fiber_norms = np.sqrt(np.maximum(np.cumsum(terms, axis=1)[:, -1], 0.0))
    isometry_defect = np.abs(fiber_norms - np.sqrt(dots(f * f, dec.quotient.space.mu)))
    isometry = Residual("isometry", float(np.max(isometry_defect, initial=0.0)), tolerance)
    return DecompositionReport((form_defect, *splittings, isometry),
                               tuple(dec._fibers_irreducible.tolist()))


def carre_decomposition(
    dec: ErgodicDecomposition, *, trials: int = 20, rng=None
) -> tuple[tuple, tuple]:
    """Per-fiber energy densities of a decomposition, with their residuals.

    The fiber density of a restricted vector agrees pointwise with the
    global density on the fiber (the index weight scales the kernel and the
    measure oppositely and cancels): the residual ``"restriction"``.  For
    killing-free fibers, ``"integral"`` is the defect of integrating the
    density against the fiber measure versus the fiber energy, and
    ``"product_identity"`` is the worst defect of the product identity, on
    random triples per fiber drawn from ``rng``, by default the stream of
    ``numpy.random.default_rng(0)``, reproduced without importing
    ``numpy.random``.  Each is checked against ``RESIDUAL_TOLERANCE``.
    """
    gamma = carre_du_champ(dec.form)
    fiber_gammas = tuple(carre_du_champ(fiber) for fiber in dec.fibers)
    rng = Seed0Stream() if rng is None else rng
    n = dec.form.n

    defects = {"restriction": [0.0], "integral": [0.0], "product_identity": [0.0]}
    for _ in range(trials):
        f = rng.uniform(-1.0, 1.0, size=n)
        g = rng.uniform(-1.0, 1.0, size=n)
        h = rng.uniform(-1.0, 1.0, size=n)
        global_density = gamma(f, g)
        for idx, fiber, fg in zip(dec.form._layout.blocks, dec.fibers, fiber_gammas):
            fz, gz, hz = f[idx], g[idx], h[idx]
            defects["restriction"].append(np.abs(fg(fz, gz) - global_density[idx]).max())
            if fiber.killing_free:
                defects["integral"].append(abs(fg.integral(fz) - fiber.energy(fz)))
            lhs = (
                fiber.energy(fz, gz * hz)
                + fiber.energy(fz * hz, gz)
                - fiber.energy(fz * gz, hz)
            )
            rhs = 2.0 * float(np.dot(hz * fg(fz, gz), fiber.space.mu))
            defects["product_identity"].append(abs(lhs - rhs))
    return fiber_gammas, tuple(Residual(name, float(np.max(values)), RESIDUAL_TOLERANCE)
                               for name, values in defects.items())


@dataclass(frozen=True, eq=False)
class WeightedDecomposition:
    """A decomposition through a positive density, with the reweighting undone.

    ``base`` is the plain decomposition of the transformed form on
    L2(phi^2 mu).  The lifted fiber measures divide the density back out and
    are sigma-finite rather than probabilities; the lifted fiber forms are
    the inverse transforms of the fiber forms under the density restricted
    to each fiber.  Reassembly of the original energy is exact, and two
    densities give the same fibers up to the ratio of their index measures.
    """

    form: DirichletForm
    density: np.ndarray
    base: ErgodicDecomposition
    lifted_measures: tuple
    lifted_forms: tuple

    @property
    def labels(self) -> tuple:
        return self.base.labels

    @cached_property
    def residuals(self) -> tuple:
        """The ``form_reassembly`` residual of the lifted fibers, computed on first access."""
        reassembled = _reassembled_matrix(self.base, self.lifted_forms)
        return (_reassembly_residual(_max_abs_difference(reassembled, self.form.matrix), self.form),)

    @property
    def index_weights(self) -> np.ndarray:
        return self.base.quotient.index.nu

    def reassembled_energy(self, f, g=None) -> float:
        return _reassembled_energy(self.base, self.lifted_forms, f, g)


def decompose_weighted(form: DirichletForm, phi) -> WeightedDecomposition:
    """Decompose a killing-free form through a strictly positive density.

    The density is normalized to unit L2(mu) norm, so the transformed
    measure is a probability and the base decomposition needs no further
    rescaling.  Undoing the transform divides the fiber measures by the
    squared density pointwise and divides the fiber jump kernels by the
    edge reweighting factor; for a density constant on each fiber this is
    the same as transforming by the reciprocal density.  The invariant
    partition always equals the unweighted one.
    """
    phi = _density(form, phi)
    phi = phi / form.space.norm(phi)

    transformed = girsanov_transform(form, phi)
    base = decompose(transformed)

    lifted_measures = []
    lifted_forms = []
    for idx, fiber in zip(base.form._layout.blocks, base.fibers):
        phi_sq = phi[idx] ** 2
        measure = fiber.space.mu / phi_sq
        reweight = 0.5 * (phi_sq[:, None] + phi_sq[None, :])
        lifted_space = FiniteMeasureSpace(fiber.space.points, measure)
        lifted = DirichletForm.from_jump_kernel(lifted_space, fiber.jump / reweight)
        lifted_measures.append(measure)
        lifted_forms.append(lifted)

    return WeightedDecomposition(
        form=form,
        density=phi,
        base=base,
        lifted_measures=tuple(lifted_measures),
        lifted_forms=tuple(lifted_forms),
    )


@dataclass(frozen=True)
class ProjectiveComparison:
    """The change-of-density factor of two weighted decompositions, and the residuals under it."""

    density_ratio: np.ndarray
    residuals: tuple


def compare_projective(
    dec_phi: WeightedDecomposition, dec_psi: WeightedDecomposition
) -> ProjectiveComparison:
    """Compare two weighted decompositions of the same form.

    The partitions must coincide; the comparison returns the ratio
    g = nu_psi / nu_phi on the index space and checks that the lifted fiber
    measures match under g and the lifted fiber forms under 1/g, each
    max-abs defect against ``RESIDUAL_TOLERANCE``:

        mu_z[phi] = g(z) * mu_z[psi],      E_z[psi] = (1/g(z)) * E_z[phi].

    Raises
    ------
    PartitionMismatchError
        If the two decompositions do not share the invariant partition.
    """
    blocks_phi = [dec_phi.base.quotient.blocks[z] for z in dec_phi.labels]
    blocks_psi = [dec_psi.base.quotient.blocks[z] for z in dec_psi.labels]
    if blocks_phi != blocks_psi:
        raise PartitionMismatchError("decompositions disagree on the invariant partition")

    ratio = dec_psi.index_weights / dec_phi.index_weights
    lifted = zip(ratio, dec_phi.lifted_measures, dec_psi.lifted_measures,
                 dec_phi.lifted_forms, dec_psi.lifted_forms)
    defects = np.array([(np.abs(m_phi - g * m_psi).max(), np.abs(f_psi.matrix - f_phi.matrix / g).max())
                        for g, m_phi, m_psi, f_phi, f_psi in lifted]).max(axis=0)
    return ProjectiveComparison(ratio, tuple(Residual(name, float(d), RESIDUAL_TOLERANCE)
                                             for name, d in zip(("measure", "form"), defects)))


@dataclass(frozen=True, eq=False)
class ErgodicMeasure:
    """A normalized invariant measure carried by one recurrent component."""

    component: tuple
    weights: np.ndarray


def _stationarity_defects(eig, x: np.ndarray) -> np.ndarray:
    """max |T_1^T x - x| per block of a stack, T_1^T applied from its stacked eigendecomposition."""
    return np.abs(semigroup_action(eig, 1.0, x, transpose=True) - x).max(axis=-1)


def ergodic_measures(form: DirichletForm) -> tuple:
    """All ergodic invariant probability measures of the semigroup.

    The invariant densities form the kernel of the generator: constants on
    each killing-free component, zero on components carrying killing.  The
    ergodic ones are the normalized restrictions w = mu_B / m_B of the
    reference measure to the components :func:`~ergodec.forms.classify`
    finds recurrent, and T_1^T w is applied from the block eigendecomposition
    it read.  T_1 is self-adjoint in L2(mu), so the stationarity defect of w
    is w (1 - T_1 1), at most the mass defect of the component; a defect past
    it by more than TAU (1 + gamma), with gamma = max b(x) / mu(x) (``forms._row_bounds``), raises
    :class:`ConsistencyError`.  T_1^T is applied to the blocks of one size
    together.  What :func:`decompose` refuses is refused.
    """
    return tuple(m for _, m in _ergodic_measures(form))


def _ergodic_measures(form: DirichletForm) -> tuple:
    """The measures of :func:`ergodic_measures`, each after the layout number of its block."""
    _representable(form)
    classes = tuple(classify(form).per_component.values())
    mu, slack, layout = form.space.mu, TAU * (1.0 + _generator_scale(form)), form._layout
    normalized, defects = np.zeros(form.n), np.zeros(layout.count)
    for (members, positions), eig in zip(layout.stacks, form._block_eigs):
        w = mu[positions] / mu[positions].sum(axis=-1, keepdims=True)
        normalized[positions] = w
        defects[members] = _stationarity_defects(eig, w)
    out = []
    for b, comp in enumerate(classes):
        if comp.transient:
            continue
        defect = float(defects[b])
        if not defect <= comp.mass_defect + slack:
            raise ConsistencyError(
                f"stationarity check failed on component {comp.points}", {"stationarity": defect}
            )
        out.append((b, ErgodicMeasure(comp.points, np.where(layout.block_of == b, normalized, 0.0))))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class InvariantMeasureMixture:
    """An invariant measure written as a mixture of ergodic ones."""

    ergodic: tuple
    weights: np.ndarray
    reconstruction_defect: float

    def reconstructed(self) -> np.ndarray:
        out = np.zeros_like(self.ergodic[0].weights) if self.ergodic else np.zeros(0)
        for w, lam in zip(self.weights, self.ergodic):
            out = out + w * lam.weights
        return out

    @property
    def support(self) -> tuple:
        """Positions of the ergodic measures carrying positive mixture mass."""
        return tuple(int(i) for i in np.flatnonzero(self.weights > 0))


def decompose_invariant_measure(
    form: DirichletForm, eta, *, tol: float = RESIDUAL_TOLERANCE
) -> InvariantMeasureMixture:
    """Write an invariant measure as a mixture of the ergodic measures.

    The ergodic measures are found first, by :func:`ergodic_measures`, and
    their checks raise first.  Then the measure is checked for invariance
    under the time-one semigroup, block by block from the same
    eigendecompositions; the mixture weight of an ergodic component is the total
    mass the measure gives it, and the reconstruction is exact.
    :attr:`InvariantMeasureMixture.ergodic` holds the ergodic measures.

    Raises
    ------
    NotInvariantError
        If the invariance defect, max |T_1^T eta - eta|, exceeds ``tol`` times max eta;
        carries the defect.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (form.n,):
        raise ValueError("measure must be a weight vector over the points")
    if np.any(eta < 0):
        raise ValueError("measure weights must be nonnegative")
    ergodic, layout = _ergodic_measures(form), form._layout
    defects = [_stationarity_defects(eig, eta[p]) for (_, p), eig in zip(layout.stacks, form._block_eigs)]
    invariance = Residual("invariance", float(np.max(np.concatenate(defects))), tol * float(eta.max()))
    if not invariance.passed:
        raise NotInvariantError(invariance.value)

    measures = tuple(m for _, m in ergodic)
    weights = np.array([float(eta[layout.blocks[b]].sum()) for b, _ in ergodic])
    mixture = InvariantMeasureMixture(measures, weights, 0.0)
    rec = mixture.reconstructed() if measures else np.zeros(form.n)
    object.__setattr__(mixture, "reconstruction_defect", float(np.abs(rec - eta).max()))
    return mixture


@dataclass(frozen=True)
class MixtureRelations:
    """Absolute continuity and singularity of two invariant measures.

    The flags are computed twice, once from the supports of the measures on
    the points and once from the supports of their mixture weights; the two
    computations must agree, which is the finite form of the correspondence
    between invariant measures and their mixing measures.
    """

    ac_forward: bool
    ac_backward: bool
    mutually_singular: bool
    consistent: bool


def invariant_measure_relations(
    form: DirichletForm, mix_a: InvariantMeasureMixture, mix_b: InvariantMeasureMixture
) -> MixtureRelations:
    sa, sb = set(mix_a.support), set(mix_b.support)
    ac_forward = sa <= sb
    ac_backward = sb <= sa
    singular = not (sa & sb)

    pa = set(np.flatnonzero(mix_a.reconstructed() > 0))
    pb = set(np.flatnonzero(mix_b.reconstructed() > 0))
    consistent = (
        (pa <= pb) == ac_forward
        and (pb <= pa) == ac_backward
        and (not (pa & pb)) == singular
    )
    return MixtureRelations(ac_forward, ac_backward, singular, consistent)


@dataclass(frozen=True)
class DecompositionClassification:
    """Global classification next to the per-fiber ones, with the splitting."""

    overall: Classification
    per_fiber: tuple
    conservative_part: tuple
    transient_part: tuple
    consistent: bool


def classification_decomposition(dec: ErgodicDecomposition) -> DecompositionClassification:
    """Classify a decomposition fiber by fiber and check the global equivalences.

    Conservativeness, transience and recurrence of the global form must each
    equal the conjunction of the fiber flags; the space splits into the
    union of recurrent fibers and the union of transient fibers with no
    exceptional remainder.

    Each fiber is a form of its own, classified as :func:`classify` does, from
    the stacked eigendecompositions :func:`verify_decomposition` reads: the
    fibers of one size are checked together.  A fiber that is not
    irreducible is classified by :func:`classify` over its own blocks.
    """
    overall = classify(dec.form)
    verdicts = []
    for (a, mu), eig, k in zip(dec._fiber_stacks, dec._fiber_eigs,
                               dec.form._layout.stack([f.killing for f in dec.fibers])):
        diagonal = np.diagonal(a, axis1=-2, axis2=-1)
        rates = (diagonal if dec.form._bounds is None else _row_bounds(a)) / mu
        mass_slack = TAU * (1.0 + rates.max(axis=-1)) * np.sqrt(mu.sum(axis=-1))
        verdicts.append(_block_verdicts(eig, mu, k, rates, k > TAU * diagonal, mass_slack,
                                        lambda a=a: a))
    columns = [dec.form._layout.blockwise(c) for c in zip(*verdicts)]
    per_fiber = tuple(
        _classification((fiber.space.points,), [c[b:b + 1] for c in columns])
        if dec._fibers_irreducible[b] else classify(fiber)
        for b, fiber in enumerate(dec.fibers)
    )
    consistent = (
        overall.conservative == all(c.conservative for c in per_fiber)
        and overall.transient == all(c.transient for c in per_fiber)
        and overall.recurrent == all(c.recurrent for c in per_fiber)
    )
    cons, trans = [], []
    for z, c in zip(dec.labels, per_fiber):
        (cons if c.recurrent else trans).extend(dec.quotient.blocks[z])
    return DecompositionClassification(overall, per_fiber, tuple(cons), tuple(trans), consistent)
