import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodec import (
    DirichletForm,
    HasKillingError,
    NotInvariantError,
    PartitionMismatchError,
    carre_decomposition,
    carre_du_champ,
    classification_decomposition,
    classify,
    compare_projective,
    decompose,
    decompose_invariant_measure,
    decompose_weighted,
    ergodic_measures,
    invariant_measure_relations,
    invariant_sets,
    random_form,
    validate_space,
    verify_decomposition,
    worst,
)

from conftest import brute_force_invariant_partition, partition_forms, residual_values, spy


# ------------------------------------------------------------ decompose


def test_decompose_twin(fx_twin):
    dec = decompose(fx_twin)
    assert dec.labels == ("z0", "z1")
    assert np.allclose(dec.quotient.index.nu, [0.5, 0.5])
    assert np.allclose(dec.fibers[0].matrix, 2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.allclose(dec.fibers[1].matrix, 4.0 * np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert residual_values(dec.residuals)["form_reassembly"] == 0.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = rng.uniform(-1, 1, 4)
        assert dec.reassembled_energy(f) == pytest.approx(fx_twin.energy(f), abs=1e-12)


def test_decompose_irreducible_records_scale(fx_edge):
    dec = decompose(fx_edge)
    assert dec.labels == ("z0",)
    assert dec.normalization_scale == pytest.approx(2.0)
    assert np.allclose(dec.quotient.index.nu, [1.0])
    # Single fiber form is the original energy over the total mass, on the
    # probability-normalized measure.
    assert np.allclose(dec.fibers[0].matrix, fx_edge.matrix / 2.0)
    assert np.allclose(dec.fibers[0].space.mu, [0.5, 0.5])
    f = np.array([1.0, -1.0])
    assert dec.reassembled_energy(f) == pytest.approx(fx_edge.energy(f), abs=1e-14)


def test_decompose_grid_rows(fx_grid):
    dec = decompose(fx_grid)
    assert len(dec.fibers) == 2
    for fiber in dec.fibers:
        assert fiber.n == 3
        assert np.allclose(fiber.space.mu, [1 / 3, 1 / 3, 1 / 3])
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = rng.uniform(-1, 1, 6)
        assert dec.reassembled_energy(f) == pytest.approx(fx_grid.energy(f), abs=1e-12)


def test_fiber_generators_are_generator_blocks(fx_twin_kill):
    dec = decompose(fx_twin_kill)
    assert residual_values(dec.residuals)["fiber_generator"] <= 1e-13
    for z, fiber in zip(dec.labels, dec.fibers):
        idx = dec.quotient.block_indices(z)
        block = fx_twin_kill.generator[np.ix_(idx, idx)]
        assert np.abs(fiber.generator - block).max() <= 1e-13


def test_strong_consistency(fx_twin):
    dec = decompose(fx_twin)
    for z in dec.labels:
        assert dec.family.fibers[z].support == dec.quotient.blocks[z]


def test_decompose_idempotent_on_fibers(fx_twin_kill):
    dec = decompose(fx_twin_kill)
    for fiber in dec.fibers:
        sub = decompose(fiber)
        assert len(sub.fibers) == 1


def test_decompose_matches_exhaustive_search():
    for seed in range(40):
        n = 4 + seed % 7
        comps = 1 + seed % 3
        form = random_form(seed, n, min(comps, n), killing_prob=0.2)
        dec = decompose(form)
        partition = tuple(dec.quotient.blocks[z] for z in dec.labels)
        assert partition == brute_force_invariant_partition(form)


def test_decompose_permutation_equivariant():
    form = random_form(5, 12, 3, killing_prob=0.2)
    rng = np.random.default_rng(99)
    perm = rng.permutation(12)
    space = validate_space(
        [(form.space.points[i], form.space.mu[i]) for i in perm]
    )
    permuted = DirichletForm.from_matrix(space, form.matrix[np.ix_(perm, perm)])

    dec = decompose(form)
    dec_p = decompose(permuted)
    blocks = {frozenset(b) for b in dec.quotient.blocks.values()}
    blocks_p = {frozenset(b) for b in dec_p.quotient.blocks.values()}
    assert blocks == blocks_p
    # Same fiber data modulo the induced relabeling: compare energies of the
    # indicator of each block.
    for block in blocks:
        f = np.array([1.0 if p in block else 0.0 for p in form.space.points])
        f_p = np.array([1.0 if p in block else 0.0 for p in permuted.space.points])
        assert dec.reassembled_energy(f) == pytest.approx(
            dec_p.reassembled_energy(f_p), abs=1e-12
        )
    assert max(residual_values(dec.residuals).values()) <= 1e-12
    assert max(residual_values(dec_p.residuals).values()) <= 1e-12


# ------------------------------------------------------------ verification


def test_verify_twin_exact(fx_twin):
    report = verify_decomposition(decompose(fx_twin))
    assert report.passed
    assert residual_values(report.residuals)["form"] <= 1e-12
    assert max(residual_values(report.residuals, "semigroup").values()) <= 1e-12
    assert max(residual_values(report.residuals, "resolvent").values()) <= 1e-12
    assert residual_values(report.residuals)["isometry"] <= 1e-12
    assert all(report.fibers_irreducible)


def test_verify_single_fiber(fx_edge):
    report = verify_decomposition(decompose(fx_edge))
    assert report.passed and residual_values(report.residuals)["form"] <= 1e-12


def test_verify_detects_scaled_fiber(fx_twin):
    dec = decompose(fx_twin)
    scaled = DirichletForm.from_matrix(dec.fibers[0].space, 1.1 * dec.fibers[0].matrix)
    object.__setattr__(dec, "fibers", (scaled, dec.fibers[1]))
    report = verify_decomposition(dec)
    assert not report.passed
    # The defect is linear: 0.1 * nu(z0) * the fiber energy scale.
    assert residual_values(report.residuals)["form"] == pytest.approx(
        0.1 * 0.5 * 2.0 / (1.0 + np.abs(fx_twin.matrix).max()), rel=1e-10
    )


def test_nan_fiber_generator_defect_is_kept(monkeypatch):
    # mu = 1e-300 under a jump of 1e300 overflows both generators to inf.
    # Such a form is refused; built past the range check, the generator
    # defect of its first fiber is inf - inf = NaN, and it is kept.
    import ergodec.forms

    from ergodec import NotRepresentableError

    space = validate_space([("a", 1e-300), ("b", 1.0)])
    jump = np.array([[0.0, 1e300], [1e300, 0.0]])
    with pytest.raises(NotRepresentableError):
        DirichletForm.from_jump_kernel(space, jump)
    monkeypatch.setattr(ergodec.forms, "_check_range", lambda matrix, space: None)
    with np.errstate(all="ignore"):
        form = DirichletForm.from_jump_kernel(space, jump)
        defect = residual_values(decompose(form).residuals)["fiber_generator"]
    assert np.isnan(defect)


def test_nan_semigroup_defect_at_one_time_fails(monkeypatch, fx_twin):
    import ergodec.ergodic

    original = ergodec.ergodic.semigroup

    def poisoned(form, t):
        out = original(form, t)
        return np.full_like(out, np.nan) if form is fx_twin and t == 1.0 else out

    monkeypatch.setattr(ergodec.ergodic, "semigroup", poisoned)
    report = verify_decomposition(decompose(fx_twin))
    assert np.isnan(residual_values(report.residuals, "semigroup")[1.0])
    assert residual_values(report.residuals, "semigroup")[0.1] <= 1e-12
    assert not report.passed
    assert np.isnan(worst(report.residuals).value)


# ------------------------------------------------------------ carre du champ


def test_carre_decomposition_twin(fx_twin):
    dec = decompose(fx_twin)
    gammas, report = carre_decomposition(dec)
    f = np.array([1.0, 0.0, 0.0, 0.0])
    gamma = carre_du_champ(fx_twin)
    assert np.allclose(gamma(f), [2.0, 2.0, 0.0, 0.0])
    assert np.allclose(gammas[0](f[:2]), [2.0, 2.0])
    assert gammas[0].integral(f[:2]) == pytest.approx(dec.fibers[0].energy(f[:2]), abs=1e-12)
    assert residual_values(report)["restriction"] <= 1e-12
    assert residual_values(report)["integral"] <= 1e-12
    assert residual_values(report)["product_identity"] <= 1e-12


def test_carre_decomposition_constant(fx_grid):
    dec = decompose(fx_grid)
    gammas, _ = carre_decomposition(dec)
    for fiber, gamma in zip(dec.fibers, gammas):
        assert np.allclose(gamma(np.ones(fiber.n)), 0.0)


def test_carre_decomposition_random_instances():
    for seed in (0, 1, 2):
        form = random_form(seed, 14, 3, killing_prob=0.3)
        _, report = carre_decomposition(decompose(form))
        assert residual_values(report)["restriction"] <= 1e-12
        assert residual_values(report)["product_identity"] <= 1e-12


# ------------------------------------------------------------ weighted


def test_weighted_identity_density(fx_twin):
    dec = decompose(fx_twin)
    wdec = decompose_weighted(fx_twin, np.ones(4))
    assert np.allclose(wdec.index_weights, dec.quotient.index.nu)
    for a, b in zip(wdec.lifted_forms, dec.fibers):
        assert np.allclose(a.matrix, b.matrix)
        assert np.allclose(a.space.mu, b.space.mu)


def test_weighted_twin_worked_numbers(fx_twin):
    psi = np.array([1.0, 1.0, 2.0, 2.0]) / np.sqrt(2.5)
    wdec = decompose_weighted(fx_twin, psi)
    assert np.allclose(wdec.index_weights, [0.2, 0.8])
    assert np.allclose(wdec.base.family.fibers["z0"].weights, [0.5, 0.5])
    assert np.allclose(wdec.lifted_measures[0], [1.25, 1.25])
    assert residual_values(wdec.residuals)["form_reassembly"] <= 1e-12
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = rng.uniform(-1, 1, 4)
        assert wdec.reassembled_energy(f) == pytest.approx(fx_twin.energy(f), abs=1e-12)


def test_weighted_partition_unchanged(fx_grid):
    rng = np.random.default_rng(3)
    phi = rng.uniform(0.5, 2.0, 6)
    wdec = decompose_weighted(fx_grid, phi)
    dec = decompose(fx_grid)
    assert wdec.base.quotient.blocks == dec.quotient.blocks


def test_weighted_rejects_killing(fx_kill):
    with pytest.raises(HasKillingError):
        decompose_weighted(fx_kill, np.ones(2))


def test_projective_uniqueness_twin(fx_twin):
    one = decompose_weighted(fx_twin, np.ones(4))
    psi = decompose_weighted(fx_twin, np.array([1.0, 1.0, 2.0, 2.0]) / np.sqrt(2.5))
    comparison = compare_projective(one, psi)
    assert np.allclose(comparison.density_ratio, [0.4, 1.6])
    # mu_z0 under the flat density equals 0.4 times the lifted one.
    assert np.allclose(one.lifted_measures[0], 0.4 * psi.lifted_measures[0])
    assert max(residual_values(comparison.residuals).values()) <= 1e-12


def test_projective_uniqueness_same_density(fx_grid):
    rng = np.random.default_rng(4)
    phi = rng.uniform(0.5, 2.0, 6)
    a = decompose_weighted(fx_grid, phi)
    b = decompose_weighted(fx_grid, phi)
    comparison = compare_projective(a, b)
    assert np.allclose(comparison.density_ratio, 1.0)
    assert max(residual_values(comparison.residuals).values()) == 0.0


def test_projective_uniqueness_random():
    rng = np.random.default_rng(5)
    for seed in range(25):
        form = random_form(seed, int(rng.integers(6, 20)), int(rng.integers(2, 5)))
        n = form.n
        phi = rng.uniform(0.5, 2.0, n)
        psi = rng.uniform(0.5, 2.0, n)
        cp = compare_projective(
            decompose_weighted(form, phi), decompose_weighted(form, psi)
        )
        assert max(residual_values(cp.residuals).values()) <= 1e-10
        wp = decompose_weighted(form, phi)
        ws = decompose_weighted(form, psi)
        assert np.allclose(cp.density_ratio, ws.index_weights / wp.index_weights)


def test_projective_mismatch_raises(fx_twin, fx_grid):
    with pytest.raises(PartitionMismatchError):
        compare_projective(
            decompose_weighted(fx_twin, np.ones(4)),
            decompose_weighted(fx_grid, np.ones(6)),
        )


# ------------------------------------------------------------ measures


def test_ergodic_measures_twin(fx_twin):
    measures = ergodic_measures(fx_twin)
    assert len(measures) == 2
    assert np.allclose(measures[0].weights, [0.5, 0.5, 0.0, 0.0])
    assert np.allclose(measures[1].weights, [0.0, 0.0, 0.5, 0.5])


def test_ergodic_measures_killed_empty(fx_kill):
    assert ergodic_measures(fx_kill) == ()


def test_ergodic_measures_mixed(fx_twin_kill):
    measures = ergodic_measures(fx_twin_kill)
    assert len(measures) == 2
    assert all(m.weights[4:].max() == 0.0 for m in measures)


def test_invariant_measure_mixture(fx_twin):
    mixture = decompose_invariant_measure(fx_twin, fx_twin.space.mu)
    assert np.allclose(mixture.weights, [0.5, 0.5])
    assert mixture.reconstruction_defect <= 1e-12


def test_ergodic_input_is_dirac_mixture(fx_twin):
    lam = ergodic_measures(fx_twin)[0].weights
    mixture = decompose_invariant_measure(fx_twin, lam)
    assert np.allclose(mixture.weights, [1.0, 0.0])


def test_non_invariant_measure_rejected(fx_kill):
    with pytest.raises(NotInvariantError) as err:
        decompose_invariant_measure(fx_kill, np.array([1.0, 1.0]))
    assert err.value.defect > 1e-10


def test_mixture_bijective_on_invariant_cone(fx_twin_kill):
    rng = np.random.default_rng(7)
    measures = ergodic_measures(fx_twin_kill)
    for _ in range(10):
        weights = rng.uniform(0.0, 3.0, len(measures))
        eta = sum(w * m.weights for w, m in zip(weights, measures))
        mixture = decompose_invariant_measure(fx_twin_kill, eta)
        assert np.allclose(mixture.weights, weights, atol=1e-12)
        assert np.abs(mixture.reconstructed() - eta).max() <= 1e-12


def test_measure_relations_match_supports(fx_twin):
    lam0 = ergodic_measures(fx_twin)[0].weights
    lam1 = ergodic_measures(fx_twin)[1].weights
    m0 = decompose_invariant_measure(fx_twin, lam0)
    m1 = decompose_invariant_measure(fx_twin, lam1)
    both = decompose_invariant_measure(fx_twin, fx_twin.space.mu)
    rel = invariant_measure_relations(fx_twin, m0, m1)
    assert rel.mutually_singular and not rel.ac_forward and rel.consistent
    rel = invariant_measure_relations(fx_twin, m0, both)
    assert rel.ac_forward and not rel.ac_backward and rel.consistent


# ------------------------------------------------------------ classification


def test_classification_decomposition_twin(fx_twin):
    out = classification_decomposition(decompose(fx_twin))
    assert out.consistent
    assert all(c.recurrent for c in out.per_fiber)
    assert out.conservative_part == ("a", "b", "c", "d")
    assert out.transient_part == ()


def test_classification_decomposition_mixed(fx_twin_kill):
    out = classification_decomposition(decompose(fx_twin_kill))
    assert out.consistent
    assert out.conservative_part == ("a", "b", "c", "d")
    assert out.transient_part == ("e", "f")
    assert not out.overall.recurrent and not out.overall.transient


def test_classification_decomposition_kill(fx_kill):
    out = classification_decomposition(decompose(fx_kill))
    assert out.consistent
    assert out.overall.transient and not out.overall.conservative


# ------------------------------------------------- blockwise fast paths


def multi_block_forms():
    """Random multi-block forms, with and without killing, one nearly symmetric."""
    forms = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        comps = int(rng.integers(2, n // 2))
        forms.append(random_form(seed, n, comps, killing_prob=0.3 * (seed % 2)))
    form = forms[0]
    noise = np.random.default_rng(99).uniform(-1.0, 1.0, size=(form.n, form.n))
    forms.append(DirichletForm(form.space, form.matrix + 1e-15 * (noise - noise.T)))
    return forms


@pytest.mark.parametrize("form", multi_block_forms())
def test_trusted_fibers_equal_validated_fibers(form):
    dec = decompose(form)
    for idx, fiber in zip(dec.quotient._layout.blocks, dec.fibers):
        raw_mass = float(form.space.mu[idx].sum())
        block = form.matrix[np.ix_(idx, idx)] / raw_mass
        expected = DirichletForm.from_matrix(fiber.space, block)
        assert np.array_equal(fiber.matrix, expected.matrix)
        assert np.array_equal(fiber.jump, expected.jump)
        assert np.array_equal(fiber.killing, expected.killing)
        assert not fiber.matrix.flags.writeable


@pytest.mark.parametrize("form", [random_form(2, 20, 1), *multi_block_forms()])
def test_the_quotient_and_the_form_share_their_blocks(form):
    dec = decompose(form)
    assert dec.quotient._layout is dec.form._layout
    assert dec.quotient._layout.count == len(dec.fibers)


def assert_quotient_of_the_invariant_sets(form):
    """``decompose(form).quotient`` is the quotient of the labelled invariant sets, bit for bit;
    its weights are the sums of the normalized weights over each block, taken one at a time."""
    from ergodec.spaces import quotient_by_invariant_partition

    got = decompose(form).quotient
    normalized = form.space.normalized()
    expected = quotient_by_invariant_partition(normalized, invariant_sets(form))
    masses = np.array([normalized.mu[normalized.indices_of(block)].sum() for block in invariant_sets(form)])
    assert got.index.labels == expected.index.labels
    assert got.assignment == expected.assignment
    assert got.blocks == expected.blocks
    assert got.index.nu.tobytes() == expected.index.nu.tobytes() == masses.tobytes()
    for z in got.index.labels:
        fiber, other = got.family.fibers[z], expected.family.fibers[z]
        assert fiber.support == other.support
        assert fiber.weights.tobytes() == other.weights.tobytes()


@pytest.mark.parametrize("name", ["fx_edge", "fx_twin", "fx_kill", "fx_grid", "fx_twin_kill"])
def test_decompose_quotient_is_that_of_the_invariant_sets(request, name):
    assert_quotient_of_the_invariant_sets(request.getfixturevalue(name))


@settings(max_examples=200, deadline=None)
@given(partition_forms())
def test_decompose_quotient_is_that_of_the_invariant_sets_on_random_partitions(form):
    assert_quotient_of_the_invariant_sets(form)


def test_decompose_reads_the_form_layout(monkeypatch):
    # The quotient is built from the form's layout: no labels of the invariant sets are
    # turned back into positions, and no block mass is checked again.
    import ergodec.forms
    import ergodec.spaces

    form = random_form(3, 60, 12, 0.2)
    calls = [spy(monkeypatch, ergodec.forms, "invariant_sets", id),
             spy(monkeypatch, ergodec.spaces, "_canonical_blocks", id),
             spy(monkeypatch, ergodec.spaces.QuotientMap, "__post_init__", id)]
    decompose(form)
    assert calls == [[], [], []]


@pytest.mark.parametrize("form", multi_block_forms())
def test_fiber_forms_live_on_the_family_fibers(form):
    # Each fiber measure is built once: the fiber forms and the family, which
    # is the direct-integral space of the decomposition, share it.
    from ergodec import assemble_l2

    dec = decompose(form)
    spaces = tuple(dec.family.fibers[z] for z in dec.labels)
    assert all(fiber.space is space for fiber, space in zip(dec.fibers, spaces))
    embed = assemble_l2(dec.quotient.space, dec.family)
    assert embed.family is dec.family and embed.family.fiber_spaces() == spaces


@pytest.mark.parametrize("mu, jump, killing, message", [
    # Killing 1e-30 over a block mass 1e300 is 0 in the fiber, which would
    # be conservative; a kept coupling 1e-100 there would split the fiber.
    ([1e300], None, [1e-30], "the killing 1.000e-30 at 'p0' over its block mass 1.000e+300"),
    ([1e300, 1.0], 1e-100, [1e-200, 2.0], "the jump 1.000e-100 from 'p0' to 'p1'"),
])
def test_fibers_that_underflow_are_refused(mu, jump, killing, message):
    from ergodec import NotRepresentableError

    n = len(mu)
    space = validate_space((f"p{i}", w) for i, w in enumerate(mu))
    kernel = np.zeros((n, n)) if jump is None else np.array([[0.0, jump], [jump, 0.0]])
    form = DirichletForm.from_jump_kernel(space, kernel, killing)
    assert classify(form).transient
    for refused in (decompose, ergodic_measures):
        with pytest.raises(NotRepresentableError, match=re.escape(message)):
            refused(form)


@pytest.mark.parametrize("form", multi_block_forms())
def test_block_assembly_matches_naive_sum(form):
    from ergodec.forms import resolvent, semigroup

    from conftest import naive_block_sum

    dec = decompose(form)
    n, layout = form.n, dec.quotient._layout
    weighted = [w * f.matrix for w, f in zip(dec.quotient.index.nu, dec.fibers)]
    expected = dec.normalization_scale * naive_block_sum(n, layout.blocks, weighted)
    assert np.array_equal(dec.reassembled_matrix(), expected)

    report = verify_decomposition(dec, times=(0.5, 2.0), alphas=(1.0, 3.0))
    semi, res = (residual_values(report.residuals, family) for family in ("semigroup", "resolvent"))
    buffer = np.zeros((n, n))
    for t in (0.5, 2.0):
        naive = naive_block_sum(n, layout.blocks, [semigroup(f, t) for f in dec.fibers])
        assert np.array_equal(layout.assemble(buffer, [semigroup(f, t) for f in dec.fibers]), naive)
        assert semi[t] == float(np.linalg.norm(semigroup(form, t) - naive, "fro"))
    for a in (1.0, 3.0):
        naive = naive_block_sum(n, layout.blocks, [resolvent(f, a) for f in dec.fibers])
        assert np.array_equal(layout.assemble(buffer, [resolvent(f, a) for f in dec.fibers]), naive)
        assert res[a] == float(np.linalg.norm(resolvent(form, a) - naive, "fro"))


def residual_forms():
    """The multi-block forms, a single-block form and a tiny-mu form with generator rate 1e140."""
    space = validate_space([("a", 1e-140), ("b", 1.0)])
    extreme = DirichletForm.from_jump_kernel(space, np.array([[0.0, 1.0], [1.0, 0.0]]))
    return [*multi_block_forms(), random_form(7, 30, 1, killing_prob=0.2), extreme]


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("form", residual_forms())
def test_decompose_residuals_equal_out_of_place_reference(form):
    from conftest import reference_decompose_residuals

    with np.errstate(all="ignore"):
        dec = decompose(form)
        expected = reference_decompose_residuals(dec)
    got = residual_values(dec.residuals)
    assert got.keys() == expected.keys()
    for name, value in expected.items():
        assert same_bits(got[name], value), name
    assert "generator" not in vars(form)  # the global generator cache stays empty


@pytest.mark.parametrize("form", residual_forms()[:-1])
def test_verify_residuals_equal_out_of_place_reference(form):
    from conftest import reference_verify_residuals

    times, alphas = (0.1, 1.0, 10.0), (0.5, 1.0, 10.0)
    dec = decompose(form)
    report = verify_decomposition(dec, times=times, alphas=alphas)
    form_defect, semi, res = reference_verify_residuals(dec, times, alphas)
    assert same_bits(residual_values(report.residuals)["form"], form_defect)
    for t in times:
        assert same_bits(residual_values(report.residuals, "semigroup")[t], semi[t]), t
    for a in alphas:
        assert same_bits(residual_values(report.residuals, "resolvent")[a], res[a]), a


def scaled_jump_form(seed, n, components, killing_prob, jump_scale):
    """A ``random_form`` with its jump kernel scaled; the killing is kept.

    Scaling the jumps raises the largest eigenvalue of -L.  The killing is at
    most 2 and mu at least 0.1, so t times the smallest eigenvalue of every
    block stays below 200 at t=10, and each block keeps a weight above 1e-150.
    """
    base = random_form(seed, n, components, killing_prob=killing_prob)
    return DirichletForm.from_jump_kernel(base.space, jump_scale * base.jump, base.killing)


def assert_weight_flush_changes_no_bits(form):
    import ergodec.forms
    from conftest import unflushed_semigroup_from_eig
    from ergodec.forms import semigroup

    times = (0.1, 1.0, 10.0)
    dec = decompose(form)
    flushed = verify_decomposition(dec, times=times)
    flushed_semigroups = [semigroup(form, t) for t in times]
    # The global products are built in forms, the stacked fiber products in ergodic.
    with mock.patch.object(ergodec.forms, "semigroup_from_eig", unflushed_semigroup_from_eig), \
            mock.patch.object(ergodec.ergodic, "semigroup_from_eig", unflushed_semigroup_from_eig):
        unflushed = verify_decomposition(dec, times=times)
        unflushed_semigroups = [semigroup(form, t) for t in times]
    for got, want in zip(flushed.residuals, unflushed.residuals, strict=True):
        assert got.name == want.name and same_bits(got.value, want.value), got.name
    assert flushed.passed == unflushed.passed
    for a, b in zip(flushed_semigroups, unflushed_semigroups, strict=True):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 30),
    st.integers(1, 5),
    st.sampled_from([0.0, 0.3]),
    st.sampled_from([0.01, 1.0, 100.0, 1e4]),
)
def test_semigroup_weight_flush_changes_no_bits(seed, n, components, killing_prob, jump_scale):
    form = scaled_jump_form(seed, n, min(components, n), killing_prob, jump_scale)
    assert_weight_flush_changes_no_bits(form)


@pytest.mark.parametrize("jump_scale, low, high", [(1.0, 345.0, 708.0), (100.0, 708.0, np.inf)])
def test_semigroup_weight_flush_past_both_thresholds(jump_scale, low, high):
    # At t=10 the largest eigenvalue passes the flush threshold (345), and
    # then the exponent range (708), where exp(-t w) is subnormal or zero.
    form = scaled_jump_form(3, 24, 3, 0.3, jump_scale)
    assert low < 10.0 * form.spectrum[-1] < high
    assert_weight_flush_changes_no_bits(form)


def test_weighted_reassembly_matches_naive_sum():
    from conftest import naive_block_sum

    form = random_form(5, 24, 5)
    phi = np.random.default_rng(5).uniform(0.5, 1.5, size=form.n)
    wdec = decompose_weighted(form, phi)
    quotient = wdec.base.quotient
    weighted = [w * f.matrix for w, f in zip(quotient.index.nu, wdec.lifted_forms)]
    naive = naive_block_sum(form.n, quotient._layout.blocks, weighted)
    assert residual_values(wdec.residuals)["form_reassembly"] == float(np.abs(naive - form.matrix).max())


@pytest.mark.parametrize("killing_prob", [0.0, 0.3])
def test_decompose_and_verify_eigendecomposition_count(monkeypatch, killing_prob):
    form = random_form(3, 30, 6, killing_prob=killing_prob)
    calls = {"eigh": 0, "eigvalsh": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    dec = decompose(form)
    assert verify_decomposition(dec).passed
    # The global form, and the fibers as one stack per size.
    sizes = {len(idx) for idx in dec.quotient._layout.blocks}
    assert len(sizes) < len(dec.fibers)
    assert calls == {"eigh": 1 + len(sizes), "eigvalsh": 0}


def test_verify_reads_the_decompose_reassembly(monkeypatch):
    from ergodec.ergodic import ErgodicDecomposition

    calls = []
    original = ErgodicDecomposition.reassembled_matrix

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ErgodicDecomposition, "reassembled_matrix", counted)
    dec = decompose(random_form(4, 30, 5, killing_prob=0.2))
    assert len(calls) == 0
    report = verify_decomposition(dec)
    assert report.passed and len(calls) == 1


# ------------------------------------------------- components-first measures


@pytest.mark.parametrize("form", multi_block_forms())
def test_blockwise_time_one_equals_dense(form):
    # T_1 x and T_1^T x, applied fiber by fiber and on the whole form,
    # against the dense T_1.
    from ergodec._linalg import semigroup_action
    from ergodec.forms import _matrix_scale, semigroup

    dec = decompose(form)
    dense = semigroup(form, 1.0)
    bound = 1e-12 * _matrix_scale(form.matrix)
    x = np.random.default_rng(form.n).uniform(-1.0, 1.0, size=form.n)
    for transpose, expected in ((False, dense @ x), (True, dense.T @ x)):
        blockwise = np.empty(form.n)
        for idx, fiber in zip(dec.quotient._layout.blocks, dec.fibers):
            blockwise[idx] = semigroup_action(fiber._eig, 1.0, x[idx], transpose=transpose)
        whole = semigroup_action(form._eig, 1.0, x, transpose=transpose)
        assert np.abs(blockwise - expected).max() <= bound
        assert np.abs(whole - expected).max() <= bound


def benchmark_pool_forms(name, components, killing_prob, density):
    """The six n=500 instances of a benchmark form workload at seed 1, as its set-up draws them."""
    import zlib

    seeds = np.random.SeedSequence([1, zlib.crc32(name.encode())]).generate_state(6)
    return [random_form(int(s), 500, components, killing_prob, density) for s in seeds]


# (instances, recurrent components of each); the golden instances are those
# of tests/test_golden.py.
CLASSIFY_VERDICTS = {
    "single-block": (lambda: benchmark_pool_forms("single-block", 1, 0.0, 0.05), [1] * 6),
    "many-blocks": (
        lambda: benchmark_pool_forms("many-blocks", 125, 0.1, 0.5), [77, 89, 83, 87, 87, 83]
    ),
    "golden": (lambda: [random_form(1, 30, 4, 0.3, 0.5), random_form(2, 25, 1, 0.0, 0.5)], [0, 1]),
}


@pytest.mark.parametrize("instances", sorted(CLASSIFY_VERDICTS))
def test_classify_verdicts_are_pinned(instances):
    # classify applies T_1 to the constants block by block; the row sums of
    # the dense global T_1 are the reference.  Every mass defect agrees with
    # the dense one and is far from the tolerance 1e-10 on either side.
    from ergodec.forms import semigroup

    make, recurrent = CLASSIFY_VERDICTS[instances]
    counts = []
    for form in make():
        classes = classify(form).per_component.values()
        dense_mass = semigroup(form, 1.0) @ np.ones(form.n)
        for c in classes:
            dense = float(np.abs(dense_mass[form.space.indices_of(c.points)] - 1.0).max())
            assert abs(c.mass_defect - dense) <= 1e-13
            assert c.recurrent == c.conservative != c.transient
            assert c.mass_defect <= 1e-12 if c.conservative else c.mass_defect >= 1e-2
        counts.append(sum(c.recurrent for c in classes))
    assert counts == recurrent


def coupled_below_threshold(fraction):
    """Two 3-point paths joined by one edge of ``fraction`` times the largest weight."""
    space = validate_space(zip("abcdef", [1.0, 2.0, 0.5, 1.5, 1.0, 0.25]))
    jump = np.zeros((6, 6))
    for x, y, w in ((0, 1, 2.0), (1, 2, 1.0), (3, 4, 1.5), (4, 5, 0.5), (2, 3, fraction * 2.0)):
        jump[x, y] = jump[y, x] = w
    return DirichletForm.from_jump_kernel(space, jump)


@pytest.mark.parametrize("fraction", [0.999e-12, 0.5e-12, 1e-14])
def test_couplings_below_component_threshold_split_the_measures(fraction):
    # The dense T_1 leaks across the coupling and the fiber blocks do not.
    # The verdicts are pinned: two components, each recurrent with its own
    # ergodic measure, and mu the mixture of the two.
    from ergodec.forms import semigroup

    form = coupled_below_threshold(fraction)
    blocks = (("a", "b", "c"), ("d", "e", "f"))
    assert invariant_sets(form) == blocks
    dense = semigroup(form, 1.0)
    assert dense[:3, 3:].max() > 0.0

    measures = ergodic_measures(form)
    assert tuple(m.component for m in measures) == blocks
    mu = form.space.mu
    for m, idx in zip(measures, (slice(0, 3), slice(3, 6))):
        expected = np.zeros(6)
        expected[idx] = mu[idx] / mu[idx].sum()
        assert np.array_equal(m.weights, expected)
        assert np.abs(dense.T @ m.weights - m.weights).max() <= 1e-10
    mixture = decompose_invariant_measure(form, mu)
    for a, b in zip(mixture.ergodic, measures, strict=True):
        assert a.component == b.component and np.array_equal(a.weights, b.weights)
    assert mixture.weights.tolist() == [mu[:3].sum(), mu[3:].sum()]
    cls = classify(form)
    assert [c.recurrent for c in cls.per_component.values()] == [True, True]
    assert verify_decomposition(decompose(form)).passed


@pytest.mark.parametrize("fraction", [0.999e-12, 0.5e-12])
def test_fibers_drop_the_couplings_below_component_threshold(fraction):
    # The fibers leave the dropped couplings off their diagonal too, so they
    # carry no killing and get the verdicts of classify on the whole form.
    form = coupled_below_threshold(fraction)
    dec = decompose(form)
    assert all(fiber.killing_free for fiber in dec.fibers)
    out = classification_decomposition(dec)
    assert out.consistent and [c.recurrent for c in out.per_fiber] == [True, True]
    assert verify_decomposition(dec).passed


def test_coupling_at_component_threshold_joins_the_blocks():
    form = coupled_below_threshold(1.001e-12)
    assert invariant_sets(form) == (tuple("abcdef"),)
    assert len(ergodic_measures(form)) == 1


@pytest.mark.parametrize("form", [
    *multi_block_forms(),
    random_form(2, 25, 1),
    coupled_below_threshold(0.999e-12),
    coupled_below_threshold(1e-14),
], ids=lambda form: f"n{form.n}-blocks{len(invariant_sets(form))}")
def test_merged_spectrum_is_within_weyl_bound_of_the_global_one(form):
    # The merged block spectra and the spectrum of the whole symmetrized
    # matrix S differ by at most the 2-norm of what the split drops, the
    # part of S off the blocks and the dropped couplings on the diagonal
    # (Weyl's inequality), plus roundoff of TAU times the scale of S.
    from ergodec._tolerance import TAU
    from ergodec._linalg import _split_blocks
    from ergodec.forms import _generator_scale

    sqrt_mu = np.sqrt(form.space.mu)
    split = np.zeros((form.n, form.n))
    for block in invariant_sets(form):
        idx = form.space.indices_of(block)
        split[np.ix_(idx, idx)] = _split_blocks(form.matrix, idx[None], form._dropped)[0]
    scale = sqrt_mu[:, None] * sqrt_mu[None, :]
    sym, dropped = form.matrix / scale, (form.matrix - split) / scale
    bound = np.linalg.norm(dropped, 2) + TAU * _generator_scale(form)
    merged = form.spectrum
    assert np.all(np.diff(merged) >= 0.0) and merged.min() >= 0.0
    assert np.abs(merged - np.clip(np.linalg.eigvalsh(sym), 0.0, None)).max() <= bound


def test_measures_run_no_global_eigendecomposition(monkeypatch):
    import ergodec.forms

    from conftest import spy_actions

    form = random_form(6, 40, 5)
    blocks = sorted(len(idx) for idx in decompose(form).quotient._layout.blocks)
    stacks = len(set(blocks))
    shapes = spy(monkeypatch, np.linalg, "eigh", np.shape)
    products = spy(monkeypatch, ergodec.forms, "semigroup_from_eig", lambda eig, t: len(eig[0]))
    actions = spy_actions(monkeypatch)

    def covered(transposed):
        """The block sizes the actions applied, one per row of each stacked action."""
        return sorted(s for (k, s), t, transpose in actions if transpose == transposed for _ in range(k))

    ergodic_measures(form)
    # One mass action T_1 1 and one stationarity action T_1^T per stack of blocks of one size.
    assert covered(False) == covered(True) == blocks
    assert len(actions) == 2 * stacks
    actions.clear()
    decompose_invariant_measure(form, form.space.mu)
    # ... and one invariance action T_1^T per stack.
    assert covered(False) == blocks
    assert covered(True) == sorted(blocks * 2)
    assert len(actions) == 3 * stacks
    assert {t for _, t, _ in actions} == {1.0}
    assert len(shapes) == stacks and max(shape[-1] for shape in shapes) < form.n
    assert products == []


def test_measures_build_no_fiber(monkeypatch):
    import ergodec.ergodic

    form = random_form(6, 40, 5, killing_prob=0.3)
    fibers = spy(monkeypatch, ergodec.ergodic, "_split_blocks",
                 lambda matrix, positions, dropped, mass: positions.shape)
    assert ergodic_measures(form)
    assert fibers == []
    decompose(form)
    assert sum(k for k, _ in fibers) == 5
    assert len(fibers) == len({s for _, s in fibers})  # one stack per fiber size


def test_verification_computes_no_fiber_generator_defect(monkeypatch):
    # verify_decomposition reads only the reassembly residual; the fiber
    # generator defects wait until the residuals are read.
    import ergodec.ergodic

    from conftest import reference_decompose_residuals

    dec = decompose(random_form(3, 30, 4, killing_prob=0.2))
    defects = spy(monkeypatch, ergodec.ergodic, "_generator_defect",
                  lambda form, positions, matrices, mu: positions.shape)
    assert verify_decomposition(dec).passed
    assert defects == []
    expected = reference_decompose_residuals(dec)
    got = residual_values(dec.residuals)
    assert got.keys() == expected.keys()
    assert all(same_bits(got[name], value) for name, value in expected.items())
    assert sum(k for k, _ in defects) == 4  # each fiber once, in one stack per size


def test_split_block_copies_rows_in_bounded_chunks():
    # The dropped couplings are summed from row copies of at most _ROW_CHUNK
    # entries, and each row's sum has the bits of the whole row copy's.  Two
    # copies are alive at once: the next is made before the last is freed.
    import tracemalloc

    from ergodec._linalg import _ROW_CHUNK, StackedLayout, _dropped_couplings, _split_blocks

    rng = np.random.default_rng(5)
    n = 1000
    matrix = rng.uniform(-1.0, 0.0, (n, n))
    matrix += matrix.T
    np.fill_diagonal(matrix, -matrix.sum(axis=1))
    idx = np.sort(rng.choice(n, 600, replace=False))
    rows = matrix[idx]
    rows[:, idx] = 0.0
    expected = matrix[np.ix_(idx, idx)] / 3.0
    np.fill_diagonal(expected, np.maximum(np.diagonal(expected) + rows.sum(axis=1) / 3.0, 0.0))
    del rows
    layout = StackedLayout([idx, np.setdiff1d(np.arange(n), idx)])
    tracemalloc.start()
    try:
        dropped = _dropped_couplings(matrix, layout)
        (block,) = _split_blocks(matrix, idx[None], dropped, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.tobytes() == expected.tobytes()
    assert np.diagonal(block).min() > 0.0
    assert peak <= block.nbytes + 2 * 8 * _ROW_CHUNK + 2 ** 16


def test_block_index_is_a_pair_of_slices_on_a_run():
    from ergodec._linalg import _block

    assert _block(np.arange(3, 7)) == (slice(3, 7), slice(3, 7))
    assert _block(np.array([2])) == (slice(2, 3), slice(2, 3))
    matrix = np.arange(64.0).reshape(8, 8)
    for idx in ([1, 3, 4], [4, 3], [2], [5, 6, 7], list(range(8)), [0, 2, 1]):
        idx = np.array(idx)
        block = _block(idx)
        assert isinstance(block[0], slice) == (list(idx) == list(range(idx[0], idx[0] + len(idx))))
        assert np.array_equal(matrix[block], matrix[np.ix_(idx, idx)])


def test_single_block_residuals_leave_the_form_matrix_unchanged():
    # The whole space is one run, so its block is a view of the read-only matrix.
    form = random_form(6, 30, 1, killing_prob=0.2)
    before = np.array(form.matrix)
    dec = decompose(form)
    assert verify_decomposition(dec).passed
    assert residual_values(dec.residuals)["fiber_generator"] < 1e-12
    assert np.array_equal(form.matrix, before) and not form.matrix.flags.writeable


# ------------------------------------------------------- stacked block algebra


def reference_split_block(form, idx):
    """The block at ``idx`` of the form split over its invariant blocks, by the per-block loop the
    stacked layout replaced: the couplings off the block, summed from its row copies, join the
    diagonal."""
    block = form.matrix[np.ix_(idx, idx)] / 1.0
    if len(idx) < form.n:
        rows = form.matrix[idx]
        rows[:, idx] = 0.0
        dropped = rows.sum(axis=1)
        if dropped.any():
            np.fill_diagonal(block, np.maximum(np.diagonal(block) + dropped, 0.0))
    return block


def stacked_forms():
    """Blocks of one point and many blocks of one size with killing, blocks that dropped a
    coupling, a single block, and the multi-block forms."""
    return [random_form(5, 200, 60, 0.1), coupled_below_threshold(0.999e-12),
            random_form(2, 25, 1), random_form(6, 30, 1, killing_prob=0.2), *multi_block_forms()]


@pytest.mark.parametrize("form", stacked_forms(), ids=lambda form: f"n{form.n}-blocks{len(invariant_sets(form))}")
def test_stacked_block_algebra_equals_per_block_calls(form):
    # Each block's and each fiber's eigendecomposition, semigroup, resolvent
    # and T_1 actions, taken on the stacks, have the bits of the per-block
    # calls on its own matrix.
    from ergodec._linalg import resolvent_from_eig, semigroup_action, semigroup_from_eig, symmetrized_eig

    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    dec = decompose(form)
    verify_decomposition(dec)
    stacks = form._layout.stacks
    assert sum(len(members) for members, _ in stacks) == len(dec.fibers) == len(invariant_sets(form))
    x = np.random.default_rng(form.n).uniform(-1.0, 1.0, size=form.n)
    for (members, positions), block_eig, fiber_eig in zip(stacks, form._block_eigs, dec._fiber_eigs):
        assert positions.shape == (len(members), positions.shape[1])
        xs = x[positions]
        block_actions = {tr: semigroup_action(block_eig, 1.0, xs, transpose=tr) for tr in (False, True)}
        fiber_actions = {tr: semigroup_action(fiber_eig, 1.0, xs, transpose=tr) for tr in (False, True)}
        ones = semigroup_action(block_eig, 1.0, np.ones(positions.shape))
        products = {(op, p): op(fiber_eig, p) for op, ps in ((semigroup_from_eig, (0.1, 1.0, 10.0)),
                                                              (resolvent_from_eig, (0.5, 1.0, 10.0)))
                    for p in ps}
        for j, b in enumerate(members.tolist()):
            idx, fiber = positions[j], dec.fibers[b]
            if form._layout.count == 1:
                block = symmetrized_eig(form.matrix, form.space.mu)
            else:
                block = symmetrized_eig(reference_split_block(form, idx), form.space.mu[idx])
            own = symmetrized_eig(fiber.matrix, fiber.space.mu)
            for got, want in ((block_eig, block), (fiber_eig, own)):
                assert all(same(g[j], w) for g, w in zip(got, want))
            for (op, p), stacked in products.items():
                assert same(stacked[j], op(own, p)), (op.__name__, p)
            for tr in (False, True):
                assert same(block_actions[tr][j], semigroup_action(block, 1.0, x[idx], transpose=tr))
                assert same(fiber_actions[tr][j], semigroup_action(own, 1.0, x[idx], transpose=tr))
            assert same(ones[j], semigroup_action(block, 1.0, np.ones(len(idx))))


def test_stacked_layout_sums_have_the_bits_of_each_block_sum():
    # Three blocks of each size from 1 to 1000, scattered over the positions, so each stack
    # holds several rows; the values span many orders of magnitude and both signs.
    from ergodec._linalg import StackedLayout

    rng = np.random.default_rng(5)
    sizes = np.repeat(np.arange(1, 1001), 3)
    positions = np.split(rng.permutation(sizes.sum()), np.cumsum(sizes)[:-1])
    layout = StackedLayout(positions)
    values = rng.standard_normal(sizes.sum()) * 10.0 ** rng.integers(-200, 200, sizes.sum())
    sums = layout.sums(values)
    assert sums.shape == (layout.count,)
    assert all(sums[b].tobytes() == values[idx].sum().tobytes() for b, idx in enumerate(layout.blocks))


def test_stacked_layout_groups_blocks_by_size():
    from ergodec._linalg import StackedLayout

    layout = StackedLayout([np.array([4, 0]), np.array([2]), np.array([1, 3]), np.array([5])])
    assert layout.count == 4
    assert [m.tolist() for m, _ in layout.stacks] == [[0, 2], [1, 3]]
    assert [p.tolist() for _, p in layout.stacks] == [[[4, 0], [1, 3]], [[2], [5]]]
    assert [idx.tolist() for idx in layout.blocks] == [[4, 0], [2], [1, 3], [5]]
    assert not any(idx.flags.writeable for idx in layout.blocks)
    assert layout.block_of.tolist() == [0, 2, 1, 2, 0, 3]
    blocks = [np.full((len(idx), len(idx)), b + 1.0) for b, idx in enumerate(layout.blocks)]
    weights = np.array([1.0, 10.0, 100.0, 1000.0])
    assembled = layout.assemble(np.zeros((6, 6)), blocks, weights)
    assert assembled[4, 0] == 1.0 and assembled[2, 2] == 20.0 and assembled[3, 1] == 300.0
    assert assembled[5, 5] == 4000.0 and np.count_nonzero(assembled) == 4 + 1 + 4 + 1
    assert layout.blockwise([np.array([10, 12]), np.array([11, 13])]).tolist() == [10, 11, 12, 13]
    rows = [np.array([[1.0, 2.0], [5.0, 6.0]]), np.array([[3.0], [7.0]])]
    assert layout.concatenate(rows).tolist() == [1.0, 2.0, 3.0, 5.0, 6.0, 7.0]
    arrays = [np.full((2, 2), b) for b in range(4)]
    one = np.eye(3)
    stacked = StackedLayout([np.arange(3)]).stack([one])
    assert stacked[0].shape == (1, 3, 3) and np.shares_memory(stacked[0], one)
    assert [s[:, 0, 0].tolist() for s in layout.stack(arrays)] == [[0, 2], [1, 3]]


@pytest.mark.parametrize("form", [random_form(11, 500, 1, 0.0, 0.05), random_form(11, 500, 125, 0.1),
                                  random_form(5, 200, 60, 0.1), *multi_block_forms()[:2]],
                         ids=lambda form: f"n{form.n}-blocks{len(invariant_sets(form))}")
def test_isometry_defect_equals_the_family_norms(form):
    # The isometry check, a stack at a time, has the bits of the diagonal
    # embedding and the family norm applied to one vector at a time.
    from ergodec import assemble_l2
    from ergodec._stream import Seed0Stream

    dec = decompose(form)
    report = verify_decomposition(dec)
    normalized, rng = dec.quotient.space, Seed0Stream()
    embed = assemble_l2(normalized, dec.family)
    defects = []
    for _ in range(20):
        f = rng.uniform(-1.0, 1.0, size=form.n)
        defects.append(abs(dec.family.norm(embed(f)) - normalized.norm(f)))
    assert same_bits(residual_values(report.residuals)["isometry"], float(np.max(defects)))
    assert report.fibers_irreducible == tuple(len(invariant_sets(f)) == 1 for f in dec.fibers)


def test_stacked_irreducibility_matches_invariant_sets():
    # Each matrix of a stack is searched with the threshold of its own
    # largest jump: a path in shuffled order, two paths, a path cut by a
    # jump below the threshold, a star and no jump at all.
    from ergodec.forms import _irreducible

    s, order = 6, np.random.default_rng(3).permutation(6)
    edges = {
        "path": [(order[i], order[i + 1], 1.0) for i in range(s - 1)],
        "two": [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0), (4, 5, 1.0)],
        "weak": [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.5e-12), (3, 4, 1.0), (4, 5, 1.0)],
        "star": [(0, x, 0.5 * x) for x in range(1, s)],
        "none": [],
    }
    space = validate_space((f"p{i}", 0.5 + i) for i in range(s))
    matrices, expected = [], []
    for kind, kind_edges in edges.items():
        jump = np.zeros((s, s))
        for x, y, w in kind_edges:
            jump[x, y] = jump[y, x] = w
        form = DirichletForm.from_jump_kernel(space, jump, [0.3, 0.0, 0.0, 0.0, 0.0, 0.0])
        matrices.append(form.matrix)
        expected.append(len(invariant_sets(form)) == 1)
    assert expected == [True, False, False, True, False]
    assert _irreducible(np.stack(matrices)).tolist() == expected
    assert _irreducible(np.stack(matrices[::-1])).tolist() == expected[::-1]
    assert _irreducible(np.ones((3, 1, 1))).tolist() == [True, True, True]


def test_reducible_fiber_fails_verification_and_classifies_its_blocks(fx_twin):
    # A fiber swapped for one that splits in two: the oracle reports it, and
    # the fiber is classified over its own two blocks, as classify does.
    dec = decompose(fx_twin)
    split = DirichletForm.from_jump_kernel(dec.fibers[0].space, np.zeros((2, 2)), [0.0, 1.0])
    object.__setattr__(dec, "fibers", (split, dec.fibers[1]))
    report = verify_decomposition(dec)
    assert report.fibers_irreducible == (False, True) and not report.passed
    per_fiber = classification_decomposition(dec).per_fiber
    assert per_fiber[0] == classify(split) and len(per_fiber[0].per_component) == 2
    assert per_fiber[1] == classify(dec.fibers[1])
