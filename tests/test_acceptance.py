"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[criterion NN] ...: PASS/FAIL`` line (visible with
``pytest -s``).  Random instances are drawn once per scale and shared; the
small-instance analysis enumerates all subsets so the exhaustive oracle is
fully independent of the library's connectivity-based partition.
"""

import itertools
import time

import numpy as np
import pytest

from ergodec import (
    Fiber,
    IndexSpace,
    MeasureFamily,
    assemble_l2,
    assemble_lp,
    carre_decomposition,
    carre_du_champ,
    classification_decomposition,
    classify,
    compare_projective,
    decompose,
    decompose_invariant_measure,
    decompose_operator,
    decompose_weighted,
    disintegrate_over_partition,
    ergodic_measures,
    functional_calculus,
    invariant_measure_relations,
    invariant_sets,
    random_form,
    resolvent,
    semigroup,
    validate_space,
    verify_decomposition,
    yosida_form,
)
from ergodec._linalg import chebyshev_coefficients, chebyshev_matrix, polynomial_matrix

from conftest import residual_values


def _report(number, name, ok, detail=""):
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number}: {name} failed {detail}"


def _mask_off_block_defects(masks, matrix):
    """Frobenius mass of the off-block part of a matrix, for every mask."""
    sq = matrix * matrix
    fwd = np.einsum("si,ij,sj->s", masks, sq, 1.0 - masks)
    bwd = np.einsum("si,ij,sj->s", 1.0 - masks, sq, masks)
    return np.sqrt(fwd + bwd)


def _atoms_from_invariant_masks(masks, invariant):
    """Minimal blocks: intersect the invariant sets containing each point."""
    n = masks.shape[1]
    blocks = []
    seen = np.zeros(n, dtype=bool)
    inv_masks = masks[invariant].astype(bool)
    for x in range(n):
        if seen[x]:
            continue
        atom = np.ones(n, dtype=bool)
        for mask in inv_masks:
            if mask[x]:
                atom &= mask
        seen |= atom
        blocks.append(tuple(np.flatnonzero(atom)))
    return tuple(blocks)


@pytest.fixture(scope="module")
def small_instances():
    """200 random Markovian forms with n <= 10, with full subset analysis."""
    rng = np.random.default_rng(1000)
    out = []
    start = time.monotonic()
    for seed in range(200):
        n = int(rng.integers(2, 11))
        comps = int(rng.integers(1, min(4, n) + 1))
        form = random_form(seed, n, comps, killing_prob=0.3 * (seed % 2))
        scale = 1.0 + np.abs(form.matrix).max()
        tol = 1e-10 * scale

        masks = np.array(
            list(itertools.product((0.0, 1.0), repeat=form.n)), dtype=float
        )
        energy_ok = _mask_off_block_defects(masks, form.matrix) <= tol
        semi_ok = np.ones(len(masks), dtype=bool)
        for t in (0.3, 1.0):
            semi_ok &= _mask_off_block_defects(masks, semigroup(form, t)) <= tol
        res_ok = np.ones(len(masks), dtype=bool)
        for a in (1.0, 5.0):
            res_ok &= _mask_off_block_defects(masks, resolvent(form, a)) <= tol

        oracle_partition = tuple(
            tuple(form.space.points[i] for i in block)
            for block in _atoms_from_invariant_masks(masks, energy_ok)
        )
        out.append(
            {
                "form": form,
                "energy_ok": energy_ok,
                "semi_ok": semi_ok,
                "res_ok": res_ok,
                "oracle_partition": oracle_partition,
            }
        )
    elapsed = time.monotonic() - start
    return out, elapsed


@pytest.fixture(scope="module")
def large_instances():
    """500 probability-normalized instances with n <= 60 and <= 8 components."""
    rng = np.random.default_rng(2024)
    out = []
    for seed in range(500):
        n = int(rng.integers(8, 61))
        comps = int(rng.integers(1, min(8, n) + 1))
        killing = 0.25 if seed % 2 else 0.0
        form = random_form(seed, n, comps, killing_prob=killing, probability=True)
        out.append((form, decompose(form)))
    return out


@pytest.fixture
def fx_all(fx_edge, fx_twin, fx_kill, fx_grid, fx_twin_kill):
    return {
        "edge": fx_edge,
        "twin": fx_twin,
        "kill": fx_kill,
        "grid": fx_grid,
        "twin_kill": fx_twin_kill,
    }


def test_criterion_01_invariant_set_oracle(small_instances):
    instances, elapsed = small_instances
    mismatches = sum(
        1
        for item in instances
        if invariant_sets(item["form"]) != item["oracle_partition"]
    )
    _report(
        1,
        "invariant-set oracle equivalence (200 instances, exhaustive)",
        mismatches == 0 and elapsed < 10.0,
        f"(mismatches={mismatches}, elapsed={elapsed:.2f}s)",
    )


def test_criterion_02_criteria_agree(small_instances):
    instances, _ = small_instances
    disagreements = 0
    for item in instances:
        if not (
            np.array_equal(item["energy_ok"], item["semi_ok"])
            and np.array_equal(item["energy_ok"], item["res_ok"])
        ):
            disagreements += 1
    _report(
        2,
        "invariance criteria (a)-(d) agree on every subset",
        disagreements == 0,
        f"(disagreeing instances: {disagreements})",
    )


def test_criterion_03_reassembly(large_instances):
    rng = np.random.default_rng(3)
    worst = 0.0
    for form, dec in large_instances:
        for _ in range(20):
            f = rng.uniform(-1.0, 1.0, form.n)
            energy = form.energy(f)
            defect = abs(energy - dec.reassembled_energy(f)) / (1.0 + energy)
            worst = max(worst, defect)
    _report(3, "energy reassembly over 500 instances", worst <= 1e-10, f"(worst={worst:.2e})")


def test_criterion_04_semigroup_resolvent_decomposition(large_instances):
    worst_semi = 0.0
    worst_res = 0.0
    for _, dec in large_instances:
        report = verify_decomposition(dec)
        worst_semi = max(worst_semi, *residual_values(report.residuals, "semigroup").values())
        worst_res = max(worst_res, *residual_values(report.residuals, "resolvent").values())
    _report(
        4,
        "semigroup/resolvent blockwise decomposition",
        worst_semi <= 1e-8 and worst_res <= 1e-10,
        f"(semigroup={worst_semi:.2e}, resolvent={worst_res:.2e})",
    )


def test_criterion_05_hille_yosida(large_instances):
    rng = np.random.default_rng(5)
    worst = 0.0
    for form, _ in large_instances[:100]:
        for alpha in (0.5, 1.0, 10.0):
            g = resolvent(form, alpha)
            for _ in range(5):
                u = rng.uniform(-1.0, 1.0, form.n)
                v = rng.uniform(-1.0, 1.0, form.n)
                lhs = form.energy(g @ u, v) + alpha * form.space.inner(g @ u, v)
                worst = max(worst, abs(lhs - form.space.inner(u, v)))
    _report(5, "resolvent pairing identity", worst <= 1e-10, f"(worst={worst:.2e})")


def test_criterion_06_yosida_convergence(large_instances, fx_edge):
    betas = [10.0 ** k for k in range(7)]
    rng = np.random.default_rng(6)
    ok = True
    worst_gap = 0.0
    for form, _ in large_instances[:50]:
        lam_max = form.spectrum[-1]
        for _ in range(3):
            f = rng.uniform(-1.0, 1.0, form.n)
            energy = form.energy(f)
            values = [yosida_form(form, b).energy(f) for b in betas]
            for lo, hi in zip(values, values[1:]):
                ok &= lo <= hi + 1e-12
            for b, v in zip(betas, values):
                gap = energy - v
                bound = lam_max * energy / b + 1e-12
                ok &= -1e-12 <= gap <= bound
                worst_gap = max(worst_gap, gap - bound)
    spot = yosida_form(fx_edge, 2.0).energy(np.array([1.0, 0.0]))
    ok &= abs(spot - 0.5) <= 1e-12
    _report(6, "monotone regularized-energy convergence", ok, f"(spot={spot:.15f})")


def test_criterion_07_carre_du_champ(large_instances, fx_all):
    rng = np.random.default_rng(7)
    worst_product = 0.0
    worst_restriction = 0.0
    worst_invariance = 0.0
    forms = [f for f, _ in large_instances[:30]] + list(fx_all.values())
    for form in forms:
        gamma = carre_du_champ(form)
        mu = form.space.mu
        for _ in range(5):
            f, g, h = (rng.uniform(-1.0, 1.0, form.n) for _ in range(3))
            lhs = form.energy(f, g * h) + form.energy(f * h, g) - form.energy(f * g, h)
            rhs = 2.0 * float(np.dot(h * gamma(f, g), mu))
            worst_product = max(worst_product, abs(lhs - rhs))
        dec = decompose(form)
        _, residuals = carre_decomposition(dec, rng=rng)
        worst_restriction = max(worst_restriction, residual_values(residuals)["restriction"])
        for z in dec.labels:
            idx = dec.quotient.block_indices(z)
            ind = np.zeros(form.n)
            ind[idx] = 1.0
            f, g = rng.uniform(-1.0, 1.0, form.n), rng.uniform(-1.0, 1.0, form.n)
            worst_invariance = max(
                worst_invariance,
                float(np.abs(ind * gamma(f, g) - gamma(ind * f, g)).max()),
            )
    ok = worst_product <= 1e-12 and worst_restriction <= 1e-12 and worst_invariance <= 1e-12
    _report(
        7,
        "pointwise energy density identities",
        ok,
        f"(product={worst_product:.2e}, fiber={worst_restriction:.2e}, "
        f"invariance={worst_invariance:.2e})",
    )


def test_criterion_08_girsanov_projective(fx_twin):
    psi = np.array([1.0, 1.0, 2.0, 2.0]) / np.sqrt(2.5)
    flat = decompose_weighted(fx_twin, np.ones(4))
    weighted = decompose_weighted(fx_twin, psi)
    comparison = compare_projective(flat, weighted)
    ok = (
        np.abs(flat.index_weights - [0.5, 0.5]).max() <= 1e-12
        and np.abs(weighted.index_weights - [0.2, 0.8]).max() <= 1e-12
        and np.abs(comparison.density_ratio - [0.4, 1.6]).max() <= 1e-12
        and np.abs(weighted.lifted_measures[0] - [1.25, 1.25]).max() <= 1e-12
    )

    rng = np.random.default_rng(8)
    worst = 0.0
    for seed in range(100):
        n = int(rng.integers(4, 25))
        comps = int(rng.integers(1, min(6, n) + 1))
        form = random_form(seed + 7000, n, comps)
        phi = rng.uniform(0.4, 2.5, n)
        psi_r = rng.uniform(0.4, 2.5, n)
        cp = compare_projective(
            decompose_weighted(form, phi), decompose_weighted(form, psi_r)
        )
        worst = max(worst, *residual_values(cp.residuals).values())
    ok &= worst <= 1e-10
    _report(8, "reweighted decomposition and projective uniqueness", ok, f"(worst={worst:.2e})")


def test_criterion_09_lp_isometries(fx_twin):
    _, family = disintegrate_over_partition(fx_twin.space, [["a", "b"], ["c", "d"]])
    ok = True
    for p in (1, 2, 4):
        report = assemble_lp(fx_twin.space, family, p)
        ok &= report.residuals[0].value <= 1e-12 and report.lattice_exact

    rng = np.random.default_rng(9)
    for seed in range(50):
        form = random_form(seed + 4000, int(rng.integers(3, 15)), 2)
        dec = decompose(form)
        for p in (1, 2, 4):
            report = assemble_lp(dec.quotient.space, dec.family, p, rng=rng)
            ok &= report.residuals[0].value <= 1e-12 and report.lattice_exact

    # Non-separated one-point example: isometric but rank-deficient.
    space = validate_space([("*", 2.0)])
    family = MeasureFamily(
        IndexSpace((0, 1), [1.0, 1.0]),
        {0: Fiber(("*",), [1.0]), 1: Fiber(("*",), [1.0])},
    )
    embed = assemble_l2(space, family)
    images = np.stack([embed.family.stack(embed(np.array([v]))) for v in (1.0, 2.0)])
    ok &= not embed.separated
    ok &= np.linalg.matrix_rank(images) == 1 and embed.family.dim == 2
    ok &= abs(embed.family.norm(embed(np.array([1.5]))) - space.norm([1.5])) <= 1e-12
    _report(9, "L2/Lp isometries and the non-separated example", ok)


def test_criterion_10_classification(fx_all):
    ok = True
    cls = classify(fx_all["twin_kill"])
    ok &= cls.conservative_part == ("a", "b", "c", "d")
    ok &= cls.transient_part == ("e", "f")
    kill = fx_all["kill"]
    ok &= classify(kill).transient
    ok &= np.abs(semigroup(kill, 1.0) @ np.ones(2)).max() < 1.0

    rng = np.random.default_rng(10)
    for seed in range(200):
        n = int(rng.integers(2, 21))
        comps = int(rng.integers(1, min(5, n) + 1))
        form = random_form(seed + 5000, n, comps, killing_prob=0.4)
        out = classification_decomposition(decompose(form))
        ok &= out.consistent
        expected_transient = []
        for z, block in out.overall.per_component.items():
            idx = form.space.indices_of(block.points)
            # Generated killing weights are >= 0.1; anything smaller is roundoff.
            if form.killing[idx].max() > 1e-6:
                expected_transient.extend(block.points)
        ok &= sorted(out.transient_part, key=form.space.index_of) == sorted(
            expected_transient, key=form.space.index_of
        )
    _report(10, "transience/recurrence splitting and fiber flags", ok)


def test_criterion_11_invariant_measures(fx_all):
    twin = fx_all["twin"]
    mixture = decompose_invariant_measure(twin, twin.space.mu)
    ok = mixture.reconstruction_defect <= 1e-12
    ok &= np.allclose(mixture.weights, [0.5, 0.5], atol=1e-14)

    lams = ergodic_measures(twin)
    m0 = decompose_invariant_measure(twin, lams[0].weights)
    m1 = decompose_invariant_measure(twin, lams[1].weights)
    rel = invariant_measure_relations(twin, m0, m1)
    ok &= rel.mutually_singular and rel.consistent
    rel = invariant_measure_relations(twin, m0, mixture)
    ok &= rel.ac_forward and not rel.ac_backward and rel.consistent

    ok &= ergodic_measures(fx_all["kill"]) == ()

    mixed = fx_all["twin_kill"]
    rng = np.random.default_rng(11)
    for _ in range(20):
        weights = rng.uniform(0.0, 2.0, 2)
        eta = sum(w * m.weights for w, m in zip(weights, ergodic_measures(mixed)))
        out = decompose_invariant_measure(mixed, eta)
        ok &= np.abs(out.reconstructed() - eta).max() <= 1e-12
        ok &= np.abs(out.weights - weights).max() <= 1e-12
    _report(11, "invariant-measure mixtures", ok)


def test_criterion_12_functional_calculus():
    rng = np.random.default_rng(12)
    worst_poly = 0.0
    worst_cheb = 0.0
    for seed in range(20):
        n = int(rng.integers(6, 21))
        comps = int(rng.integers(2, 5))
        form = random_form(seed + 6000, n, comps, killing_prob=0.2)
        dec = decompose(form)
        for base in (semigroup(form, 1.0), resolvent(form, 1.0)):
            op = decompose_operator(base, dec.quotient)
            for degree in range(1, 7):
                coeffs = rng.uniform(-1.0, 1.0, degree + 1)
                blockwise = functional_calculus(op, coeffs).assembled
                dense = polynomial_matrix(op.assembled, coeffs)
                worst_poly = max(worst_poly, float(np.abs(blockwise - dense).max()))
            for fn in (abs, np.exp):
                blockwise = functional_calculus(op, fn, degree=50).assembled
                coef = chebyshev_coefficients(fn, op.operator_norm, 50)
                dense = chebyshev_matrix(op.assembled, coef, op.operator_norm)
                worst_cheb = max(worst_cheb, float(np.abs(blockwise - dense).max()))
    ok = worst_poly <= 1e-10 and worst_cheb <= 1e-6
    _report(
        12,
        "blockwise functional calculus",
        ok,
        f"(poly={worst_poly:.2e}, chebyshev={worst_cheb:.2e})",
    )
