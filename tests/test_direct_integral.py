import numpy as np
import pytest

from ergodec import (
    Fiber,
    FiberDimensionMismatchError,
    IndexSpace,
    InvalidExponentError,
    MeasureFamily,
    NotDecomposableError,
    NotSeparatedError,
    QuotientMap,
    assemble_form,
    assemble_l2,
    assemble_lp,
    assemble_operator,
    commutes_with_diagonalizables,
    decompose,
    decompose_operator,
    diagonalizable,
    disintegrate_over_partition,
    functional_calculus,
    quotient_by_invariant_partition,
    random_form,
    resolvent,
    semigroup,
    superpose,
    validate_space,
)
from ergodec._linalg import chebyshev_coefficients, chebyshev_matrix, polynomial_matrix

from conftest import naive_block_sum

def twin_family(form):
    return disintegrate_over_partition(form.space, [["a", "b"], ["c", "d"]])


# ------------------------------------------------------------ L2 embedding


def test_l2_isometry_twin(fx_twin):
    _, family = twin_family(fx_twin)
    embed = assemble_l2(fx_twin.space, family)
    f = np.array([1.0, 2.0, 3.0, 4.0])
    assert embed.family.norm(embed(f)) ** 2 == pytest.approx(7.5, abs=1e-12)
    assert fx_twin.space.norm(f) ** 2 == pytest.approx(7.5, abs=1e-12)
    assert np.array_equal(embed.inverse(embed(f)), f)


def test_l2_embedding_preserves_positivity(fx_twin):
    _, family = twin_family(fx_twin)
    embed = assemble_l2(fx_twin.space, family)
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = rng.uniform(-1.0, 1.0, 4)
        fields = embed(f)
        assert (f >= 0).all() == all((u >= 0).all() for u in fields)


def test_l2_two_copies_rank_deficient():
    # One point of mass two, split as two unit copies: the embedding is
    # isometric but lands in a one-dimensional subspace of the plane.
    space = validate_space([("*", 2.0)])
    index = IndexSpace((0, 1), [1.0, 1.0])
    family = MeasureFamily(index, {0: Fiber(("*",), [1.0]), 1: Fiber(("*",), [1.0])})
    embed = assemble_l2(space, family)
    assert not embed.separated
    f = np.array([3.0])
    assert embed.family.norm(embed(f)) == pytest.approx(space.norm(f), abs=1e-12)
    images = np.stack([embed.family.stack(embed(np.array([v]))) for v in (1.0, -2.0)])
    assert np.linalg.matrix_rank(images) == 1
    assert embed.family.dim == 2
    with pytest.raises(NotSeparatedError):
        embed.inverse(embed(f))


def test_l2_lattice_and_isometry_random_families():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        space = validate_space([(i, w) for i, w in enumerate(rng.uniform(0.1, 2.0, n))])
        cuts = sorted(rng.choice(np.arange(1, n), size=min(int(rng.integers(0, 3)), n - 1), replace=False))
        blocks, start = [], 0
        for c in list(cuts) + [n]:
            blocks.append(list(range(start, c)))
            start = c
        _, family = disintegrate_over_partition(space, blocks)
        embed = assemble_l2(space, family)
        for _ in range(20):
            f = rng.uniform(-1.0, 1.0, n)
            g = rng.uniform(-1.0, 1.0, n)
            assert abs(embed.family.norm(embed(f)) - space.norm(f)) <= 1e-12
            meet = embed(np.minimum(f, g))
            for u, a, b in zip(meet, embed(f), embed(g)):
                assert np.array_equal(u, np.minimum(a, b))
            pos = embed(np.maximum(f, 0.0))
            for u, a in zip(pos, embed(f)):
                assert np.array_equal(u, np.maximum(a, 0.0))


# ------------------------------------------------------------ Lp embedding


def test_lp_isometry_values(fx_twin):
    _, family = twin_family(fx_twin)
    f = np.array([1.0, -1.0, 0.0, 0.0])
    assert fx_twin.space.lp_norm(f, 1) == pytest.approx(0.5, abs=1e-14)
    report = assemble_lp(fx_twin.space, family, 1)
    assert report.residuals[0].value <= 1e-12
    assert report.lattice_exact


@pytest.mark.parametrize("p", [1, 2, 4])
def test_lp_isometry_exponents(fx_twin, p):
    _, family = twin_family(fx_twin)
    report = assemble_lp(fx_twin.space, family, p)
    assert report.residuals[0].value <= 1e-12
    assert report.lattice_exact


def test_lp_quarter_mass_point(fx_twin):
    # ||e_a||_4^4 = 1/4 = nu(z0) * ||e_a||^4 on the fiber.
    _, family = twin_family(fx_twin)
    f = np.array([1.0, 0.0, 0.0, 0.0])
    lhs = fx_twin.space.lp_norm(f, 4) ** 4
    fiber = family.fibers["z0"]
    rhs = family.index.weight("z0") * fiber.lp_norm(f[:2], 4) ** 4
    assert lhs == pytest.approx(rhs, abs=1e-14) == pytest.approx(0.25, abs=1e-14)


def test_lp_rejects_bad_exponent(fx_twin):
    _, family = twin_family(fx_twin)
    with pytest.raises(InvalidExponentError):
        assemble_lp(fx_twin.space, family, 0.5)


def test_lp_rejects_non_separated():
    space = validate_space([("*", 2.0)])
    index = IndexSpace((0, 1), [1.0, 1.0])
    family = MeasureFamily(index, {0: Fiber(("*",), [1.0]), 1: Fiber(("*",), [1.0])})
    with pytest.raises(NotSeparatedError):
        assemble_lp(space, family, 2)


# ------------------------------------------------------------ forms


def test_assemble_form_reproduces_twin_energy(fx_twin):
    _, family = twin_family(fx_twin)
    embed = assemble_l2(fx_twin.space, family)
    fiber_forms = [
        2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
        4.0 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
    ]
    form = assemble_form(embed.family, fiber_forms)
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = rng.uniform(-1.0, 1.0, 4)
        assert form.energy(embed(f)) == pytest.approx(fx_twin.energy(f), abs=1e-12)
    ok, witness = form.is_dirichlet()
    assert ok and witness is None


def test_assemble_form_zero_fibers(fx_twin):
    _, family = twin_family(fx_twin)
    embed = assemble_l2(fx_twin.space, family)
    form = assemble_form(embed.family, [np.zeros((2, 2)), np.zeros((2, 2))])
    assert form.energy(embed(np.array([1.0, -2.0, 3.0, 0.5]))) == 0.0


def test_assemble_form_bad_fiber_witness(fx_twin):
    _, family = twin_family(fx_twin)
    embed = assemble_l2(fx_twin.space, family)
    bad = np.array([[1.0, 0.5], [0.5, 1.0]])
    form = assemble_form(embed.family, [np.array([[1.0, -1.0], [-1.0, 1.0]]), bad])
    ok, witness = form.is_dirichlet()
    assert not ok
    # The lifted witness still violates the contraction on the assembled matrix.
    v = embed.family.stack(witness)
    q = form.assembled_matrix
    c = np.clip(v, 0.0, 1.0)
    assert c @ q @ c > v @ q @ v + 1e-12


def test_assemble_form_dimension_mismatch(fx_twin):
    _, family = twin_family(fx_twin)
    embed = assemble_l2(fx_twin.space, family)
    with pytest.raises(FiberDimensionMismatchError):
        assemble_form(embed.family, [np.zeros((3, 3)), np.zeros((2, 2))])


@pytest.mark.parametrize("extra", [np.eye(5), "junk"])
def test_assemble_form_rejects_extra_fiber_forms(fx_twin, extra):
    # Three forms on two fibers: the third must not be dropped silently.
    _, family = twin_family(fx_twin)
    embed = assemble_l2(fx_twin.space, family)
    forms = [np.zeros((2, 2)), np.zeros((2, 2)), extra]
    with pytest.raises(FiberDimensionMismatchError):
        assemble_form(embed.family, forms)
    with pytest.raises(FiberDimensionMismatchError):
        superpose(fx_twin.space, family, forms)


def test_assembled_semigroup_resolvent_decompose(fx_twin):
    _, family = twin_family(fx_twin)
    embed = assemble_l2(fx_twin.space, family)
    # Fibers of the canonical decomposition: blocks over block mass.
    fiber_forms = [fx_twin.matrix[:2, :2] / 0.5, fx_twin.matrix[2:, 2:] / 0.5]
    form = assemble_form(embed.family, fiber_forms)
    for t in (0.1, 1.0):
        assembled = form.semigroup(t).assembled
        dense = semigroup(fx_twin, t)
        assert np.linalg.norm(assembled - dense, "fro") <= 1e-8
    for alpha in (0.5, 1.0, 10.0):
        assembled = form.resolvent(alpha).assembled
        dense = resolvent(fx_twin, alpha)
        assert np.linalg.norm(assembled - dense, "fro") <= 1e-10


# ------------------------------------------------------------ operators


def test_decompose_semigroup_operator(fx_twin):
    qmap, _ = twin_family(fx_twin)
    t1 = semigroup(fx_twin, 1.0)
    op = decompose_operator(t1, qmap)
    assert np.allclose(op.blocks[0], t1[:2, :2])
    assert np.allclose(op.blocks[1], t1[2:, 2:])
    # Round trip through assemble.
    again = assemble_operator(op.family, op.blocks)
    assert np.array_equal(again.assembled, op.assembled)


def test_decompose_identity(fx_twin):
    qmap, _ = twin_family(fx_twin)
    op = decompose_operator(np.eye(4), qmap)
    for b in op.blocks:
        assert np.array_equal(b, np.eye(2))
    assert op.operator_norm == pytest.approx(1.0, abs=1e-12)


def test_swap_not_decomposable(fx_twin):
    qmap, _ = twin_family(fx_twin)
    swap = np.eye(4)
    swap[[1, 2]] = swap[[2, 1]]
    with pytest.raises(NotDecomposableError) as err:
        decompose_operator(swap, qmap)
    assert err.value.off_block_norm == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_is_max_over_fibers(fx_twin):
    qmap, family = twin_family(fx_twin)
    embed = assemble_l2(fx_twin.space, family)
    rng = np.random.default_rng(9)
    blocks = [rng.uniform(-1, 1, (2, 2)) for _ in range(2)]
    op = assemble_operator(embed.family, blocks)
    mus = [f.mu for f in embed.family.fiber_spaces()]
    expected = max(
        np.linalg.norm(np.sqrt(m)[:, None] * b / np.sqrt(m)[None, :], 2)
        for b, m in zip(blocks, mus)
    )
    assert op.operator_norm == pytest.approx(expected, abs=1e-12)


def test_diagonalizable_twin(fx_twin):
    qmap, family = twin_family(fx_twin)
    embed = assemble_l2(fx_twin.space, family)
    op = diagonalizable(embed.family, {"z0": 5.0, "z1": 7.0})
    assert np.allclose(op.assembled, np.diag([5.0, 5.0, 7.0, 7.0]))
    assert np.allclose(diagonalizable(embed.family, [1.0, 1.0]).assembled, np.eye(4))
    proj = diagonalizable(embed.family, [1.0, 0.0]).assembled
    assert np.allclose(proj, np.diag([1.0, 1.0, 0.0, 0.0]))


def test_indicator_diagonalizable_is_point_multiplication(fx_twin):
    # Multiplication by the indicator of a label set acts as multiplication
    # by the indicator of the preimage point set.
    qmap, family = twin_family(fx_twin)
    embed = assemble_l2(fx_twin.space, family)
    op = diagonalizable(embed.family, {"z0": 1.0, "z1": 0.0})
    rng = np.random.default_rng(12)
    ind = np.array([1.0, 1.0, 0.0, 0.0])
    for _ in range(10):
        f = rng.uniform(-1, 1, 4)
        applied = embed.inverse(op.apply(embed(f)))
        assert np.allclose(applied, ind * f)


def test_commutation_characterizes_decomposability(fx_twin):
    qmap, family = twin_family(fx_twin)
    embed = assemble_l2(fx_twin.space, family)
    t1 = semigroup(fx_twin, 1.0)
    ok, witness = commutes_with_diagonalizables(t1, embed.family)
    assert ok and witness is None

    swap = np.eye(4)
    swap[[1, 2]] = swap[[2, 1]]
    ok, witness = commutes_with_diagonalizables(swap, embed.family)
    assert not ok and witness == "z0"

    ok, _ = commutes_with_diagonalizables(3.0 * np.eye(4), embed.family)
    assert ok

    rng = np.random.default_rng(21)
    for _ in range(20):
        blocks = [rng.uniform(-1, 1, (2, 2)) for _ in range(2)]
        op = assemble_operator(embed.family, blocks)
        assert commutes_with_diagonalizables(op.assembled, embed.family)[0]
        dense = rng.uniform(-1, 1, (4, 4))
        dense[0, 3] = 1.0  # force off-block mass
        assert not commutes_with_diagonalizables(dense, embed.family)[0]


# ------------------------------------------------------------ calculus


def test_functional_calculus_square_of_resolvent(fx_edge, fx_twin):
    g1 = resolvent(fx_edge, 1.0)
    qmap = quotient_by_invariant_partition(fx_edge.space, [["a", "b"]])
    op = decompose_operator(g1, qmap)
    squared = functional_calculus(op, [0.0, 0.0, 1.0])
    assert np.allclose(squared.assembled, np.array([[5.0, 4.0], [4.0, 5.0]]) / 9.0)


def test_functional_calculus_identity_polynomial(fx_twin):
    qmap, _ = twin_family(fx_twin)
    op = decompose_operator(semigroup(fx_twin, 1.0), qmap)
    same = functional_calculus(op, [0.0, 1.0])
    assert np.allclose(same.assembled, op.assembled, atol=1e-14)


def test_functional_calculus_semigroup_law(fx_twin):
    qmap, _ = twin_family(fx_twin)
    op = decompose_operator(semigroup(fx_twin, 1.0), qmap)
    squared = functional_calculus(op, [0.0, 0.0, 1.0])
    assert np.linalg.norm(squared.assembled - semigroup(fx_twin, 2.0), "fro") <= 1e-10


def test_functional_calculus_blockwise_equals_dense(fx_twin_kill):
    rng = np.random.default_rng(31)
    qmap, _ = disintegrate_over_partition(
        fx_twin_kill.space, [["a", "b"], ["c", "d"], ["e", "f"]]
    )
    for base in (semigroup(fx_twin_kill, 1.0), resolvent(fx_twin_kill, 1.0)):
        op = decompose_operator(base, qmap)
        coeffs = rng.uniform(-1, 1, 7)
        blockwise = functional_calculus(op, coeffs).assembled
        # Dense evaluation in the point coordinates, then decomposed.
        dense = polynomial_matrix(base, coeffs)
        assert np.abs(blockwise - decompose_operator(dense, qmap).assembled).max() <= 1e-10


def test_functional_calculus_chebyshev(fx_twin_kill):
    qmap, _ = disintegrate_over_partition(
        fx_twin_kill.space, [["a", "b"], ["c", "d"], ["e", "f"]]
    )
    for base in (semigroup(fx_twin_kill, 1.0), resolvent(fx_twin_kill, 1.0)):
        op = decompose_operator(base, qmap)
        for fn in (abs, np.exp):
            blockwise = functional_calculus(op, fn, degree=50)
            bound = op.operator_norm
            coef = chebyshev_coefficients(fn, bound, 50)
            dense = chebyshev_matrix(base, coef, bound)
            assert np.abs(blockwise.assembled - dense).max() <= 1e-6


def test_functional_calculus_spectrum_dependence(fx_twin):
    # Two polynomials agreeing on the eigenvalues give the same operator.
    qmap, _ = twin_family(fx_twin)
    base = semigroup(fx_twin, 1.0)
    op = decompose_operator(base, qmap)
    eigs = np.unique(np.round(np.linalg.eigvalsh(
        np.sqrt(fx_twin.space.mu)[:, None] * base / np.sqrt(fx_twin.space.mu)[None, :]
    ), 12))
    p = np.array([0.5, -1.0, 2.0, 0.25])
    vanishing = np.polynomial.polynomial.polyfromroots(eigs)
    q = np.polynomial.polynomial.polyadd(p, 0.7 * vanishing)
    out_p = functional_calculus(op, p).assembled
    out_q = functional_calculus(op, q).assembled
    assert np.abs(out_p - out_q).max() <= 1e-10


# ------------------------------------------------------------ superposition


def test_superpose_twin_reproduces_form(fx_twin):
    _, family = twin_family(fx_twin)
    fibers = [fx_twin.matrix[:2, :2] / 0.5, fx_twin.matrix[2:, 2:] / 0.5]
    result = superpose(fx_twin.space, family, fibers)
    assert np.abs(result.energy_matrix - fx_twin.matrix).max() <= 1e-12
    assert result.isomorphism_defect <= 1e-12


def test_superpose_single_fiber(fx_edge):
    _, family = disintegrate_over_partition(fx_edge.space, [["a", "b"]])
    fiber = fx_edge.matrix / 2.0
    result = superpose(fx_edge.space, family, [fiber])
    # nu = mass of the block, so the superposition rebuilds the form.
    assert np.abs(result.energy_matrix - fx_edge.matrix).max() <= 1e-12


def test_superpose_grid_rows(fx_grid):
    rows = [[(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 1), (2, 1)]]
    qmap, family = disintegrate_over_partition(fx_grid.space, rows)
    fibers = []
    for z in qmap.index.labels:
        idx = qmap.block_indices(z)
        fibers.append(fx_grid.matrix[np.ix_(idx, idx)] / qmap.index.weight(z))
    result = superpose(fx_grid.space, family, fibers)
    rng = np.random.default_rng(17)
    for _ in range(20):
        f = rng.uniform(-1, 1, 6)
        assert result.energy(f) == pytest.approx(fx_grid.energy(f), abs=1e-12)


def test_superpose_requires_separated():
    space = validate_space([("*", 2.0)])
    index = IndexSpace((0, 1), [1.0, 1.0])
    family = MeasureFamily(index, {0: Fiber(("*",), [1.0]), 1: Fiber(("*",), [1.0])})
    with pytest.raises(NotSeparatedError):
        superpose(space, family, [np.zeros((1, 1)), np.zeros((1, 1))])


def test_separation_is_decided_once(monkeypatch, fx_twin):
    # superpose and assemble_lp read the embedding's verdict; the witness is
    # searched again only for a family that is not separated.
    import ergodec.direct_integral
    from conftest import spy

    _, family = twin_family(fx_twin)
    fibers = [fx_twin.matrix[:2, :2] / 0.5, fx_twin.matrix[2:, 2:] / 0.5]
    for call in (lambda: superpose(fx_twin.space, family, fibers),
                 lambda: assemble_lp(fx_twin.space, family, 3)):
        calls = spy(monkeypatch, ergodec.direct_integral, "is_separated", id)
        call()
        assert len(calls) == 1
        monkeypatch.undo()

    space = validate_space([("*", 2.0)])
    index = IndexSpace((0, 1), [1.0, 1.0])
    overlapping = MeasureFamily(index, {0: Fiber(("*",), [1.0]), 1: Fiber(("*",), [1.0])})
    for call in (lambda: superpose(space, overlapping, [np.zeros((1, 1))] * 2),
                 lambda: assemble_lp(space, overlapping, 2)):
        with pytest.raises(NotSeparatedError) as info:
            call()
        assert str(info.value) == "family is not separated (point '*' in two supports)"


def test_superpose_over_supports_that_skip_a_point():
    # One fiber on b and c: the layout of the supports leaves the first
    # point out, and still assembles.  The supports carry no mass at a, so
    # the defect of the isomorphism is the largest f(a)^2 drawn.
    space = validate_space([("a", 1.0), ("b", 2.0), ("c", 3.0)])
    family = MeasureFamily(IndexSpace(("z",), [5.0]), {"z": Fiber(("b", "c"), [0.4, 0.6])})
    result = superpose(space, family, [np.array([[1.0, -1.0], [-1.0, 1.0]])])
    assert result.energy_matrix.tolist() == [[0.0, 0.0, 0.0], [0.0, 5.0, -5.0], [0.0, -5.0, 5.0]]
    assert result.isomorphism_defect == pytest.approx(0.934982108830539, rel=1e-12)
    assert [idx.tolist() for idx in result.embedding._layout.blocks] == [[1, 2]]


# ------------------------------------------------------------ block layout


@pytest.mark.parametrize(
    "assignment",
    [
        {"a": "y", "b": "x", "c": "x"},
        {"a": "y", "b": "y", "c": "x", "d": "x"},
    ],
    ids=["sizes-2-1", "sizes-2-2"],
)
def test_decompose_operator_follows_quotient_label_order(assignment):
    # The "x" block holds the later points, so the label order is not the
    # smallest-point order that disintegrate_over_partition would choose.
    points = tuple(assignment)
    rng = np.random.default_rng(4)
    space = validate_space(zip(points, rng.uniform(0.5, 2.0, len(points))))
    labels = ("x", "y")
    masses = [sum(w for p, w in zip(points, space.mu) if assignment[p] == z) for z in labels]
    qmap = QuotientMap(space, assignment, IndexSpace(labels, masses))
    same_block = np.array([[assignment[p] == assignment[q] for q in points] for p in points])
    matrix = np.where(same_block, rng.uniform(-1.0, 1.0, same_block.shape), 0.0)

    op = decompose_operator(matrix, qmap)
    assert op.family.index.labels == qmap.index.labels
    for i, z in enumerate(qmap.index.labels):
        assert op.family.fiber_spaces()[i].points == qmap.blocks[z]
        idx = qmap.block_indices(z)
        assert np.array_equal(op.blocks[i], matrix[np.ix_(idx, idx)])


def test_every_partition_is_a_stacked_layout(fx_grid):
    from ergodec._linalg import StackedLayout

    rows = [[(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 1), (2, 1)]]
    qmap, family = disintegrate_over_partition(fx_grid.space, rows)
    embed = assemble_l2(fx_grid.space, family)
    for layout in (qmap._layout, family._layout, embed._layout):
        assert isinstance(layout, StackedLayout)
        assert layout.count == 2
    assert [idx.tolist() for idx in family._layout.blocks] == [[0, 1, 2], [3, 4, 5]]
    for idx, support in zip(embed._layout.blocks, qmap._layout.blocks):
        assert np.array_equal(idx, support)


def multi_fiber_decompositions():
    return [decompose(random_form(seed, n, comps, killing_prob=0.2))
            for seed, n, comps in ((1, 12, 3), (2, 30, 7), (3, 25, 25))]


@pytest.mark.parametrize("dec", multi_fiber_decompositions())
def test_block_writers_match_naive_sum(dec):
    space, family = dec.quotient.space, dec.family
    bounds = np.cumsum((0,) + family.dims)
    stacked = [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    rng = np.random.default_rng(len(family.dims))

    blocks = [rng.uniform(-1.0, 1.0, (d, d)) for d in family.dims]
    op = assemble_operator(family, blocks)
    assert np.array_equal(op.assembled, naive_block_sum(family.dim, stacked, blocks))

    matrices = [f.matrix for f in dec.fibers]
    weighted = [nu * m for nu, m in zip(family.index.nu, matrices)]
    form = assemble_form(family, matrices)
    assert np.array_equal(form.assembled_matrix, naive_block_sum(family.dim, stacked, weighted))

    supports = [space.indices_of(family.fibers[z].support) for z in family.index.labels]
    result = superpose(space, family, dec.fibers)
    assert np.array_equal(result.energy_matrix, naive_block_sum(space.n, supports, weighted))
