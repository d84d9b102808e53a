import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodec import (
    DirichletForm,
    HasKillingError,
    NegativeTimeError,
    NonFiniteError,
    NonPositiveAlphaError,
    NonPositiveBetaError,
    NonPositivePhiError,
    NotMarkovianError,
    NotPSDError,
    NotRepresentableError,
    beurling_deny,
    carre_du_champ,
    classify,
    generator,
    girsanov_transform,
    invariant_sets,
    is_invariant,
    is_irreducible,
    is_markovian,
    random_form,
    resolvent,
    semigroup,
    validate_space,
    worst,
    yosida_form,
)

from conftest import (
    brute_force_witness,
    contraction_gain,
    partition_forms,
    random_contraction_search,
    reference_dense_form,
    reference_invariant_sets,
    reference_is_markovian,
    residual_values,
    series_expm,
    solve_resolvent,
    validated_jump_kernel_form,
)


# ------------------------------------------------------------ markovianity


def test_is_markovian_graph_laplacian(fx_edge):
    ok, (jump, killing) = is_markovian(np.array([[1.0, -1.0], [-1.0, 1.0]]), fx_edge.space)
    assert ok
    assert jump[0, 1] == 1.0
    assert np.allclose(killing, 0.0)


def test_is_markovian_rejects_positive_offdiagonal(fx_edge):
    ok, witness = is_markovian(np.array([[1.0, 0.5], [0.5, 1.0]]), fx_edge.space)
    assert not ok
    # The analytic witness is f = (1, -1/2): Q(f) = 3/4 < Q(f+ ^ 1) = 1.
    assert np.allclose(witness, [1.0, -0.5])
    q = np.array([[1.0, 0.5], [0.5, 1.0]])
    contracted = np.clip(witness, 0.0, 1.0)
    assert contracted @ q @ contracted > witness @ q @ witness + 1e-12


def test_is_markovian_killing_extraction(fx_kill):
    ok, (jump, killing) = is_markovian(np.array([[2.0, -1.0], [-1.0, 1.0]]), fx_kill.space)
    assert ok
    assert jump[0, 1] == 1.0
    assert np.allclose(killing, [1.0, 0.0])


def test_is_markovian_rejects_negative_rowsum():
    space = validate_space([("a", 1.0), ("b", 1.0)])
    # PSD with row sums (1, -0.4): pushing the constant up at b lowers energy.
    q = np.array([[2.0, -1.0], [-1.0, 0.6]])
    ok, witness = is_markovian(q, space)
    assert not ok
    contracted = np.clip(witness, 0.0, 1.0)
    assert contracted @ q @ contracted > witness @ q @ witness + 1e-12


def test_is_markovian_raises_not_psd(fx_edge):
    with pytest.raises(NotPSDError):
        is_markovian(np.array([[0.0, 1.0], [1.0, 0.0]]), fx_edge.space)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_is_markovian_rejects_non_finite_entries(fx_edge, bad):
    q = np.array([[1.0, -1.0], [-1.0, bad]])
    with pytest.raises(NonFiniteError, match=r"\(1, 1\)"):
        is_markovian(q, fx_edge.space)


def test_is_markovian_row_witness_with_tiny_diagonal(fx_edge):
    # Row sum 1e-15 - 1e-8 < -tol at a, whose diagonal is below tol: the
    # witness pushes the constant up by 1 there, gaining -2 r_a - q_aa.
    q = np.array([[1e-15, -1e-8], [-1e-8, 1.0]])
    ok, witness = is_markovian(q, fx_edge.space)
    assert not ok
    assert witness.tolist() == [2.0, 1.0]
    assert contraction_gain(q, witness) == pytest.approx(2e-8 - 3e-15, rel=1e-6)


def test_is_markovian_ranks_tiny_diagonal_row_by_its_gain():
    # Row a (diagonal below tol) gains about 2e-8; row c gains d^2 = 1.5e-8
    # with the witness 1 + d e_c, so row a must win.
    d = np.sqrt(1.5e-8)
    space = validate_space([("a", 1.0), ("b", 1.0), ("c", 1.0)])
    q = np.array([[1e-15, -1e-8, 0.0], [-1e-8, 4.0, -1.0 - d], [0.0, -1.0 - d, 1.0]])
    assert contraction_gain(q, np.array([1.0, 1.0, 1.0 + d])) == pytest.approx(1.5e-8)
    ok, witness = is_markovian(q, space)
    assert not ok
    assert witness.tolist() == [2.0, 1.0, 1.0]


def test_is_markovian_tie_goes_to_the_coupling():
    # The coupling (0, 1) gains 2^2/4 = 1 and the row sum -1 at point 2 gains
    # (-1)^2/1 = 1: on a tie the coupling wins.
    space = validate_space([("a", 1.0), ("b", 1.0), ("c", 1.0)])
    q = np.array([[8.0, 2.0, -2.0], [2.0, 4.0, 0.0], [-2.0, 0.0, 1.0]])
    ok, witness = is_markovian(q, space)
    assert not ok
    assert witness.tolist() == [1.0, -0.5, 0.0]
    assert contraction_gain(q, witness) == contraction_gain(q, np.array([1.0, 1.0, 2.0])) == 1.0


def test_is_markovian_coupling_just_above_tol(fx_edge):
    # tol = 1e-14 * (1 + 1): the coupling 3e-14 is a candidate, but its gain
    # 9e-28 is below roundoff, so the matrix is accepted with no jump.
    c = 3e-14
    ok, (jump, killing) = is_markovian(np.array([[1.0, c], [c, 1.0]]), fx_edge.space)
    assert ok
    assert jump.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert killing.tolist() == [1.0 + c, 1.0 + c]


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 1.0]))
def test_is_markovian_matches_brute_force_witness(n, seed, strength):
    # A graph Laplacian with killing plus a rank-one PSD term, which adds
    # positive couplings and negative row sums when its strength is nonzero.
    rng = np.random.default_rng(seed)
    jump = np.triu(rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.5), 1)
    jump = jump + jump.T
    killing = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.3)
    v = rng.normal(size=n)
    q = np.diag(jump.sum(axis=1) + killing) - jump + strength * np.outer(v, v)
    space = validate_space([(i, 1.0) for i in range(n)])
    scale = 1.0 + np.abs(q).max()
    expected, expected_gain = brute_force_witness(q, 1e-14 * scale)
    ok, payload = is_markovian(q, space)
    assert ok == (expected is None)
    if not ok:
        size = max(1.0, payload @ payload, expected @ expected)
        assert abs(contraction_gain(q, payload) - expected_gain) <= 1e-12 * scale * size


def test_markov_soundness_on_random_instances():
    # Whenever the check accepts, randomized contractions find no energy
    # increase; whenever it rejects, the returned witness violates.
    rng = np.random.default_rng(3)
    for seed in range(30):
        form = random_form(seed, int(rng.integers(2, 9)), 1, killing_prob=0.3)
        worst = random_contraction_search(form.matrix, rng, trials=400)
        assert worst <= 1e-12
        bad = form.matrix.copy()
        i, j = 0, 1
        bad[i, j] = bad[j, i] = abs(bad[i, j]) + 0.5
        bad += np.eye(form.n) * (1.0 - min(np.linalg.eigvalsh(bad).min(), 0.0))
        ok, witness = is_markovian(bad, form.space)
        assert not ok
        contracted = np.clip(witness, 0.0, 1.0)
        assert contracted @ bad @ contracted > witness @ bad @ witness + 1e-12


_eigvalsh = np.linalg.eigvalsh


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return _eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def psd_outcome(matrix, space):
    try:
        ok, _ = is_markovian(matrix, space)
    except NotPSDError as exc:
        return "not psd", exc.min_eigenvalue
    return "markovian", ok


def always_eigvalsh_outcome(matrix):
    """The outcome of the check that decides PSD by ``eigvalsh`` on every input."""
    q = 0.5 * (matrix + matrix.T)
    evals = _eigvalsh(q)
    if evals[0] < -1e-12 * max(1.0, float(np.abs(evals).max())):
        return "not psd", float(evals[0])
    witness, _ = brute_force_witness(q, 1e-14 * (1.0 + np.abs(q).max()))
    return "markovian", witness is None


def laplacian(weights):
    jump = np.triu(weights, 1)
    jump = jump + jump.T
    return np.diag(jump.sum(axis=1)) - jump


def test_psd_certificate_needs_no_eigvalsh_for_generated_forms(eigvalsh_calls):
    from ergodec.serialize import form_from_json, form_to_json

    for seed, killing_prob in [(1, 0.0), (2, 0.3)]:
        form_from_json(form_to_json(random_form(seed, 60, 3, killing_prob=killing_prob)))
    assert eigvalsh_calls == []


def test_psd_certificate_falls_back_on_a_dense_psd_matrix(eigvalsh_calls):
    b = np.random.default_rng(4).standard_normal((30, 15))
    ok, _ = is_markovian(b @ b.T, validate_space([(i, 1.0) for i in range(30)]))
    assert not ok
    assert eigvalsh_calls == [(30, 30)]


@pytest.mark.parametrize("k", [0.0, 0.25, 0.49, 0.51, 0.99, 1.01, 2.0])
def test_psd_certificate_on_shifted_laplacian(eigvalsh_calls, k):
    # Weights near 1e-9 keep max(1, .) at 1, and the contraction gain of the
    # negative row sums far above the roundoff of the dense energies.
    space = validate_space([(i, 1.0) for i in range(6)])
    q = laplacian(np.random.default_rng(5).uniform(0.5, 1.5, (6, 6)) * 1e-9)
    q -= k * 1e-12 * np.eye(6)
    assert psd_outcome(q, space) == always_eigvalsh_outcome(q)
    assert len(eigvalsh_calls) == (k > 0.5)


@pytest.mark.parametrize("k", [0.0, 0.25, 0.49, 0.51, 0.99, 1.01, 2.0])
def test_psd_certificate_on_shifted_laplacian_relative_threshold(eigvalsh_calls, k):
    # At this scale the eigvalsh threshold is relative to the spectral norm,
    # which lies above the largest diagonal entry the certificate uses.
    space = validate_space([(i, 1.0) for i in range(6)])
    q = laplacian(np.random.default_rng(6).uniform(0.5, 1.5, (6, 6)) * 1e3)
    q -= k * 1e-12 * float(np.diag(q).max()) * np.eye(6)
    outcome, expected = psd_outcome(q, space), always_eigvalsh_outcome(q)
    # The verdict on these row sums is roundoff, so only the PSD part is compared.
    assert outcome[0] == expected[0]
    if expected[0] == "not psd":
        assert outcome == expected
    assert len(eigvalsh_calls) == (k > 0.5)


@pytest.mark.parametrize("coupling", [0.25e-12, 0.49e-12, 0.51e-12, 2e-12, 1e-10, 1e-8])
def test_psd_certificate_on_laplacian_with_positive_coupling(eigvalsh_calls, coupling):
    space = validate_space([(i, 1.0) for i in range(6)])
    weights = np.zeros((6, 6))
    weights[np.arange(5), np.arange(1, 6)] = np.random.default_rng(7).uniform(0.5, 1.5, 5) * 1e-9
    q = laplacian(weights)
    q[0, 5] = q[5, 0] = coupling
    assert psd_outcome(q, space) == always_eigvalsh_outcome(q)
    assert len(eigvalsh_calls) == (coupling > 0.5e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
def test_contraction_never_raises_energy(values):
    space = validate_space([("a", 0.25), ("b", 0.25), ("c", 0.25), ("d", 0.25)])
    jump = np.zeros((4, 4))
    jump[0, 1] = jump[1, 0] = 1.0
    jump[2, 3] = jump[3, 2] = 2.0
    form = DirichletForm.from_jump_kernel(space, jump)
    f = np.array(values)
    for g in (np.clip(f, 0.0, 1.0), np.maximum(f, 0.0)):
        assert form.energy(g) <= form.energy(f) + 1e-12


# ------------------------------------------------------ jump-kernel certificate


def bits(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def assert_same_form(form, expected):
    for name in ("matrix", "jump", "killing"):
        got, want = getattr(form, name), getattr(expected, name)
        assert got.shape == want.shape and bits(got) == bits(want), name
        assert not got.flags.writeable, name


def build_both(space, jump, killing):
    """from_jump_kernel and the validated construction: both forms, or both errors."""
    outcomes = []
    for build in (DirichletForm.from_jump_kernel, validated_jump_kernel_form):
        try:
            with np.errstate(all="ignore"):
                outcomes.append(build(space, jump, killing))
        except ValueError as exc:
            outcomes.append(exc)
    return outcomes


weights = st.one_of(
    st.just(0.0), st.just(-0.0), st.floats(0.0, 1e6), st.floats(1e-300, 1e-6), st.floats(-1.0, 0.0)
)


@st.composite
def jump_kernel_inputs(draw):
    n = draw(st.integers(1, 5))
    jump = np.array(draw(st.lists(weights, min_size=n * n, max_size=n * n))).reshape(n, n)
    killing = draw(st.none() | st.lists(weights, min_size=n, max_size=n))
    return validate_space([(f"p{i}", 1.0) for i in range(n)]), jump, killing


@settings(max_examples=300, deadline=None)
@given(jump_kernel_inputs())
def test_jump_kernel_form_equals_validated_form(inputs):
    # Zero and -0.0 weights, killing=None and n in {1, 2} are all drawn; an
    # input that fails the certificate gives the validated error instead.
    form, expected = build_both(*inputs)
    if isinstance(expected, Exception):
        assert type(form) is type(expected) and str(form) == str(expected)
    else:
        assert_same_form(form, expected)


@pytest.mark.parametrize("n", [1, 2])
def test_jump_kernel_form_equals_validated_form_small(n):
    space = validate_space([(i, 0.5 + i) for i in range(n)])
    jump = np.full((n, n), -0.0)
    for killing in (None, np.zeros(n), np.full(n, 0.25)):
        form, expected = build_both(space, jump, killing)
        assert_same_form(form, expected)


def overflowing_rows():
    jump = np.zeros((4, 4))
    jump[0, 1:] = jump[1:, 0] = 8e307  # finite entries, row sum 2.4e308
    return jump


FALLBACK_INPUTS = {
    "negative-edge": ([[0.0, -1.0], [-1.0, 0.0]], None),
    "nan-edge": ([[0.0, np.nan], [np.nan, 0.0]], None),
    "inf-edge": ([[0.0, np.inf], [np.inf, 0.0]], None),
    "overflowing-edges": ([[0.0, 1.7e308, 1.7e308], [1.7e308, 0.0, 0.0], [1.7e308, 0.0, 0.0]], None),
    "overflowing-row-sum": (overflowing_rows(), None),
    "negative-killing": ([[0.0, 1.0], [1.0, 0.0]], [-1.0, 0.0]),
    # Finite entries whose row sum, 1e308, passes float max / 2: the diagonal overflows when
    # the constructor symmetrizes it.
    "row-sum-past-half-max": ([[0.0, 5e307, 5e307], [5e307, 0.0, -1.0], [5e307, -1.0, 0.0]], None),
}


@pytest.mark.parametrize("name", sorted(FALLBACK_INPUTS))
def test_uncertified_jump_kernel_gives_validated_error(name):
    jump, killing = FALLBACK_INPUTS[name]
    jump = np.array(jump, dtype=float)
    space = validate_space([(i, 1.0) for i in range(len(jump))])
    error, expected = build_both(space, jump, killing)
    assert isinstance(expected, Exception)
    assert type(error) is type(expected) and str(error) == str(expected)
    if isinstance(expected, NotMarkovianError):
        assert np.array_equal(error.witness, expected.witness)


def test_certified_construction_skips_is_markovian(monkeypatch):
    """The checks of ``is_markovian``, which the constructor runs too, are skipped on certified input."""
    import ergodec._validation
    from ergodec.serialize import form_from_json, form_to_json

    calls = []
    original = ergodec._validation._sub_markov

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ergodec._validation, "_sub_markov", spy)
    form = random_form(4, 40, 3, killing_prob=0.3)
    form_from_json(form_to_json(form))
    girsanov_transform(random_form(5, 20, 2), np.linspace(0.5, 1.5, 20))
    assert calls == []
    with pytest.raises(NotPSDError):
        DirichletForm.from_jump_kernel(form.space, -form.jump)
    assert len(calls) == 1


# ------------------------------------------------- jump kernel from the matrix


def stored_jump_kernel(q):
    """The kernel a form stored when it kept one: -q off the diagonal, floored at 0."""
    jump = np.negative(q)
    np.maximum(jump, 0.0, out=jump)
    np.fill_diagonal(jump, 0.0)
    return jump


def components_of_kernel(form, jump):
    """Connected components of the kernel's graph above COMPONENT_THRESHOLD, by union-find."""
    from ergodec.forms import COMPONENT_THRESHOLD

    parent = list(range(form.n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    jmax = float(jump.max())
    if jmax > 0:
        for x, y in np.argwhere(jump > COMPONENT_THRESHOLD * jmax):
            parent[root(x)] = root(y)
    blocks = {}
    for x in range(form.n):
        blocks.setdefault(root(x), []).append(form.space.points[x])
    return tuple(tuple(b) for b in blocks.values())


def assert_kernel_as_stored(form, symmetrized):
    """jump and killing bitwise as stored before, where the kernel was read from ``q``."""
    m = form.matrix
    with np.errstate(over="ignore"):
        q = 0.5 * (m + m.T) if symmetrized else m
    assert bits(form.jump) == bits(stored_jump_kernel(q))
    assert bits(form.killing) == bits(np.maximum(q.sum(axis=1), 0.0))
    assert not form.jump.flags.writeable and form.jump is form.jump
    with np.errstate(all="ignore"):
        assert invariant_sets(form) == components_of_kernel(form, form.jump)


wide_weights = st.one_of(weights, st.floats(1e307, 1.7e308))


@st.composite
def construction_inputs(draw):
    n = draw(st.integers(1, 5))
    jump = np.array(draw(st.lists(wide_weights, min_size=n * n, max_size=n * n))).reshape(n, n)
    killing = draw(st.none() | st.lists(wide_weights, min_size=n, max_size=n))
    # Where to flip the sign of a zero, and where to move an entry by one ulp.
    flips = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    nudges = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    return validate_space([(f"p{i}", 1.0) for i in range(n)]), jump, killing, flips, nudges


@settings(max_examples=300, deadline=None)
@given(construction_inputs())
def test_jump_is_the_stored_kernel_on_every_construction_path(inputs):
    from ergodec import decompose

    space, jump, killing, flips, nudges = inputs
    killing_array = np.zeros(space.n) if killing is None else np.array(killing)
    with np.errstate(all="ignore"):
        sym = 0.5 * (jump + jump.T)
        np.fill_diagonal(sym, 0.0)
        certified = ((sym >= 0).all() and (killing_array >= 0).all()
                     and np.isfinite(sym.sum(axis=1) + killing_array).all())
    try:
        with np.errstate(all="ignore"):
            form = DirichletForm.from_jump_kernel(space, jump, killing)
    except ValueError:
        return
    assert_kernel_as_stored(form, symmetrized=not certified)

    try:
        with np.errstate(all="ignore"):
            fibers = decompose(form).fibers
    except NotRepresentableError:  # a fiber's killing or jump underflows, as documented
        fibers = ()
    for fiber in fibers:
        assert_kernel_as_stored(fiber, symmetrized=False)

    # The constructor, given a matrix symmetric only within tolerance: signed
    # zeros and one-ulp moves make it asymmetric bit for bit.
    a = np.array(form.matrix)
    a[flips & (a == 0)] *= -1.0
    a[nudges] = np.nextafter(a[nudges], np.inf)
    for build in (DirichletForm, DirichletForm.from_matrix):
        try:
            with np.errstate(all="ignore"):
                built = build(space, a)
        except ValueError:
            continue
        assert_kernel_as_stored(built, symmetrized=True)


@pytest.mark.parametrize("a", [
    [[1.0, -1.0, -0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
    [[1.0, -1.0, 0.0], [np.nextafter(-1.0, 0.0), 1.0, 0.0], [0.0, 0.0, 0.0]],
], ids=["signed-zero", "one-ulp"])
def test_constructor_reads_the_kernel_from_the_symmetrization(a):
    # A matrix symmetric within tolerance only, but not bit for bit: the
    # form stores its symmetrization, the matrix the kernel is read from.
    space = validate_space([("a", 1.0), ("b", 1.0), ("c", 1.0)])
    a = np.array(a)
    form = DirichletForm(space, a)
    assert bits(form.matrix) == bits(0.5 * (a + a.T))
    assert_kernel_as_stored(form, symmetrized=True)
    if not np.array_equal(a, a.T):
        assert bits(form.jump) != bits(stored_jump_kernel(a))


def test_symmetrized_matrix_equals_out_of_place_quotient(monkeypatch):
    from ergodec._linalg import symmetrized_eig

    form = random_form(3, 30, 2, killing_prob=0.3)
    seen = []
    original = np.linalg.eigh

    def capture(a, *args, **kwargs):
        seen.append(np.array(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", capture)
    symmetrized_eig(form.matrix, form.space.mu)
    sqrt_mu = np.sqrt(form.space.mu)
    assert bits(seen[0]) == bits(form.matrix / sqrt_mu[:, None] / sqrt_mu[None, :])


# ------------------------------------------- dense validation in row panels


def _with(matrix, *entries):
    matrix = np.array(matrix)
    for x, y, value in entries:
        matrix[x, y] = value
    return matrix


def _antisymmetric_defect(matrix, factor):
    """``matrix`` with |A - A^T| = ``factor`` * SYMMETRY_RTOL * (1 + max |A|) at one pair."""
    from ergodec._tolerance import SYMMETRY_RTOL

    defect = factor * SYMMETRY_RTOL * (1.0 + np.abs(matrix).max())
    return _with(matrix, (70, 3, matrix[70, 3] + defect / 2), (3, 70, matrix[3, 70] - defect / 2))


def _dense_inputs():
    """Dense matrices of 130 to 150 points, three row panels, and 2 x 2 ones at float max."""
    rng = np.random.default_rng(23)
    markov = np.array(random_form(3, 150, 6, killing_prob=0.3).matrix)
    b = rng.standard_normal((150, 75))
    symmetric = rng.standard_normal((150, 150))
    return {
        "markov": markov,
        "markov-one-block": np.array(random_form(4, 130, 1, density=0.05).matrix),
        "psd-not-markov": b @ b.T,
        "not-psd": symmetric + symmetric.T,
        "nan": _with(markov, (100, 7, np.nan)),
        "inf": _with(markov, (3, 120, np.inf), (140, 2, -np.inf)),
        "diagonal-above-half-max": _with(markov, (80, 80, 1e308)),
        "coupling-above-half-max": _with(markov, (5, 90, 1.7e308), (90, 5, 1.7e308)),
        "one-sided-above-half-max": _with(markov, (5, 90, 1.7e308)),
        "asymmetry-inside": _antisymmetric_defect(markov, 0.9),
        "asymmetry-outside": _antisymmetric_defect(markov, 1.1),
        "positive-coupling-in-last-panel": _with(markov, (140, 141, 1e-3), (141, 140, 1e-3)),
        # Equal gains in the first and the second panel: the first in row-major order wins.
        "tied-couplings-in-two-panels": _with(
            markov, *[(x, x, 50.0) for x in (10, 11, 100, 101)],
            *[(x, y, 1.0) for x, y in ((10, 11), (11, 10), (100, 101), (101, 100))]),
        "negative-diagonal-overflows": np.array([[-1.0, 0.0], [0.0, 9e307]]),
        "coupling-overflows": np.array([[1.0, 9e307], [9e307, 1.0]]),
    }


DENSE_INPUTS = _dense_inputs()


def dense_outcome(build):
    """The bytes of the form (or of the payload of ``is_markovian``), or the error and its witness."""
    try:
        result = build()
    except Exception as exc:  # every error is compared, whatever its type
        witness = getattr(exc, "witness", None)
        return type(exc), str(exc), None if witness is None else bits(witness)
    if isinstance(result, DirichletForm):
        return bits(result.matrix), bits(result.killing)
    ok, payload = result
    return (bits(payload[0]), bits(payload[1])) if ok else ("witness", bits(payload))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference warns on overflow
@pytest.mark.parametrize("name", sorted(DENSE_INPUTS))
def test_dense_validation_matches_the_reference(name):
    from ergodec.serialize import form_from_json

    matrix = DENSE_INPUTS[name]
    n = len(matrix)
    space = validate_space([(f"p{i}", 0.1 + i % 7) for i in range(n)])
    document = {"space": {"points": list(space.points), "mu": space.mu.tolist()},
                "matrix": matrix.tolist()}

    def reference_form(symmetrize=True):
        return lambda: DirichletForm._unchecked(
            space, *reference_dense_form(space, matrix, symmetrize=symmetrize))

    pairs = [
        (lambda: DirichletForm.from_matrix(space, matrix), reference_form()),
        (lambda: DirichletForm(space, matrix), reference_form(symmetrize=False)),
        (lambda: form_from_json(document), reference_form()),
        (lambda: is_markovian(matrix, space), lambda: reference_is_markovian(matrix, space)),
    ]
    for build, reference in pairs:
        assert dense_outcome(build) == dense_outcome(reference)


def test_row_bounds_are_the_diagonal_of_a_form_built_from_a_kernel():
    from ergodec import decompose
    from ergodec._validation import _row_bounds

    for form in (random_form(6, 200, 5, killing_prob=0.3), random_form(7, 150, 1, density=0.05)):
        assert bits(_row_bounds(form.matrix)) == bits(np.diagonal(form.matrix))
        fibers = [f.matrix for f in decompose(form).fibers]
        size = max(len(f) for f in fibers)
        fibers = np.stack([f for f in fibers if len(f) == size])
        assert bits(_row_bounds(fibers)) == bits(np.diagonal(fibers, axis1=-2, axis2=-1))
        assert bits(_row_bounds(1e305 * form.matrix)) == bits(np.diagonal(1e305 * form.matrix))
        assert form._bounds is None and DirichletForm.from_matrix(form.space, form.matrix)._bounds is None
    # Within the validation margins a coupling may pass its diagonal; the form keeps its row bounds.
    space = validate_space([("a", 1.0), ("b", 1.0), ("c", 1.0)])
    form = DirichletForm(space, np.array([[1e30, 0.0, 0.0], [0.0, 2.0, 1e9], [0.0, 1e9, 1e9]]))
    assert form._bounds.tolist() == [1e30, 1e9, 1e9]
    assert np.array_equal(form._rates, form._bounds)


# ------------------------------------------------------------ beurling-deny


def test_beurling_deny_fixtures(fx_edge, fx_kill, fx_twin):
    j, k = beurling_deny(fx_edge)
    assert j[0, 1] == 1.0 and np.allclose(k, 0.0)
    j, k = beurling_deny(fx_kill)
    assert j[0, 1] == 1.0 and np.allclose(k, [1.0, 0.0])
    j, k = beurling_deny(fx_twin)
    assert j[0, 1] == 1.0 and j[2, 3] == 2.0 and np.allclose(k, 0.0)


def test_form_rejects_non_markovian_matrix(fx_edge):
    with pytest.raises(NotMarkovianError):
        DirichletForm.from_matrix(fx_edge.space, np.array([[1.0, 0.5], [0.5, 1.0]]))


# ------------------------------------------------------------ generator


def test_generator_edge(fx_edge):
    assert np.allclose(generator(fx_edge), [[-1.0, 1.0], [1.0, -1.0]])


def test_generator_twin_blocks(fx_twin):
    expected = np.zeros((4, 4))
    expected[:2, :2] = 4.0 * np.array([[-1.0, 1.0], [1.0, -1.0]])
    expected[2:, 2:] = 8.0 * np.array([[-1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(generator(fx_twin), expected)


def test_generator_zero_form():
    space = validate_space([("a", 1.0), ("b", 2.0)])
    form = DirichletForm.from_matrix(space, np.zeros((2, 2)))
    assert np.allclose(form.generator, 0.0)


def test_generator_energy_pairing(fx_twin):
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = rng.uniform(-1, 1, 4)
        g = rng.uniform(-1, 1, 4)
        pairing = fx_twin.space.inner(-(fx_twin.generator @ f), g)
        assert pairing == pytest.approx(fx_twin.energy(f, g), abs=1e-13)


def test_generator_self_adjoint(fx_twin_kill):
    ml = np.diag(fx_twin_kill.space.mu) @ fx_twin_kill.generator
    assert np.abs(ml - ml.T).max() <= 1e-13


# ------------------------------------------------------------ semigroup


def test_semigroup_edge_half_life(fx_edge):
    assert np.allclose(
        semigroup(fx_edge, np.log(2.0)), [[0.625, 0.375], [0.375, 0.625]], atol=1e-14
    )


def test_semigroup_time_zero(fx_twin_kill):
    assert np.allclose(semigroup(fx_twin_kill, 0.0), np.eye(6), atol=1e-14)


def test_semigroup_killing_decay(fx_kill):
    # Strictly positive spectrum: entries decay at rate (3 - sqrt(5))/2.
    # Oracle values frozen from the series exponential.
    t20 = semigroup(fx_kill, 20.0)
    assert np.allclose(t20, series_expm(fx_kill.generator, 20.0), atol=1e-12)
    assert t20.max() < 1e-3
    assert semigroup(fx_kill, 50.0).max() < 1e-8


def test_semigroup_matches_series_oracle(fx_twin_kill, fx_grid):
    for form in (fx_twin_kill, fx_grid):
        for t in (0.1, 1.0, 2.5):
            assert np.allclose(
                semigroup(form, t), series_expm(form.generator, t), atol=1e-12
            )


def test_semigroup_submarkovian_and_symmetric(fx_twin_kill):
    for t in (0.1, 1.0, 10.0):
        tt = semigroup(fx_twin_kill, t)
        assert tt.min() >= -1e-12
        assert tt.sum(axis=1).max() <= 1.0 + 1e-12
        mt = np.diag(fx_twin_kill.space.mu) @ tt
        assert np.abs(mt - mt.T).max() <= 1e-12


def test_semigroup_law(fx_twin_kill):
    for s in (0.1, 1.0):
        for t in (0.1, 1.0):
            lhs = semigroup(fx_twin_kill, s) @ semigroup(fx_twin_kill, t)
            rhs = semigroup(fx_twin_kill, s + t)
            assert np.linalg.norm(lhs - rhs, "fro") <= 1e-10


def test_semigroup_rejects_negative_time(fx_edge):
    with pytest.raises(NegativeTimeError):
        semigroup(fx_edge, -0.5)


# ------------------------------------------------------------ resolvent


def test_resolvent_edge(fx_edge):
    assert np.allclose(resolvent(fx_edge, 1.0), np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0)


def test_resolvent_zero_form():
    space = validate_space([("a", 1.0), ("b", 1.0)])
    form = DirichletForm.from_matrix(space, np.zeros((2, 2)))
    assert np.allclose(resolvent(form, 2.0), np.eye(2) / 2.0)


def test_resolvent_twin_block(fx_twin):
    block = resolvent(fx_twin, 1.0)[:2, :2]
    assert np.allclose(block, np.array([[5.0, 4.0], [4.0, 5.0]]) / 9.0)


def test_resolvent_matches_solve_oracle(fx_twin_kill):
    for alpha in (0.5, 1.0, 10.0):
        assert np.allclose(
            resolvent(fx_twin_kill, alpha), solve_resolvent(fx_twin_kill, alpha), atol=1e-12
        )


def test_resolvent_contraction_bound(fx_twin_kill):
    mu = fx_twin_kill.space.mu
    s = np.sqrt(mu)
    for alpha in (0.5, 1.0, 10.0):
        g = resolvent(fx_twin_kill, alpha)
        norm = np.linalg.norm(g * s[:, None] / s[None, :], 2)
        assert norm <= 1.0 / alpha + 1e-12


def test_resolvent_equation(fx_twin_kill):
    ga = resolvent(fx_twin_kill, 0.7)
    gb = resolvent(fx_twin_kill, 3.0)
    assert np.linalg.norm(ga - gb - (3.0 - 0.7) * ga @ gb, "fro") <= 1e-10


def test_hille_yosida_identity(fx_twin_kill):
    rng = np.random.default_rng(1)
    for alpha in (0.5, 1.0, 10.0):
        g = resolvent(fx_twin_kill, alpha)
        for _ in range(10):
            u = rng.uniform(-1, 1, 6)
            v = rng.uniform(-1, 1, 6)
            lhs = fx_twin_kill.energy(g @ u, v) + alpha * fx_twin_kill.space.inner(g @ u, v)
            assert lhs == pytest.approx(fx_twin_kill.space.inner(u, v), abs=1e-10)


def test_resolvent_rejects_nonpositive_alpha(fx_edge):
    with pytest.raises(NonPositiveAlphaError):
        resolvent(fx_edge, 0.0)


# ------------------------------------------------------------ yosida


def test_yosida_spot_value(fx_edge):
    approx = yosida_form(fx_edge, 2.0)
    assert approx.energy(np.array([1.0, 0.0])) == pytest.approx(0.5, abs=1e-12)


def test_yosida_constant_in_kernel(fx_twin):
    approx = yosida_form(fx_twin, 3.0)
    assert approx.energy(np.ones(4)) == pytest.approx(0.0, abs=1e-14)


def test_yosida_large_beta_converges(fx_edge):
    f = np.array([1.0, 0.0])
    approx = yosida_form(fx_edge, 1e6)
    assert abs(fx_edge.energy(f) - approx.energy(f)) <= 2e-6


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
def test_yosida_monotone_below_energy(values):
    space = validate_space([("a", 1.0), ("b", 1.0)])
    form = DirichletForm.from_jump_kernel(
        space, np.array([[0.0, 1.0], [1.0, 0.0]]), killing=[1.0, 0.0]
    )
    f = np.array(values)
    energies = [yosida_form(form, b).energy(f) for b in (1.0, 10.0, 100.0)]
    for lo, hi in zip(energies, energies[1:]):
        assert lo <= hi + 1e-12
    assert energies[-1] <= form.energy(f) + 1e-12


def test_yosida_error_bound(fx_twin_kill):
    rng = np.random.default_rng(5)
    lam_max = fx_twin_kill.spectrum[-1]
    for beta in (1.0, 10.0, 100.0):
        approx = yosida_form(fx_twin_kill, beta)
        for _ in range(5):
            f = rng.uniform(-1, 1, 6)
            gap = fx_twin_kill.energy(f) - approx.energy(f)
            assert -1e-12 <= gap <= lam_max * fx_twin_kill.energy(f) / beta + 1e-12


def test_yosida_rejects_nonpositive_beta(fx_edge):
    with pytest.raises(NonPositiveBetaError):
        yosida_form(fx_edge, -1.0)


# ------------------------------------------------------------ carre du champ


def test_carre_edge(fx_edge):
    gamma = carre_du_champ(fx_edge)
    f = np.array([1.0, 0.0])
    assert np.allclose(gamma(f), [0.5, 0.5])
    assert gamma.integral(f) == pytest.approx(fx_edge.energy(f), abs=1e-14)


def test_carre_twin(fx_twin):
    gamma = carre_du_champ(fx_twin)
    assert np.allclose(gamma(np.array([1.0, 0.0, 0.0, 0.0])), [2.0, 2.0, 0.0, 0.0])


def test_carre_constant_killing_free(fx_grid):
    gamma = carre_du_champ(fx_grid)
    assert np.allclose(gamma(np.ones(6)), 0.0)


def test_carre_product_identity(fx_twin_kill):
    # E(f, gh) + E(fh, g) - E(fg, h) = 2 * integral h * gamma(f, g) dmu,
    # exact including the killing term.
    gamma = carre_du_champ(fx_twin_kill)
    rng = np.random.default_rng(2)
    for _ in range(20):
        f, g, h = (rng.uniform(-1, 1, 6) for _ in range(3))
        lhs = (
            fx_twin_kill.energy(f, g * h)
            + fx_twin_kill.energy(f * h, g)
            - fx_twin_kill.energy(f * g, h)
        )
        rhs = 2.0 * np.dot(h * gamma(f, g), fx_twin_kill.space.mu)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_carre_basis_oracle(fx_edge):
    # Evaluate the product identity with h ranging over the basis to pin
    # gamma pointwise, then compare with the closed form.
    gamma = carre_du_champ(fx_edge)
    rng = np.random.default_rng(4)
    f = rng.uniform(-1, 1, 2)
    g = rng.uniform(-1, 1, 2)
    for x in range(2):
        h = np.zeros(2)
        h[x] = 1.0
        lhs = fx_edge.energy(f, g * h) + fx_edge.energy(f * h, g) - fx_edge.energy(f * g, h)
        assert gamma(f, g)[x] == pytest.approx(
            lhs / (2.0 * fx_edge.space.mu[x]), abs=1e-12
        )


def test_carre_invariance(fx_twin):
    gamma = carre_du_champ(fx_twin)
    rng = np.random.default_rng(6)
    ind = np.array([1.0, 1.0, 0.0, 0.0])
    for _ in range(10):
        f, g = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        assert np.abs(ind * gamma(f, g) - gamma(ind * f, g)).max() <= 1e-12


# ------------------------------------------------------------ invariance


def test_is_invariant_twin_block(fx_twin):
    ok, residuals = is_invariant(fx_twin, ["a", "b"])
    assert ok
    assert worst(residuals).passed


def test_is_invariant_leakage(fx_edge):
    ok, residuals = is_invariant(fx_edge, ["a"])
    assert not ok
    # At t = ln 2 the leaked mass is exactly 0.375; at the tested times it
    # stays comfortably above tolerance.
    assert residual_values(residuals)["semigroup_leakage"] > 0.1
    assert residual_values(residuals)["energy_splitting"] == 1.0  # the jump across the boundary


def test_is_invariant_checks_the_leakage_of_an_invariant_block(monkeypatch, fx_twin):
    import ergodec.forms

    from ergodec import ConsistencyError

    assert is_invariant(fx_twin, ["a", "b"])[0]
    original = ergodec.forms.semigroup

    def leaky(form, t):
        out = original(form, t)
        out[0, 2] = 1e-6  # mass that crosses to the other block
        return out

    monkeypatch.setattr(ergodec.forms, "semigroup", leaky)
    with pytest.raises(ConsistencyError):
        is_invariant(fx_twin, ["a", "b"])


@pytest.mark.parametrize("name, subset", [
    ("fx_twin", ["a", "b"]), ("fx_twin", ["a", "c"]), ("fx_edge", ["a"]),
    ("fx_twin_kill", []), ("fx_twin_kill", ["a", "b", "c", "d"]), ("fx_kill", ["a"]),
])
def test_semigroup_commutation_equals_the_matrix_commutator(request, name, subset):
    # [T_t, 1_S] read from the mask has the bits of the product with diag(1_S).
    form = request.getfixturevalue(name)
    ind = np.diag([float(x in subset) for x in form.space.points])
    commutator = max(float(np.abs(t @ ind - ind @ t).max())
                     for t in (semigroup(form, 0.3), semigroup(form, 1.0)))
    assert residual_values(is_invariant(form, subset)[1])["semigroup_commutation"] == commutator


def test_trivial_sets_invariant(fx_twin_kill):
    assert is_invariant(fx_twin_kill, [])[0]
    assert is_invariant(fx_twin_kill, list(fx_twin_kill.space.points))[0]


def test_invariant_sets_fixtures(fx_twin, fx_grid):
    assert invariant_sets(fx_twin) == (("a", "b"), ("c", "d"))
    assert invariant_sets(fx_grid) == (
        ((0, 0), (1, 0), (2, 0)),
        ((0, 1), (1, 1), (2, 1)),
    )


def test_invariant_sets_complete_graph():
    space = validate_space([("x", 1.0), ("y", 1.0), ("z", 1.0)])
    jump = np.ones((3, 3)) - np.eye(3)
    form = DirichletForm.from_jump_kernel(space, jump)
    assert invariant_sets(form) == (("x", "y", "z"),)


@settings(max_examples=300, deadline=None)
@given(partition_forms())
def test_invariant_sets_equal_the_point_by_point_search(form):
    blocks = invariant_sets(form)
    assert blocks == reference_invariant_sets(form)
    assert invariant_sets(form) is blocks  # kept on the form


def test_irreducibility(fx_edge, fx_twin, fx_kill):
    assert is_irreducible(fx_edge)
    assert not is_irreducible(fx_twin)
    assert is_irreducible(fx_kill)  # killing does not disconnect


def test_criteria_agree_on_random_subsets():
    # All four invariance criteria give one verdict on every random subset.
    rng = np.random.default_rng(11)
    form = random_form(17, 60, 5, killing_prob=0.1)
    points = list(form.space.points)
    for _ in range(1000):
        mask = rng.uniform(size=60) < rng.uniform(0.1, 0.9)
        subset = [p for p, m in zip(points, mask) if m]
        is_invariant(form, subset)  # raises if the criteria disagree


def test_criteria_agree_exhaustively_n12():
    import itertools

    form = random_form(23, 12, 3, killing_prob=0.2)
    points = list(form.space.points)
    for bits in itertools.product((False, True), repeat=12):
        subset = [p for p, b in zip(points, bits) if b]
        is_invariant(form, subset)  # raises if the criteria disagree


# ------------------------------------------------------------ girsanov


def test_girsanov_identity_density(fx_edge):
    out = girsanov_transform(fx_edge, np.array([1.0, 1.0]))
    assert np.allclose(out.matrix, fx_edge.matrix)
    assert np.allclose(out.space.mu, fx_edge.space.mu)


def test_girsanov_edge_reweighting(fx_edge):
    out = girsanov_transform(fx_edge, np.array([2.0, 1.0]))
    assert np.allclose(out.space.mu, [4.0, 1.0])
    assert out.jump[0, 1] == pytest.approx(2.5)
    f = np.array([1.0, 0.0])
    gamma = carre_du_champ(fx_edge)
    direct = np.dot(gamma(f) * np.array([4.0, 1.0]), np.ones(2))
    assert out.energy(f) == pytest.approx(direct) == pytest.approx(2.5)


def test_girsanov_twin_density(fx_twin):
    phi = np.array([1.0, 1.0, 2.0, 2.0]) / np.sqrt(2.5)
    out = girsanov_transform(fx_twin, phi)
    assert out.jump[0, 1] == pytest.approx(1.0 / 2.5)
    assert out.jump[2, 3] == pytest.approx(2.0 * 4.0 / 2.5)


def test_girsanov_energy_identity_random(fx_grid):
    rng = np.random.default_rng(8)
    phi = rng.uniform(0.5, 2.0, size=6)
    out = girsanov_transform(fx_grid, phi)
    gamma = carre_du_champ(fx_grid)
    for _ in range(10):
        f = rng.uniform(-1, 1, 6)
        g = rng.uniform(-1, 1, 6)
        direct = float(np.dot(gamma(f, g), phi * phi * fx_grid.space.mu))
        assert out.energy(f, g) == pytest.approx(direct, abs=1e-12)
    assert invariant_sets(out) == invariant_sets(fx_grid)


def test_girsanov_near_float_max_is_warning_free():
    # Twice mu(p0) overflows, and so does phi(p0)^2 mu(p0) at phi(p0) = 1.2: the
    # density and a transform that fits raise no float error; one that does not is refused.
    space = validate_space([("p0", 1.7e308), ("p1", 1.0), ("p2", 1.0)])
    form = DirichletForm.from_jump_kernel(space, np.array([[0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]]))
    with np.errstate(all="raise"):
        assert np.array_equal(carre_du_champ(form)(np.array([1.0, 0.0, 1.0])), [0.0, 0.5, 0.5])
        assert girsanov_transform(form, np.array([0.5, 1.0, 2.0])).space.mu[0] == 0.25 * 1.7e308
        with pytest.raises(NotRepresentableError, match=r"phi\^2 mu = \(1\.200e\+00\)\^2 \* "
                                                        r"1\.700e\+308 overflows to inf"):
            girsanov_transform(form, np.array([1.2, 1.0, 1.0]))


@pytest.mark.parametrize("mu, phi, message", [
    ([1.0] * 5, [1e200, 1.0, 1.0, 1.0, 1.0], "at point 'p0', phi^2 mu = (1.000e+200)^2 * 1.000e+00 overflows to inf"),
    ([1.0] * 5, [1.0, 1e-200, 1.0, 1.0, 1.0], "at point 'p1', phi^2 mu = (1.000e-200)^2 * 1.000e+00 underflows to 0"),
    ([1e-300, 1.0], [1e-20, 1.0], "at point 'p0', phi^2 mu = (1.000e-20)^2 * 1.000e-300 underflows to 0"),
    ([1e-100, 1.0], [1.0, 1e155], "at point 'p1', phi^2 mu = (1.000e+155)^2 * 1.000e+00 overflows to inf"),
    ([6e307, 6e307], [1.3, 1.3], "its total mass overflows to inf"),
])
def test_girsanov_names_the_reweighted_measure_that_leaves_the_floats(mu, phi, message):
    # The input weights are positive and finite; phi^2 mu is not, or its total
    # overflows, and the refusal names it, not an input weight.
    space = validate_space((f"p{i}", w) for i, w in enumerate(mu))
    jump = np.ones((len(mu), len(mu)))
    form = DirichletForm.from_jump_kernel(space, jump)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with pytest.raises(NotRepresentableError) as info:
            girsanov_transform(form, np.array(phi))
    assert str(info.value) == f"the reweighted measure phi^2 mu does not fit in floats: {message}"


def test_girsanov_constant_density_rescales(fx_twin):
    out = girsanov_transform(fx_twin, np.full(4, 3.0))
    assert np.allclose(out.space.mu, 9.0 * fx_twin.space.mu)
    assert invariant_sets(out) == invariant_sets(fx_twin)


def test_girsanov_rejects_killing(fx_kill):
    with pytest.raises(HasKillingError):
        girsanov_transform(fx_kill, np.array([1.0, 1.0]))


def test_girsanov_rejects_nonpositive_phi(fx_edge):
    with pytest.raises(NonPositivePhiError):
        girsanov_transform(fx_edge, np.array([1.0, 0.0]))


# ------------------------------------------------------------ classification


def test_classify_twin(fx_twin):
    cls = classify(fx_twin)
    assert cls.conservative and cls.recurrent and not cls.transient
    assert cls.conservative_part == ("a", "b", "c", "d")
    assert cls.transient_part == ()


def test_classify_kill(fx_kill):
    cls = classify(fx_kill)
    assert cls.transient and not cls.conservative and not cls.recurrent
    assert cls.transient_part == ("a", "b")
    t1 = semigroup(fx_kill, 1.0)
    assert np.abs(t1 @ np.ones(2)).max() < 1.0


def test_classify_mixed(fx_twin_kill):
    cls = classify(fx_twin_kill)
    assert cls.conservative_part == ("a", "b", "c", "d")
    assert cls.transient_part == ("e", "f")
    assert not cls.recurrent and not cls.transient and not cls.conservative
    flags = {z: (c.recurrent, c.transient) for z, c in cls.per_component.items()}
    assert flags == {"z0": (True, False), "z1": (True, False), "z2": (False, True)}


def test_classification_disagreement_is_typed():
    # Killing 1e-11 at the end of a path gets one verdict, transient, from
    # every function.  A block eigendecomposition whose T_1 mass or energy
    # floor the killing cannot explain raises: T_1 1 halved, T_1 1 above 1,
    # and a floor below 0.
    from ergodec import ConsistencyError, ErgodecError, ergodic_measures, validate_space

    space = validate_space([(0, 1.0), (1, 1.0), (2, 1.0)])
    jump = np.zeros((3, 3))
    jump[0, 1] = jump[1, 0] = jump[1, 2] = jump[2, 1] = 1.0
    form = DirichletForm.from_jump_kernel(space, jump, [1e-11, 0.0, 0.0])
    cls = classify(form)
    assert cls.transient and not cls.conservative and not form.killing_free
    assert ergodic_measures(form) == ()
    ((w, v, sqrt_mu),) = form._block_eigs  # one block: a stack of one
    for wrong in ((w + np.log(2.0), v, sqrt_mu), (w, v * np.sqrt(1.0 + 1e-9), sqrt_mu),
                  (w - 1e-3, v, sqrt_mu)):
        perturbed = DirichletForm.from_jump_kernel(space, jump, [1e-11, 0.0, 0.0])
        vars(perturbed)["_block_eigs"] = (wrong,)
        with pytest.raises(ConsistencyError) as info:
            classify(perturbed)
        assert isinstance(info.value, ErgodecError)
        assert info.value.defects["killing"] == pytest.approx(1e-11)
        assert set(info.value.defects) == {"mass_loss", "energy_floor", "killing"}


@pytest.mark.parametrize("entries", [
    [[-0.0, -0.0], [-0.0, -0.0]],
    [[0.0, 0.0], [0.0, 0.0]],
    [[0.0, -0.0], [-0.0, 0.0]],
    [[1.0, np.nan], [np.nan, 2.0]],
    [[1.0, -np.nan], [-np.nan, 2.0]],
    [[np.inf, -1.0], [-1.0, 3.0]],
    [[-np.inf, 1.0], [1.0, 3.0]],
    [[np.nan, np.inf], [-np.inf, 0.0]],
    [[-3.0, 2.5], [2.5, 1.0]],
])
def test_matrix_scale_is_one_plus_abs_max_bit_for_bit(entries):
    from ergodec.forms import _matrix_scale

    matrix = np.array(entries)
    assert bits(np.float64(_matrix_scale(matrix))) == bits(np.float64(1.0 + float(np.abs(matrix).max())))
