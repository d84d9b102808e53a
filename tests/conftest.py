"""Shared fixtures and independent oracles.

The oracles deliberately avoid the library's eigendecomposition code paths:
the matrix exponential is a scaling-and-squaring truncated Taylor series,
the resolvent oracle is a direct linear solve, invariant subsets are found
by exhaustive search over all subsets evaluating the energy-splitting
criterion directly and by the point-by-point graph search the library
replaced, Markovianity is probed by randomized contractions and
by a brute-force contraction-witness search, and block-diagonal matrices
are summed one embedded block at a time, and random instances are drawn
by the pair-by-pair loop the vectorised generator replays.  Forms of jump
kernels are also built through the validating constructor, and the
residuals of a decomposition are recomputed with out-of-place arithmetic.
"""

import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from ergodec import DirichletForm, FiniteMeasureSpace, validate_space


# ---------------------------------------------------------------- oracles


def series_expm(matrix, t):
    """e^{t M} by scaling-and-squaring of a truncated Taylor series."""
    matrix = np.asarray(matrix, dtype=float) * t
    norm = np.abs(matrix).sum(axis=1).max()
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-16)))) + 1)
    scaled = matrix / (2.0 ** squarings)
    out = np.eye(matrix.shape[0])
    term = np.eye(matrix.shape[0])
    for k in range(1, 30):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def solve_resolvent(form, alpha):
    """(alpha - L)^{-1} by direct solve, independent of the spectral path."""
    n = form.n
    return np.linalg.solve(alpha * np.eye(n) - form.generator, np.eye(n))


def energy_split_defect(matrix, mask):
    """Defect of E(f,g) = E(1_A f, 1_A g) + E(1_{A^c} f, 1_{A^c} g) on the basis."""
    d = np.diag(mask.astype(float))
    dc = np.eye(len(mask)) - d
    return np.abs(matrix - d @ matrix @ d - dc @ matrix @ dc).max()


def brute_force_invariant_partition(form, tol=1e-10):
    """Minimal invariant partition from exhaustive subset search.

    Enumerates all subsets, keeps those with vanishing energy-splitting
    defect, and intersects the invariant sets containing each point to get
    the atoms of the invariant algebra.
    """
    n = form.n
    scale = 1.0 + np.abs(form.matrix).max()
    invariant_masks = []
    for bits in itertools.product((False, True), repeat=n):
        mask = np.array(bits)
        if energy_split_defect(form.matrix, mask) <= tol * scale:
            invariant_masks.append(mask)
    blocks = []
    seen = np.zeros(n, dtype=bool)
    for x in range(n):
        if seen[x]:
            continue
        atom = np.ones(n, dtype=bool)
        for mask in invariant_masks:
            if mask[x]:
                atom &= mask
        seen |= atom
        blocks.append(tuple(form.space.points[i] for i in np.flatnonzero(atom)))
    return tuple(blocks)


def reference_invariant_sets(form):
    """``invariant_sets`` by the depth-first loop over single points that it replaced."""
    from ergodec.forms import COMPONENT_THRESHOLD

    q = form.matrix
    n = form.n
    off_diagonal = q.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]
    jmax = -float(off_diagonal.min(initial=0.0))
    adjacency = q < -COMPONENT_THRESHOLD * jmax if jmax > 0 else np.zeros((n, n), dtype=bool)
    seen = np.zeros(n, dtype=bool)
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in np.flatnonzero(adjacency[x]):
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        blocks.append(tuple(form.space.points[i] for i in sorted(comp)))
    return tuple(blocks)


def random_contraction_search(matrix, rng, trials=200):
    """Largest energy increase found under random unit contractions."""
    n = matrix.shape[0]
    worst = 0.0
    for _ in range(trials):
        f = rng.uniform(-2.0, 2.0, size=n)
        g = np.clip(f, 0.0, 1.0)
        worst = max(worst, float(g @ matrix @ g - f @ matrix @ f))
    return worst


def contraction_gain(matrix, f):
    """Q(f+ ^ 1) - Q(f), evaluated densely."""
    g = np.clip(f, 0.0, 1.0)
    return float(g @ matrix @ g - f @ matrix @ f)


def brute_force_witness(matrix, tol):
    """Best contraction witness by scoring every candidate densely, O(n^4).

    The candidates are e_x - (q_xy/q_yy) e_y for each coupling q_xy > tol with
    q_yy > tol, in row-major order, then 1 + s e_x for each row sum below
    -tol.  Returns ``(witness, gain)`` for the first candidate of largest
    dense gain, or ``(None, 0.0)`` when no candidate has a positive gain.
    """
    q = np.asarray(matrix, dtype=float)
    n = q.shape[0]
    row_sums = q.sum(axis=1)
    candidates = []
    for x in range(n):
        for y in range(n):
            if x != y and q[x, y] > tol and q[y, y] > tol:
                f = np.zeros(n)
                f[x] = 1.0
                f[y] = -q[x, y] / q[y, y]
                candidates.append(f)
    for x in range(n):
        if row_sums[x] < -tol:
            f = np.ones(n)
            f[x] += -row_sums[x] / q[x, x] if q[x, x] > tol else 1.0
            candidates.append(f)
    if candidates:
        best = max(candidates, key=lambda f: contraction_gain(q, f))
        gain = contraction_gain(q, best)
        if gain > 0:
            return best, gain
    return None, 0.0


def naive_block_sum(n, index_groups, blocks):
    """Sum of the blocks, each embedded in a fresh n x n zero matrix."""
    out = np.zeros((n, n))
    for idx, block in zip(index_groups, blocks):
        embedded = np.zeros((n, n))
        embedded[np.ix_(idx, idx)] = block
        out += embedded
    return out


def spy(monkeypatch, module, name, record):
    """Wrap ``module.name`` so that each call appends ``record(*args)`` to the returned list."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(record(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def spy_actions(monkeypatch):
    """Record ``(shape of x, t, transpose)`` of every semigroup action ``forms`` and ``ergodic``
    apply: (s,) for one block of size s, (k, s) for a stack of k."""
    import ergodec.ergodic
    import ergodec.forms
    from ergodec._linalg import semigroup_action

    calls = []

    def wrapper(eig, t, x, *, transpose=False):
        calls.append((np.shape(x), t, transpose))
        return semigroup_action(eig, t, x, transpose=transpose)

    for module in (ergodec.ergodic, ergodec.forms):
        monkeypatch.setattr(module, "semigroup_action", wrapper)
    return calls


def unflushed_semigroup_from_eig(eig, t):
    """e^{tL} from the eigendecomposition, or a stack of them, with every weight exp(-t w) kept,
    w clipped at 0."""
    w, v, sqrt_mu = eig
    core = (v * np.exp(-t * np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(v, -1, -2)
    core /= sqrt_mu[..., :, None]
    core *= sqrt_mu[..., None, :]
    return core


def validated_jump_kernel_form(space, jump, killing=None):
    """``DirichletForm.from_jump_kernel`` through the validating constructor."""
    jump = np.asarray(jump, dtype=float)
    jump = 0.5 * (jump + jump.T)
    np.fill_diagonal(jump, 0.0)
    killing = np.zeros(space.n) if killing is None else np.asarray(killing, dtype=float)
    return DirichletForm(space, np.diag(jump.sum(axis=1) + killing) - jump)


def reference_is_markovian(matrix, space):
    """``is_markovian`` with every check on n x n temporaries: the symmetrization, ``np.abs``,
    the coupling masks and gains, and the jump kernel of the payload."""
    from ergodec._tolerance import MARKOV_RTOL, PSD_RTOL
    from ergodec._validation import _matrix_scale
    from ergodec.errors import NonFiniteError, NotPSDError

    q = np.asarray(matrix, dtype=float)
    if q.shape != (space.n, space.n):
        raise ValueError("matrix shape does not match the space")
    finite = np.isfinite(q)
    if not finite.all():
        x, y = np.argwhere(~finite)[0]
        raise NonFiniteError(f"matrix entry ({x}, {y}) is not finite")
    q = 0.5 * (q + q.T)
    diag = np.diag(q)
    floor = float((2.0 * diag - np.abs(q).sum(axis=1)).min())
    if floor < -0.5 * PSD_RTOL * max(1.0, float(diag.max())):
        evals = np.linalg.eigvalsh(q)
        norm = float(np.abs(evals).max())
        if evals[0] < -PSD_RTOL * max(1.0, norm):
            raise NotPSDError(float(evals[0]))
    if (diag < 0).any():
        x = int(np.argmax(diag < 0))
        raise NotPSDError(diag[x], f"matrix is not positive semidefinite: A(x, x) = "
                                   f"{diag[x]:.3e} < 0 at point {space.points[x]!r}")
    tol = MARKOV_RTOL * _matrix_scale(q)
    n = space.n
    off_diagonal = ~np.eye(n, dtype=bool)
    row_sums = q.sum(axis=1)
    usable = diag > tol
    safe_diag = np.where(usable, diag, 1.0)
    pairs = off_diagonal & (q > tol) & usable
    rows = row_sums < -tol
    pair_gain = np.where(pairs, q * q / safe_diag, -np.inf)
    row_gain = np.where(usable, row_sums * row_sums / safe_diag, -2.0 * row_sums - diag)
    row_gain = np.where(rows, row_gain, -np.inf)
    best, best_gain = None, -np.inf
    if pairs.any():
        x, y = divmod(int(np.argmax(pair_gain)), n)
        best, best_gain = np.zeros(n), pair_gain[x, y]
        best[x] = 1.0
        best[y] = -q[x, y] / q[y, y]
    if rows.any():
        x = int(np.argmax(row_gain))
        if row_gain[x] > best_gain:
            best = np.ones(n)
            best[x] += -row_sums[x] / q[x, x] if q[x, x] > tol else 1.0
    if best is not None:
        g = np.clip(best, 0.0, 1.0)
        if float(g @ q @ g - best @ q @ best) > 0:
            return False, best
    jump = np.negative(q)
    np.maximum(jump, 0.0, out=jump)
    np.fill_diagonal(jump, 0.0)
    return True, (jump, np.maximum(q.sum(axis=-1), 0.0))


def residual_values(residuals, family=None) -> dict:
    """{name: value} of residuals, or with ``family`` {parameter: value} of the names
    ``(family, parameter)``."""
    if family is None:
        return {r.name: r.value for r in residuals}
    return {r.name[1]: r.value for r in residuals if isinstance(r.name, tuple) and r.name[0] == family}


def reference_dense_form(space, matrix, *, symmetrize=True):
    """The (matrix, killing) of ``DirichletForm.from_matrix``, or of the constructor when not
    ``symmetrize``, validated out of place: a copy of the input, the asymmetry ``a - a.T``,
    :func:`reference_is_markovian`, the rebuilt matrix and a last symmetrization.  Numpy's
    floating-point warnings are silenced; they change no outcome."""
    from ergodec._tolerance import SYMMETRY_RTOL
    from ergodec._validation import _check_range, _matrix_scale
    from ergodec.errors import NotMarkovianError

    with np.errstate(all="ignore"):
        a = np.asarray(matrix, dtype=float)
        if symmetrize:
            a = 0.5 * (a + a.T)
        a = np.array(a, dtype=float)
        if a.shape != (space.n, space.n):
            raise ValueError("matrix shape does not match the space")
        scale = _matrix_scale(a)
        if np.abs(a - a.T).max() > SYMMETRY_RTOL * scale:
            raise ValueError("energy matrix must be symmetric")
        # A finite input whose symmetrization overflows is refused as that symmetrization.
        ok, payload = reference_is_markovian(0.5 * (a + a.T) if np.isfinite(a).all() else a, space)
        if not ok:
            raise NotMarkovianError(witness=payload)
        jump, killing = payload
        rebuilt = np.diag(jump.sum(axis=1) + killing) - jump
        if np.abs(rebuilt - a).max() > SYMMETRY_RTOL * scale:
            raise NotMarkovianError(message="jump/killing data does not rebuild the matrix")
        a = 0.5 * (a + a.T)
        _check_range(a, space)
    return a, killing


def reference_decompose_residuals(dec):
    """The residuals of ``decompose``, each n x n difference a new array."""
    form, layout = dec.form, dec.quotient._layout.blocks
    generator = -form.matrix / form.space.mu[:, None]
    generator_defects = [
        float(np.abs(-fiber.matrix / fiber.space.mu[:, None] - generator[np.ix_(idx, idx)]).max())
        for idx, fiber in zip(layout, dec.fibers)
    ]
    weighted = [w * f.matrix for w, f in zip(dec.quotient.index.nu, dec.fibers)]
    reassembled = dec.normalization_scale * naive_block_sum(form.n, layout, weighted)
    return {
        "form_reassembly": float(np.abs(reassembled - form.matrix).max()),
        "fiber_generator": float(np.max(generator_defects, initial=0.0)),
    }


def reference_verify_residuals(dec, times, alphas):
    """(form, semigroup, resolvent) defects of ``verify_decomposition``, out of place."""
    from ergodec.forms import resolvent, semigroup

    form, layout, n = dec.form, dec.quotient._layout.blocks, dec.form.n
    weighted = [w * f.matrix for w, f in zip(dec.quotient.index.nu, dec.fibers)]
    reassembled = dec.normalization_scale * naive_block_sum(n, layout, weighted)
    scale = 1.0 + float(np.abs(form.matrix).max())
    form_defect = float(np.abs(reassembled - form.matrix).max()) / scale

    def defect(op, form_op):
        return float(np.linalg.norm(form_op - naive_block_sum(n, layout, op), "fro"))

    semi = {t: defect([semigroup(f, t) for f in dec.fibers], semigroup(form, t)) for t in times}
    res = {a: defect([resolvent(f, a) for f in dec.fibers], resolvent(form, a)) for a in alphas}
    return form_defect, semi, res


def reference_random_form(seed, n, components, killing_prob=0.0, density=0.5, *, probability=False):
    """``random_form`` drawn with one scalar coin per candidate pair."""
    rng = np.random.default_rng(seed) if isinstance(seed, (int, np.integer)) else seed
    sizes = np.ones(components, dtype=int)
    sizes += rng.multinomial(n - components, np.full(components, 1.0 / components))

    jump = np.zeros((n, n))
    offset = 0
    for size in sizes:
        for i in range(1, size):
            j = int(rng.integers(0, i))
            w = rng.uniform(0.1, 2.0)
            jump[offset + i, offset + j] = jump[offset + j, offset + i] = w
        for i in range(size):
            for j in range(i + 1, size):
                if jump[offset + i, offset + j] == 0.0 and rng.uniform() < density:
                    w = rng.uniform(0.1, 2.0)
                    jump[offset + i, offset + j] = jump[offset + j, offset + i] = w
        offset += size

    killing = np.where(rng.uniform(size=n) < killing_prob, rng.uniform(0.1, 2.0, size=n), 0.0)
    mu = rng.uniform(0.1, 2.0, size=n)
    if probability:
        mu = mu / mu.sum()

    perm = rng.permutation(n)
    jump = jump[np.ix_(perm, perm)]
    killing = killing[perm]

    space = FiniteMeasureSpace(tuple(f"p{i}" for i in range(n)), mu)
    return DirichletForm.from_jump_kernel(space, jump, killing)


# ---------------------------------------------------------------- strategies


@st.composite
def partition_forms(draw):
    """Forms on up to 12 points with weights on both sides of ``COMPONENT_THRESHOLD``."""
    n = draw(st.integers(1, 12))
    scale = draw(st.sampled_from([1.0, 1e-200, 1e200]))
    relative = st.sampled_from([0.0, 0.0, 0.0, -0.0, 1.0, 0.3, 1.001e-12, 1e-12, 0.999e-12, 1e-14])
    upper = draw(st.lists(relative, min_size=n * n, max_size=n * n))
    jump = np.triu(np.array(upper).reshape(n, n), 1)
    jump = (jump + jump.T) * scale
    perm = draw(st.permutations(range(n)))
    jump = jump[np.ix_(perm, perm)]
    killing = draw(st.lists(st.sampled_from([0.0, scale]), min_size=n, max_size=n))
    space = validate_space([(f"p{i}", 1.0) for i in range(n)])
    with np.errstate(all="ignore"):
        form = DirichletForm.from_jump_kernel(space, jump, killing)
        if draw(st.booleans()):
            form = DirichletForm(space, np.array(form.matrix))  # the validating constructor
    return form


# ---------------------------------------------------------------- fixtures


@pytest.fixture
def fx_edge():
    """Two points of mass one joined by a unit edge."""
    space = validate_space([("a", 1.0), ("b", 1.0)])
    return DirichletForm.from_jump_kernel(space, np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.fixture
def fx_twin():
    """Two disjoint edges on a uniform probability space."""
    space = validate_space([("a", 0.25), ("b", 0.25), ("c", 0.25), ("d", 0.25)])
    jump = np.zeros((4, 4))
    jump[0, 1] = jump[1, 0] = 1.0
    jump[2, 3] = jump[3, 2] = 2.0
    return DirichletForm.from_jump_kernel(space, jump)


@pytest.fixture
def fx_kill():
    """A unit edge with killing weight one at the first point."""
    space = validate_space([("a", 1.0), ("b", 1.0)])
    jump = np.array([[0.0, 1.0], [1.0, 0.0]])
    return DirichletForm.from_jump_kernel(space, jump, killing=[1.0, 0.0])


@pytest.fixture
def fx_grid():
    """3 x 2 grid with unit edges along the first coordinate only."""
    points = [(i, j) for j in (0, 1) for i in (0, 1, 2)]
    space = validate_space([(p, 1.0 / 6.0) for p in points])
    jump = np.zeros((6, 6))
    for j in (0, 1):
        for i in (0, 1):
            x = space.index_of((i, j))
            y = space.index_of((i + 1, j))
            jump[x, y] = jump[y, x] = 1.0
    return DirichletForm.from_jump_kernel(space, jump)


@pytest.fixture
def fx_twin_kill():
    """Disjoint union of the twin-edge fixture and the killed edge."""
    space = validate_space(
        [("a", 0.25), ("b", 0.25), ("c", 0.25), ("d", 0.25), ("e", 1.0), ("f", 1.0)]
    )
    jump = np.zeros((6, 6))
    jump[0, 1] = jump[1, 0] = 1.0
    jump[2, 3] = jump[3, 2] = 2.0
    jump[4, 5] = jump[5, 4] = 1.0
    killing = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    return DirichletForm.from_jump_kernel(space, jump, killing)
