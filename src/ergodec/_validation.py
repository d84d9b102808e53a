"""Validation of dense energy matrices, in row panels.

A matrix is checked as a Dirichlet energy matrix, symmetric, positive
semidefinite and sub-Markovian, by :func:`is_markovian` and by the
constructor of :class:`~ergodec.forms.DirichletForm`.  Each holds one copy
of its input, its symmetrization, and reads it in row panels of at most
``_linalg._ROW_CHUNK`` entries; the ``eigvalsh`` fallback of the PSD check
is the only other n x n array.  A parsed array is symmetrized in place
(:func:`_symmetrize`), so a dense document costs one n x n array.  An
overflow decides each check as it did without ``np.errstate``, and raises
no warning.
"""

from __future__ import annotations

import numpy as np

from ._linalg import _row_panels
from ._tolerance import MARKOV_RTOL, PSD_RTOL, SYMMETRY_RTOL, TAU
from .errors import NonFiniteError, NotMarkovianError, NotPSDError, NotRepresentableError
from .spaces import FiniteMeasureSpace


def _matrix_scale(matrix) -> float:
    """1 + max |A|, without an n x n ``np.abs`` temporary.

    The outer ``abs`` clears the sign of a NaN, as ``np.abs`` does, so the
    result is bitwise ``1 + np.abs(A).max()``.
    """
    return 1.0 + abs(max(float(matrix.max()), -float(matrix.min())))


def _row_bounds(matrix: np.ndarray) -> np.ndarray:
    """max(A(x, x), sum_{y != x} |A(x, y)|) per row of a matrix or of a stack of them.

    A row whose off-diagonal sum passes A(x, x) by at most ``TAU`` relative,
    the roundoff of the sums, keeps A(x, x), so on a diagonally dominant
    matrix, every Markovian one, this is the diagonal bit for bit: a form
    built from a kernel, its fibers A_B / m_B, and the same matrices scaled.
    Validation lets through matrices that are dominant only within its
    margins, whose rows may be far larger.  Rows are read in panels.
    """
    s = matrix.shape[-1]
    off = np.empty(matrix.shape[:-1])
    for rows in _row_panels(s):
        panel = np.abs(matrix[..., rows, :])
        own = np.arange(rows.stop - rows.start)
        panel[..., own, rows.start + own] = 0.0
        off[..., rows] = panel.sum(axis=-1)
        del panel
    diag = np.diagonal(matrix, axis1=-2, axis2=-1)
    return np.where(off > diag * (1.0 + TAU), off, diag)


def _check_range(matrix, space: FiniteMeasureSpace, bounds=None) -> None:
    """Refuse a form whose generator does not fit in floats, in O(n) given its row bounds.

    With b(x) = max(A(x, x), sum_{y != x} |A(x, y)|) (:func:`_row_bounds`,
    the diagonal unless given), max_x b(x) / mu(x) bounds every entry of L
    and of D^{-1/2} A D^{-1/2}, and twice it every eigenvalue.  The fibers
    A_B / m_B of :func:`~ergodec.ergodic.decompose` have m_B >= mu(x) on
    their block, so they stay within the same bound.  The bound and max_x
    b(x) must stay below float max / (4 n), so that sums of n such entries
    fit too.
    """
    diag = np.diagonal(matrix)
    bounds = diag if bounds is None else bounds
    with np.errstate(over="ignore"):
        rates = bounds / space.mu
    limit = np.finfo(float).max / (4 * space.n)
    if not (rates.max() <= limit and bounds.max() <= limit):
        x = int(np.argmax(np.maximum(rates, bounds)))
        entry = "A(x, x)" if bounds[x] == diag[x] else "sum_{y != x} |A(x, y)|"
        raise NotRepresentableError(
            f"the generator does not fit in floats: at point {space.points[x]!r}, "
            f"{entry} = {bounds[x]:.3e} and {entry} / mu(x) = {rates[x]:.3e}, above {limit:.3e}"
        )


def _jump(q: np.ndarray, rows=slice(None)) -> np.ndarray:
    """The jump kernel of a symmetric Markovian matrix, or its rows ``rows``: -q off the diagonal,
    floored at 0."""
    jump = np.negative(q[rows])
    np.maximum(jump, 0.0, out=jump)
    np.fill_diagonal(jump[:, rows], 0.0)
    return jump


def _killing(q: np.ndarray) -> np.ndarray:
    """The killing vector of a symmetric Markovian matrix, or of each of a stack: its row sums,
    floored at 0."""
    return np.maximum(q.sum(axis=-1), 0.0)


def _contraction_energy_drop(matrix, f):
    """Energy gained by the unit contraction: Q(f+ ^ 1) - Q(f)."""
    g = np.clip(f, 0.0, 1.0)
    return float(g @ matrix @ g - f @ matrix @ f)


def is_markovian(matrix, space: FiniteMeasureSpace):
    """Test the sub-Markov contraction property of a symmetric PSD matrix.

    A symmetric PSD matrix Q is Markovian exactly when its off-diagonal
    entries are nonpositive and its row sums are nonnegative, so the search
    for a contraction witness only needs the violated entries, each with a
    closed-form witness and energy gain Q(f+ ^ 1) - Q(f), where tol is
    ``MARKOV_RTOL`` times 1 + max |Q|:

    * a coupling q_xy > tol with q_yy > tol: f = e_x - (q_xy/q_yy) e_y,
      contracted to e_x, gains q_xy^2 / q_yy;
    * a row sum r_x < -tol: f = 1 + s e_x, contracted to 1, with
      s = -r_x/q_xx gaining r_x^2 / q_xx, or s = 1 gaining -2 r_x - q_xx
      when q_xx <= tol.

    The witness of largest gain is returned.  Ties go to the first coupling
    in row-major order, and a row sum wins only with a strictly larger gain
    than the best coupling.  The verdict rests on the dense gain of that
    witness on the input matrix: if it is not positive, the matrix is
    accepted.  The cost is O(n^2), plus one ``eigvalsh`` for the PSD check
    when the Gershgorin bound cannot certify it.  A matrix built from a jump
    kernel and a killing vector is diagonally dominant, so it needs none.
    The input is copied once, into its symmetrization, and never written;
    the checks read that copy in row panels, and the other n x n arrays are
    the copy ``eigvalsh`` makes and the jump kernel returned.

    Parameters
    ----------
    matrix : (n, n) array
        Symmetric (symmetrized defensively) positive semidefinite matrix.
    space : FiniteMeasureSpace
        The underlying space; fixes n.

    Returns
    -------
    (True, (jump, killing))
        When the unit contraction f -> (f v 0) ^ 1 never increases energy.
        ``jump`` is the symmetric nonnegative off-diagonal kernel, ``killing``
        the nonnegative row-sum vector; together they rebuild the matrix.
    (False, witness)
        Otherwise; ``witness`` is a vector f with Q(f+ ^ 1) > Q(f).

    Raises
    ------
    NonFiniteError
        If the matrix has a NaN or infinite entry.
    NotPSDError
        If the symmetrized matrix has an eigenvalue below -1e-12 * norm, or
        a diagonal entry A(x, x) = E(1_x) below 0, however small.
    """
    q = np.asarray(matrix, dtype=float)
    if q.shape != (space.n, space.n):
        raise ValueError("matrix shape does not match the space")
    _check_finite(q)
    q = _symmetrized(q)
    ok, payload = _sub_markov(q, space)
    return (True, (_jump(q), payload)) if ok else (False, payload)


def _check_finite(q: np.ndarray) -> None:
    """Refuse a matrix with a NaN or infinite entry, and name the first in row-major order.

    NaN propagates through ``min`` and ``max``, so a finite matrix is passed
    without a temporary; the entry is searched for in row panels.
    """
    if np.isfinite(q.min()) and np.isfinite(q.max()):
        return
    for rows in _row_panels(len(q)):
        bad = ~np.isfinite(q[rows])
        if bad.any():
            x, y = np.argwhere(bad)[0]
            raise NonFiniteError(f"matrix entry ({rows.start + x}, {y}) is not finite")


def _mirrored_panels(a: np.ndarray):
    """Row panels of the upper triangle of a square array, each with its mirror image:
    the views ``a[rows, lo:]`` and ``a[lo:, rows].T``, written or read one panel at a time."""
    for rows in _row_panels(len(a)):
        yield a[rows, rows.start:], a[rows.start:, rows].T


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """Overwrite a square array with 0.5 (A + A^T) in place and return it.

    Each panel of the upper triangle is summed with its mirror image, as the
    out-of-place sum is, so the bits are those of :func:`_symmetrized`; one
    panel is the only temporary.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for upper, lower in _mirrored_panels(a):
            half = np.add(upper, lower)
            half *= 0.5
            upper[...] = half
            lower[...] = half
            del half  # before the next panel's sum
    return a


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """0.5 (A + A^T) as a new array, the one copy of ``a``; a sum past float max is inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.add(a, a.T)
        half *= 0.5
    return half


def _asymmetry(a: np.ndarray) -> float:
    """max |A - A^T| of a finite square array, read in panels of its upper triangle; it may be inf."""
    largest = 0.0
    with np.errstate(over="ignore"):
        for upper, lower in _mirrored_panels(a):
            diff = np.subtract(upper, lower)
            largest = max(largest, float(np.abs(diff, out=diff).max()))
            del diff
    return largest


def _sub_markov(q: np.ndarray, space: FiniteMeasureSpace):
    """The checks of :func:`is_markovian` on its symmetrized matrix q, in one pass of row panels.

    q is C-contiguous and its input was finite, so each row sum and each gain
    has the bits it has on the whole matrix, and the coupling of largest gain
    is the first maximum in row-major order.  The pass takes the row sums,
    the Gershgorin sums and that coupling; the errors are raised in the
    order of the docstring of :func:`is_markovian`.  An overflow decides a
    check as it does without ``np.errstate``.  Returns ``(False, witness)``
    or ``(True, killing)``.
    """
    n = space.n
    diag = np.diag(q)
    tol = MARKOV_RTOL * _matrix_scale(q)
    usable = diag > tol
    safe_diag = np.where(usable, diag, 1.0)
    row_sums, abs_sums = np.empty(n), np.empty(n)
    pair, pair_gain = None, -np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_panels(n):
            panel = q[rows]
            row_sums[rows] = panel.sum(axis=1)
            gain = np.abs(panel)
            abs_sums[rows] = gain.sum(axis=1)
            # Positive coupling: contract e_x - t e_y back to e_x.  A gain past
            # float max ranks first, as inf.
            np.multiply(panel, panel, out=gain)
            gain /= safe_diag
            pairs = panel > tol
            pairs &= usable
            np.fill_diagonal(pairs[:, rows], False)
            gain[~pairs] = -np.inf
            k = int(np.argmax(gain))
            if gain.flat[k] > pair_gain:  # a later panel wins only with a larger gain
                (x, y), pair_gain = divmod(k, n), gain.flat[k]
                pair = (rows.start + x, y)
            del gain, pairs

        # Gershgorin: every eigenvalue is at least min_x (2 q_xx - sum_y |q_xy|), and
        # the spectral norm is at least max q_xx, so a floor above half the PSD
        # threshold certifies the check below without an eigendecomposition.
        floor = float((2.0 * diag - abs_sums).min())
        if floor < -0.5 * PSD_RTOL * max(1.0, float(diag.max())):
            evals = np.linalg.eigvalsh(q)
            norm = float(np.abs(evals).max())
            if evals[0] < -PSD_RTOL * max(1.0, norm):
                raise NotPSDError(float(evals[0]))
        if (diag < 0).any():  # inside the margin above, but no indicator has negative energy
            x = int(np.argmax(diag < 0))
            raise NotPSDError(diag[x], f"matrix is not positive semidefinite: A(x, x) = "
                                       f"{diag[x]:.3e} < 0 at point {space.points[x]!r}")

        best = None
        if pair is not None:
            x, y = pair
            best = np.zeros(n)
            best[x] = 1.0
            best[y] = -q[x, y] / q[y, y]
        # Negative row sum: push a constant above 1 at the offending point.
        negative = row_sums < -tol
        row_gain = np.where(usable, row_sums * row_sums / safe_diag, -2.0 * row_sums - diag)
        row_gain = np.where(negative, row_gain, -np.inf)
        if negative.any():
            x = int(np.argmax(row_gain))
            if row_gain[x] > pair_gain:
                best = np.ones(n)
                best[x] += -row_sums[x] / q[x, x] if q[x, x] > tol else 1.0
        if best is not None and _contraction_energy_drop(q, best) > 0:
            return False, best
    return True, np.maximum(row_sums, 0.0)


def _rebuild_defect(q: np.ndarray, raw: np.ndarray, killing: np.ndarray) -> float:
    """max |diag(J 1 + k) - J - raw| for the jump kernel J of q, in row panels; NaN if an entry is."""
    maxima = []
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_panels(len(q)):
            jump = _jump(q, rows)
            diag = jump.sum(axis=1) + killing[rows]
            rebuilt = np.subtract(0.0, jump, out=jump)
            np.fill_diagonal(rebuilt[:, rows], diag)
            rebuilt -= raw[rows]
            maxima.append(np.abs(rebuilt, out=rebuilt).max())
            del jump, rebuilt
    return float(np.max(maxima))


def _validated(q: np.ndarray, raw: np.ndarray, space: FiniteMeasureSpace) -> tuple:
    """The killing vector and row bounds of q = 0.5 (raw + raw^T) after the constructor's checks.

    ``raw`` is finite and symmetric within ``SYMMETRY_RTOL``; q must be
    Markovian (:func:`_sub_markov`), rebuilt by its jump kernel and killing
    within that margin, and in range (:func:`_check_range`).  The row bounds
    (:func:`_row_bounds`) are None when they are the diagonal.
    """
    ok, payload = _sub_markov(q, space)
    if not ok:
        raise NotMarkovianError(witness=payload)
    if _rebuild_defect(q, raw, payload) > SYMMETRY_RTOL * _matrix_scale(raw):
        raise NotMarkovianError(message="jump/killing data does not rebuild the matrix")
    bounds = _row_bounds(q)
    _check_range(q, space, bounds)
    return payload, None if np.array_equal(bounds, np.diagonal(q)) else bounds
